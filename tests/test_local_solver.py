"""Subdomain Robin systems and the constrained (multiplier) solver."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import apply_to_identity, dense_resolvent
from rr_hdiv import fem, iteration, local_solver, verify
from rr_hdiv.mesh import build_unit_square_mesh
from rr_hdiv.partition import build_constraint, partition


def test_parameter_validation(mesh8):
    part = partition(mesh8, 2)
    with pytest.raises(ValueError):
        local_solver.build_local_systems(part, mesh8, 1.0, 0.0)
    with pytest.raises(ValueError):
        local_solver.build_local_systems(part, mesh8, -1.0, 0.5)


def test_interface_mass_and_block_sizes(problem_n4):
    sizes = sorted({len(s.slots) for s in problem_n4.systems})
    assert sizes == [16, 24, 32]  # corner, edge, interior subdomains
    for system in problem_n4.systems:
        np.testing.assert_allclose(system.m_diag, problem_n4.mesh.h, atol=1e-16)
        assert system.n_local == system.n_interior + len(system.slots)


def test_robin_matrix_spd(small_problem):
    for system in small_problem.systems:
        H = system.robin_matrix().toarray()
        np.testing.assert_allclose(H, H.T, atol=1e-14)
        assert np.linalg.eigvalsh(H).min() > 0


def test_solve_local_zero(small_problem):
    system = small_problem.systems[0]
    u_i, u_d = local_solver.solve_local(
        system, np.zeros(system.n_local), np.zeros(len(system.slots))
    )
    np.testing.assert_allclose(u_i, 0.0, atol=1e-16)
    np.testing.assert_allclose(u_d, 0.0, atol=1e-16)


def test_solve_local_linearity(small_problem, rng):
    system = small_problem.systems[1]
    g = rng.standard_normal(len(system.slots))
    f = np.zeros(system.n_local)
    u1_i, u1_d = local_solver.solve_local(system, f, g)
    u2_i, u2_d = local_solver.solve_local(system, f, 2.0 * g)
    np.testing.assert_allclose(u2_i, 2.0 * u1_i, atol=1e-12)
    np.testing.assert_allclose(u2_d, 2.0 * u1_d, atol=1e-12)


def test_solve_local_dimension_mismatch(small_problem):
    system = small_problem.systems[0]
    with pytest.raises(ValueError):
        local_solver.solve_local(
            system, np.zeros(system.n_local + 1), np.zeros(len(system.slots))
        )


def test_local_solve_reproduces_oracle(problem_n4, oracle32, case):
    """Feeding each subdomain its exact Robin datum returns the oracle."""
    g = verify.fixed_point_g(problem_n4, oracle32)
    for system in problem_n4.systems:
        f_i = problem_n4.local_loads[system.sid]
        u_i, u_d = local_solver.solve_local(system, f_i, g[system.slots])
        np.testing.assert_allclose(
            u_i, oracle32[system.interior_edges], atol=1e-10
        )
        np.testing.assert_allclose(
            u_d,
            oracle32[problem_n4.partition.trace.slot_edge[system.slots]],
            atol=1e-10,
        )


def test_subdomain_solves_order_independent(small_problem, rng):
    datum = rng.standard_normal(small_problem.partition.trace.n_slots)
    results = {}
    for order in (range(4), reversed(range(4))):
        for k in order:
            system = small_problem.systems[k]
            out = local_solver.solve_local(
                system,
                small_problem.local_loads[k],
                datum[system.slots],
            )
            prev = results.setdefault(k, out)
            np.testing.assert_array_equal(prev[0], out[0])
            np.testing.assert_array_equal(prev[1], out[1])


def test_constrained_zero(small_problem):
    solver = small_problem.solver
    loads = [np.zeros(s.n_local) for s in small_problem.systems]
    u_int, u_d, mu = solver.solve(loads, np.zeros(solver.n_slots))
    np.testing.assert_allclose(u_d, 0.0, atol=1e-16)
    np.testing.assert_allclose(mu, 0.0, atol=1e-16)
    for u_i in u_int:
        np.testing.assert_allclose(u_i, 0.0, atol=1e-16)


def test_constrained_solve_at_fixed_point(problem_n4, oracle32):
    g = verify.fixed_point_g(problem_n4, oracle32)
    u_int, u_d, _ = problem_n4.solver.solve(problem_n4.local_loads, g)
    trace_edges = problem_n4.partition.trace.slot_edge
    np.testing.assert_allclose(u_d, oracle32[trace_edges], atol=1e-10)
    # the constraint holds to solver accuracy
    assert np.max(np.abs(problem_n4.B @ u_d)) < 1e-10


def test_resolvent_zero_and_shape(small_problem):
    out = small_problem.solver.apply_resolvent(
        np.zeros(small_problem.partition.trace.n_slots)
    )
    np.testing.assert_allclose(out, 0.0, atol=1e-16)


def test_resolvent_symmetry(problem_n4, rng):
    solver = problem_n4.solver
    n = problem_n4.partition.trace.n_slots
    for _ in range(20):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        rx = solver.apply_resolvent(x)
        ry = solver.apply_resolvent(y)
        lhs, rhs = y @ rx, x @ ry
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_resolvent_output_satisfies_constraint(problem_n4, rng):
    n = problem_n4.partition.trace.n_slots
    rhs = rng.standard_normal(n)
    out = problem_n4.solver.apply_resolvent(rhs)
    assert np.max(np.abs(problem_n4.B @ out)) < 1e-10


def test_resolvent_matches_dense_formula(small_problem):
    R_dense = dense_resolvent(small_problem)
    n = small_problem.partition.trace.n_slots
    R_free = apply_to_identity(small_problem.solver.apply_resolvent, n)
    scale = np.max(np.abs(R_dense))
    assert np.max(np.abs(R_free - R_dense)) < 1e-9 * scale
    # columns applied as one block agree with column-by-column application
    block = small_problem.solver.apply_resolvent(np.eye(n))
    np.testing.assert_allclose(block, R_free, atol=1e-12)


def test_coarse_schur_matches_dense(small_problem):
    S = small_problem.solver.schur.S.toarray()
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() > 0
    Bd = small_problem.B.toarray()
    n = small_problem.partition.trace.n_slots
    # S = B H^-1 B^T, with H^-1 on the trace realized by unconstrained solves
    HinvBT = np.zeros((n, Bd.shape[0]))
    for k, system in enumerate(small_problem.systems):
        rhs = np.zeros((system.n_local, Bd.shape[0]))
        rhs[system.n_interior:, :] = Bd[:, system.slots].T
        HinvBT[system.slots, :] = system.backsolve(rhs)[system.n_interior:, :]
    np.testing.assert_allclose(Bd @ HinvBT, S, atol=1e-12)


def test_single_subdomain_equals_global(case, mesh8, oracle8):
    part = partition(mesh8, 1)
    systems = local_solver.build_local_systems(part, mesh8, 1.0, 0.125)
    loads = local_solver.local_loads(part, mesh8, case.load)
    assert len(systems) == 1
    system = systems[0]
    assert len(system.slots) == 0
    H = system.robin_matrix().toarray()
    A = fem.assemble_global(mesh8, 1.0, case.load).A.toarray()
    free = np.flatnonzero(~mesh8.edge_boundary)
    order = np.argsort(system.interior_edges)
    assert np.array_equal(np.sort(system.interior_edges), free)
    np.testing.assert_allclose(H[np.ix_(order, order)], A, atol=1e-14)
    u_i, _ = local_solver.solve_local(system, loads[0], np.zeros(0))
    np.testing.assert_allclose(u_i, oracle8[system.interior_edges], atol=1e-12)


def test_local_loads_match_global(problem_n4, case):
    mesh = problem_n4.mesh
    system_global = fem.assemble_global(mesh, case.beta, case.load)
    full = np.zeros(mesh.n_edges)
    full[system_global.free_edges] = system_global.load
    gathered = np.zeros(mesh.n_edges)
    trace = problem_n4.partition.trace
    for system in problem_n4.systems:
        loc = problem_n4.local_loads[system.sid]
        gathered[system.interior_edges] += loc[: system.n_interior]
        np.add.at(
            gathered, trace.slot_edge[system.slots], loc[system.n_interior:]
        )
    np.testing.assert_allclose(gathered, full, atol=1e-14)


def test_inaccurate_trace_map_rejected(small_problem):
    """A factorization that does not solve the subdomain's matrix is caught
    when the Robin-to-trace maps are built."""
    systems = list(small_problem.systems)
    systems[2] = dataclasses.replace(systems[2], A=systems[2].A * 1.001)
    with pytest.raises(RuntimeError, match="subdomain 2"):
        local_solver.ConstrainedRobinSolver(systems, small_problem.B)


def test_sparse_factor_certifies_definiteness():
    indefinite = sp.csr_matrix(np.array([[2.0, 3.0], [3.0, 2.0]]))
    not_spd = "subdomain 7: Robin matrix not positive definite"
    with pytest.raises(ValueError, match=not_spd):
        local_solver._factor(indefinite, np.zeros(2), not_spd)
    lu = local_solver._factor(indefinite, np.array([0.0, 3.0]), not_spd)
    np.testing.assert_allclose(lu.solve(np.array([2.0, 3.0])), [1.0, 0.0])


def test_zero_constraint_row_rejected_by_coarse_factor(small_problem):
    """A constraint row with no entries leaves S singular; the coarse
    factorization, not a subdomain's, reports it."""
    B = small_problem.B.tolil()
    B[1, :] = 0.0
    with pytest.raises(
        ValueError, match="^coarse interface Schur complement not positive"
    ):
        local_solver.ConstrainedRobinSolver(small_problem.systems, B.tocsr())


def test_unconstrained_solver_matches_local_solves(case):
    """An empty constraint gives the independent subdomain solves."""
    cfg = iteration.IterationConfig(N=2, ratio=4, constrained=False)
    problem = iteration.build_problem(cfg, case.load)
    g = np.linspace(-1.0, 1.0, problem.partition.trace.n_slots)
    u_int, u_trace = problem.solve_once(g)
    for system in problem.systems:
        u_i, u_d = local_solver.solve_local(
            system, problem.local_loads[system.sid], g[system.slots]
        )
        np.testing.assert_allclose(u_int[system.sid], u_i, atol=1e-14)
        np.testing.assert_allclose(u_trace[system.slots], u_d, atol=1e-14)


def test_local_dofs_match_edge_lookup(problem_n4):
    """Reference: a full-mesh edge -> local dof table per subdomain."""
    part, mesh = problem_n4.partition, problem_n4.mesh
    tri_ids, starts, loc = local_solver._subdomain_dofs(part, mesh)
    for system in problem_n4.systems:
        s = system.sid
        loc_of_edge = -np.ones(mesh.n_edges, dtype=np.int64)
        loc_of_edge[system.local_edges] = np.arange(system.n_local)
        tris = np.flatnonzero(part.tri_sub == s)
        np.testing.assert_array_equal(tri_ids[starts[s]:starts[s + 1]], tris)
        np.testing.assert_array_equal(
            loc[starts[s]:starts[s + 1]], loc_of_edge[mesh.tri_edges[tris]]
        )


def test_nonfinite_data_rejected(small_problem):
    solver = small_problem.solver
    g = np.full(solver.n_slots, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        solver.solve(small_problem.local_loads, g)
    with pytest.raises(ValueError, match="non-finite"):
        solver.apply_resolvent(g)
