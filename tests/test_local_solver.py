"""Per-class Robin systems and the constrained (multiplier) solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    apply_to_identity,
    class_Z,
    dense_local_solve,
    dense_resolvent,
    DirectSolver,
    direct_problem,
    FlatResolvent,
    interior_edges,
    per_class_assembly,
    per_class_loads,
    per_member_local_loads,
    per_subdomain_local_dofs,
    robin_matrix,
    sorted_mesh,
    subdomain_load,
    subdomain_robin_matrix,
    triangle_subdomains,
    zero_loads,
)
from rr_hdiv import boundary_system, fem, iteration, local_solver, spectrum, verify
from rr_hdiv.mesh import build_unit_square_mesh
from rr_hdiv.partition import partition


def test_parameter_validation(mesh8):
    part = partition(mesh8, 2)
    with pytest.raises(ValueError):
        local_solver.build_local_systems(part, 1.0, 0.0)
    with pytest.raises(ValueError):
        local_solver.build_local_systems(part, -1.0, 0.5)
    with pytest.raises(ValueError, match="beta must be positive and finite, got nan"):
        local_solver.build_local_systems(part, float("nan"), 0.5)
    with pytest.raises(ValueError, match="Robin parameter must be positive"):
        local_solver.build_local_systems(part, 1.0, float("nan"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_parameters_rejected(mesh8, bad):
    """Refused before any class is built, as IterationConfig refuses them."""
    part = partition(mesh8, 2)
    with pytest.raises(ValueError, match="^beta must be positive and finite"):
        local_solver.build_local_systems(part, bad, 0.5)
    with pytest.raises(ValueError, match="^Robin parameter must be positive and finite"):
        local_solver.build_local_systems(part, 1.0, bad)


def _unconstrained(problem, classes=None):
    """The problem's classes behind an empty constraint: independent
    Robin solves per subdomain."""
    return local_solver.ConstrainedRobinSolver(
        problem.classes if classes is None else classes,
        sp.csr_matrix((0, problem.partition.trace.n_slots)),
    )


def test_interface_mass_and_block_sizes(problem_n4):
    sizes = sorted(cls.slots.shape[1] for cls in problem_n4.classes)
    # four corner classes, four edge classes and the interior class
    assert sizes == [16, 16, 16, 16, 24, 24, 24, 24, 32]
    for cls in problem_n4.classes:
        assert cls.template.h == problem_n4.mesh.h
        assert cls.n_local == cls.n_interior + cls.slots.shape[1]


def test_robin_matrix_spd(small_problem):
    for cls in small_problem.classes:
        H = robin_matrix(cls).toarray()
        np.testing.assert_allclose(H, H.T, atol=1e-14)
        assert np.linalg.eigvalsh(H).min() > 0


def test_solve_local_zero(small_problem):
    """Zero loads and a zero datum give zero local solutions."""
    solver = _unconstrained(small_problem)
    zero = solver.condense(zero_loads(small_problem.local_loads))
    u_int, u_d, _ = solver.solve(zero, np.zeros(solver.n_slots))
    np.testing.assert_allclose(u_d, 0.0, atol=1e-16)
    assert u_int.shape == (small_problem.classes[0].n_interior,
                           small_problem.partition.N ** 2)
    np.testing.assert_allclose(u_int, 0.0, atol=1e-16)


def test_solve_local_linearity(small_problem, rng):
    solver = _unconstrained(small_problem)
    g = rng.standard_normal(solver.n_slots)
    zero = solver.condense(zero_loads(small_problem.local_loads))
    u1_int, u1_d, _ = solver.solve(zero, g)
    u2_int, u2_d, _ = solver.solve(zero, 2.0 * g)
    np.testing.assert_allclose(u2_int, 2.0 * u1_int, atol=1e-12)
    np.testing.assert_allclose(u2_d, 2.0 * u1_d, atol=1e-12)


def test_solve_local_dimension_mismatch(small_problem):
    solver = _unconstrained(small_problem)
    with pytest.raises(ValueError, match="trace datum has"):
        solver.solve(solver.condense(small_problem.local_loads),
                     np.zeros(solver.n_slots + 1))


def test_local_solve_reproduces_oracle(problem_n4, oracle32, case):
    """Feeding each subdomain its exact Robin datum returns the oracle."""
    g = verify.fixed_point_g(problem_n4, oracle32)
    solver = _unconstrained(problem_n4)
    u_int, u_d, _ = solver.solve(solver.condense(problem_n4.local_loads), g)
    u = iteration.assemble_solution(problem_n4, u_int, u_d)
    np.testing.assert_allclose(u, oracle32, atol=1e-10)
    np.testing.assert_allclose(
        u_d, oracle32[problem_n4.partition.trace.slot_edge], atol=1e-10
    )


def test_subdomain_solves_order_independent(small_problem, rng):
    datum = rng.standard_normal(small_problem.partition.trace.n_slots)
    solver = _unconstrained(small_problem)
    forward = solver.solve(solver.condense(small_problem.local_loads), datum)
    solver = _unconstrained(small_problem, small_problem.classes[::-1])
    backward = solver.solve(solver.condense(small_problem.local_loads), datum)
    np.testing.assert_array_equal(forward[0], backward[0])
    np.testing.assert_array_equal(forward[1], backward[1])


def test_constrained_zero(small_problem):
    solver = small_problem.solver
    loads = zero_loads(small_problem.local_loads)
    u_int, u_d, mu = solver.solve(solver.condense(loads), np.zeros(solver.n_slots))
    np.testing.assert_allclose(u_d, 0.0, atol=1e-16)
    np.testing.assert_allclose(mu, 0.0, atol=1e-16)
    np.testing.assert_allclose(u_int, 0.0, atol=1e-16)


def test_constrained_solve_at_fixed_point(problem_n4, oracle32):
    g = verify.fixed_point_g(problem_n4, oracle32)
    u_int, u_d, _ = problem_n4.solver.solve(problem_n4.condensed_loads, g)
    trace_edges = problem_n4.partition.trace.slot_edge
    np.testing.assert_allclose(u_d, oracle32[trace_edges], atol=1e-10)
    # the constraint holds to solver accuracy
    assert np.max(np.abs(problem_n4.B @ u_d)) < 1e-10


@pytest.mark.parametrize("N,r", [(1, 8), (4, 8), (32, 8)])
def test_recovery_equals_interior_order_product(case, rng, N, r):
    """`solve` forms the interiors as v - (X^T W^T)^T, in the Fortran
    order that v has from SuperLU; on a random datum they are bitwise
    the v - W X^T of a C-ordered product.  The subtraction writes into
    the product, never into the cached v."""
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r),
                                      case.load)
    solver, loads = problem.solver, problem.condensed_loads
    v = loads.v.copy()
    u_int, w, _ = solver.solve(loads, rng.standard_normal(solver.n_slots))
    assert np.array_equal(loads.v, v) and not np.shares_memory(u_int, loads.v)
    Xt = np.zeros((loads.v.shape[1], solver._W.shape[1]))
    for cls in solver.classes:
        Xt[cls.members[:, None], cls.cols] = cls.trace_block(w)
    assert loads.v.flags.f_contiguous
    assert np.array_equal(u_int, loads.v - solver._W @ Xt.T)


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
    S = small_problem.solver.S.toarray()
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() > 0
    Bd = small_problem.B.toarray()
    n = small_problem.partition.trace.n_slots
    # S = B H^-1 B^T, with H^-1 on the trace realized by dense solves of
    # each subdomain's own Robin matrix
    HinvBT = np.zeros((n, Bd.shape[0]))
    for s in range(small_problem.partition.N ** 2):
        H, nI, slots = subdomain_robin_matrix(small_problem, s)
        rhs = np.zeros((H.shape[0], Bd.shape[0]))
        rhs[nI:, :] = Bd[:, slots].T
        HinvBT[slots, :] = np.linalg.solve(H, rhs)[nI:, :]
    np.testing.assert_allclose(Bd @ HinvBT, S, atol=1e-12)


def test_single_subdomain_equals_global(case, mesh8, oracle8):
    part = partition(mesh8, 1)
    classes = local_solver.build_local_systems(part, 1.0, 0.125)
    loads = local_solver.local_loads(part, case.load)
    assert len(classes) == 1
    cls = classes[0]
    np.testing.assert_array_equal(cls.members, [0])
    assert cls.slots.shape == (1, 0)
    H = robin_matrix(cls).toarray()
    A = fem.assemble_global(mesh8, 1.0, case.load).A.toarray()
    free = interior_edges(mesh8)
    interior = part.interior[0]
    order = np.argsort(interior)
    assert np.array_equal(np.sort(interior), free)
    np.testing.assert_allclose(H[np.ix_(order, order)], A, atol=1e-14)
    solver = local_solver.ConstrainedRobinSolver(classes, sp.csr_matrix((0, 0)))
    u_int, _, _ = solver.solve(solver.condense(loads), np.zeros(0))
    np.testing.assert_allclose(u_int[:, 0], oracle8[interior], atol=1e-12)


def test_local_loads_match_global(problem_n4, case):
    mesh = problem_n4.mesh
    system_global = fem.assemble_global(mesh, case.beta, case.load)
    full = np.zeros(mesh.n_edges)
    full[system_global.free_edges] = system_global.load
    gathered = np.zeros(mesh.n_edges)
    part = problem_n4.partition
    loads = problem_n4.local_loads
    assert loads.f_I.shape == part.interior.T.shape
    assert loads.f_G.shape == (part.trace.n_slots,)
    np.add.at(gathered, part.interior, loads.f_I.T)
    np.add.at(gathered, part.trace.slot_edge, loads.f_G)
    np.testing.assert_allclose(gathered, full, atol=1e-14)


@pytest.mark.parametrize("N,r", [(1, 4), (2, 2), (3, 5), (6, 4), (32, 8), (4, 32)])
def test_local_loads_match_per_member_scatter(case, N, r):
    """The loads read off the two orientation rows per edge equal a
    per-member bincount of the per-triangle reference loads exactly,
    dtype included: each load sums at most two terms.  Member i of a
    class is column members[i] of the interior loads, and its trace loads
    are its row of the class's trace block."""
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r), case.load)
    ref = per_member_local_loads(problem.classes, problem.partition, case.load)
    loads = problem.local_loads
    assert len(problem.classes) == len(ref)
    for cls, theirs in zip(problem.classes, ref, strict=True):
        nI = cls.n_interior
        for ours, expect in ((loads.f_I[:, cls.members], theirs[:nI]),
                             (cls.trace_block(loads.f_G).T, theirs[nI:])):
            assert ours.dtype == expect.dtype
            np.testing.assert_array_equal(ours, expect)


def test_local_loads_transient_is_bounded(case):
    """At m=512, N=64 the traced peak of `local_loads` is at most 1.1 times
    the two orientation rows per edge plus the loads it returns: no
    whole-mesh table of per-triangle loads or edge keys is held beside
    them, only one quadrature block's temporaries."""
    mesh = build_unit_square_mesh(512)
    part = partition(mesh, 64)
    tracemalloc.start()
    try:
        loads = local_solver.local_loads(part, case.load)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 2 * mesh.n_edges * 8 + loads.f_I.nbytes + loads.f_G.nbytes
    assert peak <= 1.1 * held, (peak, held)


def test_resolvent_on_a_block_wider_than_column_block(case, rng):
    """N=5, r=4 has 320 slots: one block of all of them, more than 256
    columns, matches column-by-column application."""
    problem = iteration.build_problem(iteration.IterationConfig(N=5, ratio=4), case.load)
    n = problem.partition.trace.n_slots
    assert n == 320
    cols = rng.standard_normal((n, n))
    block = problem.solver.apply_resolvent(cols)
    one_by_one = np.column_stack(
        [problem.solver.apply_resolvent(c) for c in cols.T]
    )
    assert np.abs(block - one_by_one).max() <= 1e-12 * np.abs(one_by_one).max()


def test_shared_interior_factor_solves_every_class(problem_n4, rng):
    """Every class's interior block is the template's A_II, entry for
    entry, and the one factor solves it with a backward error below
    1e-15."""
    template = problem_n4.classes[0].template
    rhs = rng.standard_normal((template.n_interior, 3))
    x = template._lu.solve(rhs)
    for cls in problem_n4.classes:
        assert cls.template is template
        A_II = cls.A[:cls.n_interior, :cls.n_interior]
        assert (A_II != template.A_II).nnz == 0
        scale = abs(A_II).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(A_II @ x - rhs).max() <= 1e-15 * scale


def test_dof_table_built_once(case, monkeypatch):
    """Setup derives the template dof table once, for the one template
    matrix; the loads scatter without it."""
    calls = []
    build = local_solver.local_dofs

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(local_solver, "local_dofs", spy)
    iteration.build_problem(iteration.IterationConfig(N=3, ratio=4), case.load)
    assert len(calls) == 1


def _with_template(classes, **fields):
    """The classes, all sharing one copy of their RobinTemplate with
    `fields` replaced."""
    template = dataclasses.replace(classes[0].template, **fields)
    return [dataclasses.replace(cls, template=template) for cls in classes]


def test_inaccurate_trace_map_rejected(small_problem):
    """A factor that does not solve the template's interior block is
    caught by the bound on the Robin-to-trace maps' backward error,
    through its side-solve residual term; the first class, that of
    subdomain 3, is the first refused."""
    A_II = small_problem.classes[0].template.A_II
    off = local_solver._factor(1.001 * A_II, 0.0, "perturbed factor")
    with pytest.raises(RuntimeError, match="^subdomain 3: Robin-to-trace map "
                       "backward error"):
        local_solver.ConstrainedRobinSolver(
            _with_template(small_problem.classes, _lu=off), small_problem.B)


def test_inaccurate_schur_inverse_rejected(small_problem, monkeypatch):
    """An inverse of a class's Schur block off by 1e-9 relative is caught
    by the same bound, through its term |schur Z - I|."""
    inverse = local_solver._spd_inverse
    monkeypatch.setattr(local_solver, "_spd_inverse",
                        lambda S, not_spd: inverse(S, not_spd) * (1.0 + 1e-9))
    with pytest.raises(RuntimeError, match="^subdomain 3: Robin-to-trace map "
                       "backward error"):
        local_solver.ConstrainedRobinSolver(small_problem.classes, small_problem.B)


def test_indefinite_interior_block_refused(case, monkeypatch):
    """A negative definite A_II fails its sparse factorization, with the
    message of an indefinite Robin matrix of the first class."""
    assemble = fem.assemble_matrix
    monkeypatch.setattr(fem, "assemble_matrix", lambda *args: -assemble(*args))
    with pytest.raises(ValueError, match="^subdomain 5: Robin matrix not "
                       "positive definite"):
        iteration.build_problem(iteration.IterationConfig(N=4, ratio=4), case.load)


def test_indefinite_schur_block_refused(small_problem):
    """The template with its interface diagonal lowered by 100 keeps A_II,
    so its factor and W stand, but the first class's Schur block, cut
    from the template's Schur complement, has no Cholesky factor."""
    template = small_problem.classes[0].template
    A = template.A.copy()
    diag = A.diagonal()
    diag[template.n_interior:] -= 100.0
    A.setdiag(diag)
    first = small_problem.classes[0].members[0]
    with pytest.raises(ValueError, match=f"^subdomain {first}: Robin "
                       "matrix not positive definite"):
        local_solver.ConstrainedRobinSolver(
            _with_template(small_problem.classes, A=A), small_problem.B)


def test_sparse_factor_certifies_definiteness():
    indefinite = sp.csr_matrix(np.array([[2.0, 3.0], [3.0, 2.0]]))
    not_spd = "subdomain 7: Robin matrix not positive definite"
    with pytest.raises(ValueError, match=not_spd):
        local_solver._factor(indefinite, np.zeros(2), not_spd)
    lu = local_solver._factor(indefinite, np.array([0.0, 3.0]), not_spd)
    np.testing.assert_allclose(lu.solve(np.array([2.0, 3.0])), [1.0, 0.0])


def test_zero_constraint_row_rejected_by_coarse_factor(small_problem):
    """Classes whose `ifaces` name interface 0 where they named interface
    1 leave no block on S's row 1, so S is singular; the coarse
    factorization, not a subdomain's, reports it."""
    classes = [dataclasses.replace(cls, ifaces=np.where(cls.ifaces == 1, 0, cls.ifaces))
               for cls in small_problem.classes]
    with pytest.raises(
        ValueError, match="^coarse interface Schur complement not positive"
    ):
        local_solver.ConstrainedRobinSolver(classes, small_problem.B)


def test_unconstrained_solver_matches_local_solves(case):
    """An empty constraint gives the independent subdomain solves."""
    cfg = iteration.IterationConfig(N=2, ratio=4, constrained=False)
    problem = iteration.build_problem(cfg, case.load)
    g = np.linspace(-1.0, 1.0, problem.partition.trace.n_slots)
    u_int, u_trace = problem.solve_once(g)
    u = iteration.assemble_solution(problem, u_int, u_trace)
    part = problem.partition
    for s in range(part.N ** 2):
        slots = part.slots_of(s)
        u_i, u_d = dense_local_solve(
            problem, s, subdomain_load(problem, s), g[slots]
        )
        np.testing.assert_allclose(u[part.interior_of(s)], u_i, atol=1e-14)
        np.testing.assert_allclose(u_trace[slots], u_d, atol=1e-14)


def test_local_dofs_match_edge_lookup(problem_n4):
    """Reference: a full-mesh edge -> local dof table per subdomain,
    against the template mapped through each member's kept dofs."""
    part, mesh = problem_n4.partition, problem_n4.mesh
    tri_sub = triangle_subdomains(mesh, part.N)
    tri_edges = sorted_mesh(mesh.m).tri_edges
    tri_ids, starts, loc = per_subdomain_local_dofs(part)
    for cls in problem_n4.classes:
        for s, interior, slots in zip(cls.members, part.interior[cls.members], cls.slots):
            np.testing.assert_array_equal(interior, part.interior_of(s))
            np.testing.assert_array_equal(slots, part.slots_of(s))
            local_edges = np.concatenate([interior, part.trace.slot_edge[slots]])
            loc_of_edge = -np.ones(mesh.n_edges, dtype=np.int64)
            loc_of_edge[local_edges] = np.arange(cls.n_local)
            tris = np.flatnonzero(tri_sub == s)
            block = slice(starts[s], starts[s + 1])
            np.testing.assert_array_equal(tri_ids[block], tris)
            np.testing.assert_array_equal(
                loc[block], loc_of_edge[tri_edges[tris]]
            )


def test_nonfinite_data_rejected(case):
    """A NaN datum or resolvent input is refused on entry, by the
    constrained solver and by the unconstrained baseline, which has no
    coarse solve to catch it."""
    for constrained in (True, False):
        cfg = iteration.IterationConfig(N=3, ratio=4, constrained=constrained)
        problem = iteration.build_problem(cfg, case.load)
        solver = problem.solver
        g = np.full(solver.n_slots, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            solver.solve(solver.condense(problem.local_loads), g)
        with pytest.raises(ValueError, match="non-finite"):
            solver.apply_resolvent(g)
        with pytest.raises(ValueError, match="non-finite"):
            solver.apply_resolvent(np.full((solver.n_slots, 3), np.inf))


@pytest.mark.parametrize("N", [1, 2, 6])
def test_one_interior_factor_per_build(case, monkeypatch, N):
    """One sparse factorization of a subdomain block, A_II, whatever N,
    and one of the coarse S when there are interfaces."""
    calls = []
    factor = local_solver._factor

    def counted(A, diag, not_spd):
        calls.append(not_spd.split()[0])
        return factor(A, diag, not_spd)

    monkeypatch.setattr(local_solver, "_factor", counted)
    iteration.build_problem(iteration.IterationConfig(N=N, ratio=4), case.load)
    assert calls == ["subdomain"] + ["coarse"] * (N > 1)


def test_one_back_substitution_of_the_side_columns(case, monkeypatch):
    """At N=4, r=32 setup back-substitutes only the bottom side's r = 32
    columns, in one multi-column solve, for the 768 trace-map columns of
    the nine classes: the template's symmetries fill the other three
    sides of W."""
    columns = []
    solve = local_solver._solve

    def counted(lu, rhs, what):
        columns.append(rhs.shape[1])
        return solve(lu, rhs, what)

    monkeypatch.setattr(local_solver, "_solve", counted)
    problem = iteration.build_problem(iteration.IterationConfig(N=4, ratio=32), case.load)
    assert sum(cls.slots.shape[1] for cls in problem.classes) == 768
    assert columns == [32]


@pytest.mark.parametrize("N,r", [(2, 1), (3, 5), (4, 32), (32, 8)])
def test_mapped_side_columns_match_direct(N, r):
    """W, solved on the bottom side and mapped onto the other three, equals
    the back-substitution of all 4r side columns through `_solve` to
    1e-10 of max |W|: measured 6.0e-12 at (4, 32), 3.0e-11 at (32, 8) and
    7.3e-14 at (3, 5), where the factor's ordering is not symmetric.  Each
    mapped side's residual norm is at most twice the solved side's
    (measured ratios 0.68-1.03; all about 2e-15 to 8e-15)."""
    part = partition(build_unit_square_mesh(N * r), N)
    template = local_solver.build_local_systems(part, 1.0, 1.0)[0].template
    nI = template.n_interior
    W, side_sq = local_solver._side_solves(template, 4 * r)
    direct = local_solver._solve(template._lu, template.A[:nI, nI:].toarray(), "all sides")
    assert np.abs(W - direct).max() <= 1e-10 * np.abs(direct).max()
    side_norm = np.sqrt(side_sq.reshape(4, r).sum(axis=1))
    assert np.all(side_norm[1:] <= 2.0 * side_norm[0])


def test_wrong_reflection_sign_refused(case, monkeypatch):
    """One wrong sign in the template's reflection map, at a dof near the
    template's centre, puts a wrong entry in every left and right column
    of W.  The residual of the mapped columns carries it into the trace
    maps' backward error (5.6e-2 at N=4, r=8), and setup refuses it."""
    maps = local_solver.template_symmetry_maps

    def broken(part):
        perm, sign = maps(part)
        sign[1, sign.shape[1] // 2] *= -1.0
        return perm, sign

    monkeypatch.setattr(local_solver, "template_symmetry_maps", broken)
    with pytest.raises(RuntimeError, match="Robin-to-trace map backward error"):
        iteration.build_problem(iteration.IterationConfig(N=4, ratio=8), case.load)


def test_solver_keeps_no_local_map(case):
    """After setup at N=4, r=32 the solver holds W (3008 x 128, shared by
    the classes), one Z and one dense Y per class and S: 3.68 MB by
    tracemalloc, where a full n_local x n_own map per class held 19.1 MB
    (3.76 MB with the sparse Y_trace and a flat slot index per class).
    Bound: 5 MB.  No array that the solver or a class holds has a class's
    n_local x n_own shape, and the integer arrays that the solver holds
    have fewer entries than the trace has slots (48 of 1536; the flat slot
    indices held all 1536): the class-major slots need no gather index."""
    problem = iteration.build_problem(iteration.IterationConfig(N=4, ratio=32), case.load)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver = local_solver.ConstrainedRobinSolver(problem.classes, problem.B)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 5e6
    maps = {(cls.n_local, cls.slots.shape[1]) for cls in problem.classes}
    fields = [*vars(solver).values(),
              *(v for cls in problem.classes for v in vars(cls).values()),
              *(v for group in solver._groups for v in vars(group).values())]
    arrays = [a for v in fields for a in (v if isinstance(v, list) else [v])
              if isinstance(a, np.ndarray)]
    assert arrays and not any(a.shape in maps for a in arrays)
    held = [a for v in (*vars(solver).values(),
                        *(v for group in solver._groups for v in vars(group).values()))
            for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    assert sum(a.size for a in held if a.dtype.kind in "iu") < solver.n_slots


def _traced_peak(call):
    """Peak bytes that call() allocates beyond what was held before it,
    by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_setup_peak_memory(case):
    """At N=4, r=32 setup solves one side of W (r columns), maps it onto
    the other three in place, and forms the residual one side at a time,
    so only one side's dense columns and residual live beside W (3.1 MB):
    the constructor peaks at 4.9 MB by tracemalloc.  Solving every side
    in turn peaked at 6.4 MB, and the dense A_IG, W and the residual of
    all 4r columns at once at 12.6 MB.  Bound: 8 MB."""
    problem = iteration.build_problem(iteration.IterationConfig(N=4, ratio=32), case.load)
    peak = _traced_peak(
        lambda: local_solver.ConstrainedRobinSolver(problem.classes, problem.B))
    assert peak <= 8e6


def test_solve_peak_memory(case):
    """One loaded solve at N=4, r=32 recovers every member's interior in
    one product with W, without copying W's columns per class: it peaks
    at 1.3 MB by tracemalloc, where the per-class copies of W[:, cols]
    (up to 3.1 MB each) peaked at 4.0 MB.  Bound: 2 MB."""
    problem = iteration.build_problem(iteration.IterationConfig(N=4, ratio=32), case.load)
    g = np.random.default_rng(0).standard_normal(problem.solver.n_slots)
    solver = problem.solver
    peak = _traced_peak(
        lambda: solver.solve(solver.condense(problem.local_loads), g))
    assert peak <= 2e6


def test_side_columns_of_each_class(problem_n4):
    """Each class's cols are the template's side dofs of its own sides,
    r = 8 per side in the order bottom, left, right, top.  The template
    has all four sides at every N; W covers every side at N=4 and N=2,
    none at N=1."""
    sides = {5: "BLRT", 13: "BLR", 1: "LRT", 7: "BLT", 4: "BRT",
             15: "BL", 3: "LT", 12: "BR", 0: "RT"}
    for cls in problem_n4.classes:
        expect = [8 * "BLRT".index(d) + np.arange(8) for d in sides[cls.members[0]]]
        np.testing.assert_array_equal(cls.cols, np.concatenate(expect))
    nI = problem_n4.classes[0].n_interior
    assert problem_n4.classes[0].template.A.shape == (nI + 32, nI + 32)
    assert problem_n4.solver._W.shape == (nI, 32)
    for N, width in ((2, 16), (1, 0)):
        mesh = build_unit_square_mesh(4 * N)
        part = partition(mesh, N)
        classes = local_solver.build_local_systems(part, 1.0, 0.25)
        template = classes[0].template
        assert template.A.shape[0] == template.n_interior + 16
        solver = local_solver.ConstrainedRobinSolver(
            classes, sp.csr_matrix((0, part.trace.n_slots)))
        assert solver._W.shape == (template.n_interior, width)


def _local_maps(problem):
    """Per class, X = H^-1 E as the solver holds it: Z, under its interior
    rows -W_c Z."""
    solver = problem.solver
    return [np.vstack([-solver._W[:, cls.cols] @ Z, Z])
            for cls, Z in zip(problem.classes, class_Z(solver))]


@pytest.mark.parametrize("r", [1, 2, 4, 8])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_mapped_trace_maps_match_direct(case, N, r):
    """Every class's X = H^-1 E, from the shared interior solve and its
    own Schur block, equals the one solved through its own factor to
    1e-12 of its largest entry."""
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r), case.load)
    direct = DirectSolver(problem.classes, problem.B)
    for X, X_ref in zip(_local_maps(problem), direct.X):
        assert np.abs(X - X_ref).max() <= 1e-12 * np.abs(X_ref).max()


def test_mapped_trace_maps_match_direct_r32(case):
    """At N=4, r=32 the measured gap to the directly solved maps, relative
    to their largest entry, is 6.3e-12 on X and on its trace block Z;
    bounded here by 1e-11."""
    problem = iteration.build_problem(iteration.IterationConfig(N=4, ratio=32), case.load)
    direct = DirectSolver(problem.classes, problem.B)
    for cls, X, X_ref in zip(problem.classes, _local_maps(problem), direct.X):
        nI = cls.n_interior
        assert np.abs(X - X_ref).max() <= 1e-11 * np.abs(X_ref).max()
        assert np.abs(X[nI:] - X_ref[nI:]).max() <= 1e-11 * np.abs(X_ref[nI:]).max()


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("N,r", [(1, 4), (2, 2), (2, 8), (3, 5), (6, 4), (4, 32)])
def test_solve_and_resolvent_match_direct(case, rng, N, r, constrained):
    """`solve` with the loads and a random datum, and the resolvent on a
    block of random columns, against the solves through each class's own
    factor, with the constraint and without.

    Up to r=8 the interiors, traces, mu and the resolvent agree to 1e-12
    relative (measured at most 2.4e-13 over five draws).  At r=32 the
    measured gaps are 1.2e-11 on the interiors and 4-6e-12 on the rest,
    while one step of iterative refinement moves the direct solution
    itself by 4-6e-12: both sit at the conditioning's limit, and the
    bound there is 5e-11.  Every member's solve has a backward error
    below 1e-15 against its class's own H (measured at most 3.0e-16)."""
    cfg = iteration.IterationConfig(N=N, ratio=r, constrained=constrained)
    problem = iteration.build_problem(cfg, case.load)
    direct = DirectSolver(problem.classes, problem.B)
    g = rng.standard_normal(problem.solver.n_slots)
    u_int, w, mu = problem.solver.solve(problem.condensed_loads, g)
    ref = direct.solve(problem.local_loads, g)
    rtol = 1e-12 if r <= 8 else 5e-11
    for cls in problem.classes:
        u_i, u_ref = u_int[:, cls.members], ref[0][:, cls.members]
        assert np.abs(u_i - u_ref).max() <= rtol * np.abs(u_ref).max()
    for out, out_ref in zip((w, mu), ref[1:]):
        scale = np.abs(out_ref).max(initial=0.0)
        assert np.abs(out - out_ref).max(initial=0.0) <= rtol * scale
    bt_mu = problem.B.T @ mu
    for cls, f in zip(problem.classes, per_class_loads(problem.classes, problem.local_loads)):
        H = robin_matrix(cls)
        x = np.vstack([u_int[:, cls.members], w[cls.slots.T]])
        rhs = f.copy()
        rhs[cls.n_interior:] += problem.mesh.h * g[cls.slots.T] - bt_mu[cls.slots.T]
        backward = np.abs(H @ x - rhs).max() / (abs(H).sum(axis=0).max() * np.abs(x).max())
        assert backward <= 1e-15
    cols = rng.standard_normal((problem.solver.n_slots, 3))
    w, w_ref = problem.solver.apply_resolvent(cols), direct.apply_resolvent(cols)
    scale = np.abs(w_ref).max(initial=0.0)
    assert np.abs(w - w_ref).max(initial=0.0) <= rtol * scale


# Largest relative gap per step between a history through the shared
# interior factor and one through each class's own factor.  Measured:
# Richardson 1.5e-10 at (N, r) = (4, 8), 8.4e-11 at (32, 8) and 2.1e-10
# at (4, 32), MINRES 4.4e-11 at (16, 8).  The gap is the loaded solve's
# round-off, which the stopping increments carry along.
HISTORY_RTOL = 1e-9


@pytest.mark.parametrize("N,r", [(4, 8), (32, 8), (4, 32)])
def test_richardson_history_matches_direct(case, N, r):
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r), case.load)
    ours = iteration._run(problem, case)
    ref = iteration._run(direct_problem(problem), case)
    assert ours.iterations == ref.iterations
    gap = np.abs(ours.increment_history - ref.increment_history)
    assert np.all(gap <= HISTORY_RTOL * ref.increment_history)


def test_minres_history_matches_direct(case):
    problem = iteration.build_problem(iteration.IterationConfig(N=16, ratio=8), case.load)
    ours, ref = (
        boundary_system.solve_minres(op, op.load()).residual_history
        for op in map(boundary_system.InterfaceOperator,
                      (problem, direct_problem(problem)))
    )
    assert ours.size == ref.size == 29
    assert np.all(np.abs(ours - ref) <= HISTORY_RTOL * ref)


def test_Q_matches_direct():
    """Measured gap at N=8, r=8: 5.0e-12 of max |Q|."""
    cfg = iteration.IterationConfig(N=8, ratio=8, theta=1.0)
    zero = iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))
    eye = np.eye(zero.partition.trace.n_slots)
    Q = spectrum.assemble_Q(cfg).Q @ eye
    Q_ref = direct_problem(zero).step(eye)  # theta = 1: Q is the step
    assert np.abs(Q - Q_ref).max() <= 1e-10 * np.abs(Q_ref).max()


@pytest.mark.parametrize("N,r", [(1, 4), (2, 2), (2, 16), (3, 5), (6, 4), (4, 32)])
def test_classes_match_per_class_assembly(case, N, r):
    """Every class's A, cut from the one template, is bitwise that of the
    per-class assembly (`helpers.per_class_assembly`) in its CSR arrays,
    and its Z matches to 1e-11 of max |Z|.  The reference solves all four
    sides of W, where setup maps three of them from the bottom's solve,
    and SuperLU's fill-reducing ordering has no symmetry, so the mapped
    columns differ at round-off: measured 3.8e-12 at (4, 32), 3.0e-13 at
    (2, 16) and at most 1.1e-13 up to r=5."""
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r), case.load)
    ref = per_class_assembly(problem)
    for cls, Z, (A_ref, Z_ref) in zip(problem.classes, class_Z(problem.solver), ref,
                                      strict=True):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cls.A, name), getattr(A_ref, name)), name
        assert np.abs(Z - Z_ref).max(initial=0.0) <= 1e-11 * np.abs(Z_ref).max(initial=0.0)


@pytest.mark.parametrize("N", [1, 2, 6])
def test_one_assembly_per_build(monkeypatch, N):
    """`build_local_systems` computes element matrices once and assembles
    one matrix, the template, whatever N."""
    calls = []
    for name in ("element_matrices", "assemble_matrix"):
        def counted(*args, _name=name, _call=getattr(fem, name)):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(fem, name, counted)
    mesh = build_unit_square_mesh(4 * N)
    classes = local_solver.build_local_systems(partition(mesh, N), 1.0, 0.25)
    assert len(classes) == min(N, 3) ** 2
    assert sorted(calls) == ["assemble_matrix", "element_matrices"]


@pytest.fixture(scope="module")
def problem_n6(case):
    """N=6, r=4: m=24 is not a power of two, so congruent subdomains'
    element matrices differ in round-off."""
    return iteration.build_problem(iteration.IterationConfig(N=6, ratio=4), case.load)


def test_class_matches_every_member(problem_n6):
    """Each member's own Robin matrix and Robin-to-trace map, assembled
    and solved independently, equal its class's."""
    assert sorted(c.members.size for c in problem_n6.classes) == [
        1, 1, 1, 1, 4, 4, 4, 4, 16
    ]
    for cls, Z in zip(problem_n6.classes, class_Z(problem_n6.solver)):
        H_class = robin_matrix(cls).toarray()
        nI = cls.n_interior
        for s in cls.members:
            H, n_interior, _ = subdomain_robin_matrix(problem_n6, s)
            assert n_interior == nI
            assert np.abs(H - H_class).max() <= 1e-13 * np.abs(H_class).max()
            E = np.zeros((H.shape[0], H.shape[0] - nI))
            E[nI:] = np.eye(H.shape[0] - nI)
            Z_own = np.linalg.solve(H, E)[nI:]
            assert np.abs(Z_own - Z).max() <= 1e-12 * np.abs(Z).max()


@pytest.mark.parametrize("N,r", [(1, 4), (2, 2), (2, 16), (3, 5), (6, 4), (4, 32), (16, 8)])
def test_class_major_matches_flat_reference(case, rng, N, r):
    """The resolvent on a vector and on a block of 320 columns, `solve`
    and `load_trace` against the same solves on the interface-major slots
    through flat gathers and the sparse Y_trace (`helpers.FlatResolvent`),
    compared through the slot map.  The class-major order changes the
    summation order of B's rows and of S, and Y_c reassociates the
    coarse correction.  Measured: at most 1.5e-14 of the largest entry
    (mu and the load trace at N=16, r=8; 6.3e-15 or less elsewhere); bound
    1e-12."""
    problem = iteration.build_problem(iteration.IterationConfig(N=N, ratio=r), case.load)
    ref = FlatResolvent(problem)
    solver = problem.solver
    n = solver.n_slots

    def close(out, out_ref, bound=1e-12):
        scale = np.abs(out_ref).max(initial=0.0)
        assert np.abs(out - out_ref).max(initial=0.0) <= bound * scale

    x = rng.standard_normal(n)
    close(solver.apply_resolvent(x), ref.apply_resolvent(x))
    cols = rng.standard_normal((n, 320))
    close(solver.apply_resolvent(cols), ref.apply_resolvent(cols))
    g = rng.standard_normal(n)
    u_int, w, mu = solver.solve(problem.condensed_loads, g)
    u_ref, w_ref, mu_ref = ref.solve(problem.local_loads, g)
    for cls in problem.classes:
        close(u_int[:, cls.members], u_ref[:, cls.members])
    close(w, w_ref)
    close(mu, mu_ref)
    close(problem.load_trace(), ref.solve(problem.local_loads, np.zeros(n))[1])


@pytest.mark.parametrize("N,r", [(1, 4), (2, 3), (3, 2), (5, 2)])
def test_class_slots_are_one_range(N, r):
    """Class c's members own the slots class_start[c] .. class_start[c+1]
    in turn, n_own each: a class's slots are offset + arange, and the
    classes cover the trace once."""
    mesh = build_unit_square_mesh(N * r)
    part = partition(mesh, N)
    classes = local_solver.build_local_systems(part, 1.0, 0.5)
    assert part.class_start[0] == 0 and part.class_start[-1] == part.trace.n_slots
    for cls, members, lo, hi in zip(classes, part.classes, part.class_start[:-1],
                                    part.class_start[1:], strict=True):
        np.testing.assert_array_equal(cls.members, members)
        owned = np.concatenate([part.slots_of(s) for s in members])
        np.testing.assert_array_equal(owned, np.arange(lo, hi))
        np.testing.assert_array_equal(cls.slots.ravel(), np.arange(lo, hi))
        assert cls.slots.shape == (members.size, cls.cols.size)


def _interior_load_solves(monkeypatch):
    """The list that records each solve of the interior loads through the
    template's factor."""
    calls = []
    solve = local_solver._solve

    def spy(lu, rhs, what):
        if what == "the interior loads":
            calls.append(rhs.shape)
        return solve(lu, rhs, what)

    monkeypatch.setattr(local_solver, "_solve", spy)
    return calls


def test_one_interior_load_solve_per_run(case, monkeypatch):
    """Richardson and MINRES each condense the loads once, for all 16
    members: the load trace and the recovery share that one solve, and
    setup does none."""
    calls = _interior_load_solves(monkeypatch)
    cfg = iteration.IterationConfig(N=4, ratio=4)
    problem = iteration.build_problem(cfg, case.load)
    assert calls == []
    iteration._run(problem, case)
    assert len(calls) == 1 and calls[0][1] == 16
    iteration.run_richardson(cfg, case)
    assert len(calls) == 2
    op = boundary_system.InterfaceOperator(iteration.build_problem(cfg, case.load))
    boundary_system.solve_minres(op, op.load(), case=case)
    assert len(calls) == 3
