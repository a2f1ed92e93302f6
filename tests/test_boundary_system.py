"""Symmetric interface system G g = f_g and the minimum-residual solver."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helpers import apply_to_identity, dense_interface_operator, l2_distance
from rr_hdiv import boundary_system, fem, iteration, verify

MINRES_N4_R8_H = 27  # measured on this discretization, deterministic


@pytest.fixture(scope="module")
def op4(problem_n4):
    return boundary_system.InterfaceOperator(problem_n4)


@pytest.fixture(scope="module")
def op_small(small_problem):
    return boundary_system.InterfaceOperator(small_problem)


def test_apply_zero(op4):
    np.testing.assert_allclose(op4.apply(np.zeros(op4.n)), 0.0, atol=1e-16)


def test_apply_dimension_mismatch(op4):
    with pytest.raises(ValueError):
        op4.apply(np.zeros(op4.n + 1))


def test_operator_symmetry(op4, rng):
    for _ in range(20):
        x = rng.standard_normal(op4.n)
        y = rng.standard_normal(op4.n)
        lhs = y @ op4.apply(x)
        rhs = x @ op4.apply(y)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_fixed_point_solves_interface_system(problem_n4, op4, oracle32):
    g = verify.fixed_point_g(problem_n4, oracle32)
    f_g = op4.load()
    resid = np.linalg.norm(op4.apply(g) - f_g)
    assert resid < 1e-9 * np.linalg.norm(f_g)


def test_apply_matches_dense_operator(small_problem, op_small):
    G_dense = dense_interface_operator(small_problem)
    G_free = apply_to_identity(op_small.apply, op_small.n)
    scale = np.max(np.abs(G_dense))
    assert np.max(np.abs(G_free - G_dense)) < 1e-10 * scale
    np.testing.assert_allclose(G_dense, G_dense.T, atol=1e-12 * scale)
    # column-block application agrees with vector application
    block = op_small.apply(np.eye(op_small.n))
    np.testing.assert_allclose(block, G_free, atol=1e-13)


def _reference_symmetric_system(rng, n=60):
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)  # symmetric, indefinite
    b = rng.standard_normal(n)
    return A, b


def test_minres_against_library(rng):
    A, b = _reference_symmetric_system(rng)
    x, hist, converged, breakdown = boundary_system._minres(
        lambda v: A @ v, b, tol=1e-10, max_iter=1000
    )
    assert converged and not breakdown
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)
    x_ref, info = spla.minres(A, b, rtol=1e-10, maxiter=1000)
    assert info == 0
    direct = np.linalg.solve(A, b)
    assert np.linalg.norm(x - direct) <= 1e-6 * np.linalg.norm(direct)
    assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(direct)


def test_minres_count_matches_true_residual_crossing(rng):
    """The recurrence estimate must stop where the true residual crosses."""
    A, b = _reference_symmetric_system(rng)
    tol = 1e-8
    _, hist, converged, _ = boundary_system._minres(
        lambda v: A @ v, b, tol=tol, max_iter=1000
    )
    assert converged
    nb = np.linalg.norm(b)
    crossing = None
    for k in range(1, 1001):
        xk, _ = spla.minres(A, b, rtol=1e-30, maxiter=k)
        if np.linalg.norm(A @ xk - b) / nb < tol:
            crossing = k
            break
    assert crossing is not None
    assert abs(len(hist) - crossing) <= 2


def test_minres_history_monotone(rng):
    A, b = _reference_symmetric_system(rng)
    _, hist, _, _ = boundary_system._minres(
        lambda v: A @ v, b, tol=1e-10, max_iter=1000
    )
    hist = np.asarray(hist)
    assert np.all(np.diff(hist) <= 1e-12)


def test_minres_spd_sanity(rng):
    n = 40
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x, hist, converged, breakdown = boundary_system._minres(
        lambda v: A @ v, b, tol=1e-12, max_iter=1000
    )
    assert converged and not breakdown
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_minres_zero_rhs(op4):
    rep = boundary_system.solve_minres(op4, np.zeros(op4.n))
    assert rep.converged
    assert rep.iterations == 0
    np.testing.assert_allclose(rep.g, 0.0, atol=1e-16)


def test_minres_exhausts_small_space(op_small):
    f_g = op_small.load()
    rep = boundary_system.solve_minres(op_small, f_g, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= op_small.n + 5


def test_solve_minres_frozen_count(case, problem_n4, op4, oracle32):
    rep = boundary_system.solve_minres(op4, op4.load(), case=case)
    assert rep.converged and not rep.breakdown
    assert rep.iterations == MINRES_N4_R8_H
    assert rep.final_residual < 1e-6
    assert len(rep.residual_history) == rep.iterations
    dist = l2_distance(problem_n4.mesh, rep.u_h, oracle32)
    assert dist < 1e-4
    assert rep.l2_error == pytest.approx(7.366415e-3, rel=1e-3)


def test_recover_solution_from_exact_datum(case, problem_n4, oracle32):
    g = verify.fixed_point_g(problem_n4, oracle32)
    u_h, l2, hdiv = problem_n4.recover(g, case=case)
    assert l2_distance(problem_n4.mesh, u_h, oracle32) < 1e-8
    l2_direct, hdiv_direct = fem.error_norms(
        problem_n4.mesh, oracle32, case.u, case.div_u
    )
    assert l2 == pytest.approx(l2_direct, rel=1e-6)
    assert hdiv == pytest.approx(hdiv_direct, rel=1e-6)


def test_solve_minres_refuses_a_case_for_another_beta_before_apply(
        small_problem, monkeypatch):
    """The beta check runs before G is first applied: a spy on the
    operator's apply and on the problem's step records no call."""
    op = boundary_system.InterfaceOperator(small_problem)
    calls = []

    def spy(name, fn):
        def record(*args):
            calls.append(name)
            return fn(*args)
        return record

    monkeypatch.setattr(op, "apply", spy("apply", op.apply))
    monkeypatch.setattr(small_problem, "step", spy("step", small_problem.step))
    f_g = np.ones(op.n)
    with pytest.raises(ValueError, match=r"beta=4\.0, the config has beta=1\.0"):
        boundary_system.solve_minres(op, f_g, case=verify.manufactured_case(4.0))
    assert calls == []


def test_run_minres_refuses_a_case_for_another_beta_before_setup(monkeypatch):
    """The beta check runs before `build_problem`: a spy on it records no
    call."""
    calls = []
    build = iteration.build_problem

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(iteration, "build_problem", spy)
    cfg = iteration.IterationConfig(N=4, ratio=8)
    with pytest.raises(ValueError, match=r"beta=4\.0, the config has beta=1\.0"):
        boundary_system.run_minres(cfg, verify.manufactured_case(4.0))
    assert calls == []


def test_run_minres_reads_tol_and_max_iter_from_the_config(case):
    """run_minres stops at the config's max_iter, unconverged, and at
    the defaults takes the frozen count of the solve on an operator."""
    rep = boundary_system.run_minres(iteration.IterationConfig(N=4, ratio=8, max_iter=3), case)
    assert rep.iterations == 3 and not rep.converged
    assert len(rep.residual_history) == 3
    rep = boundary_system.run_minres(iteration.IterationConfig(N=4, ratio=8), case)
    assert rep.converged and rep.iterations == MINRES_N4_R8_H
    assert np.isfinite(rep.hdiv_error)


def test_solve_minres_defaults_to_the_problem_config(case):
    """With no tol or max_iter, solve_minres takes the problem config's:
    at tol=1e-3 it stops where an explicit tol=1e-3 does, the first
    residual below 1e-3, before the 1e-6 count."""
    cfg = iteration.IterationConfig(N=4, ratio=8, tol=1e-3)
    op = boundary_system.InterfaceOperator(iteration.build_problem(cfg, case.load))
    f_g = op.load()
    rep = boundary_system.solve_minres(op, f_g)
    assert rep.converged
    assert rep.iterations == boundary_system.solve_minres(op, f_g, tol=1e-3).iterations
    assert rep.iterations < MINRES_N4_R8_H
    assert rep.residual_history[-1] < 1e-3 <= rep.residual_history[-2]


def test_counts_stable_in_subdomain_number(case):
    """Fixed ratio: Krylov counts saturate rather than grow with N."""
    counts = {}
    for N in (4, 8):
        cfg = iteration.IterationConfig(N=N, ratio=8)
        problem = iteration.build_problem(cfg, case.load)
        op = boundary_system.InterfaceOperator(problem)
        counts[N] = boundary_system.solve_minres(op, op.load()).iterations
    assert counts[8] <= counts[4] + 5
