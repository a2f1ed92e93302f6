"""Relaxed Robin exchange: counts, stopping semantics, fixed-point checks."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    apply_to_identity,
    direct_errors,
    interior_edges,
    l2_distance,
    relaxed_step,
)
from rr_hdiv import iteration, local_solver, verify
from rr_hdiv.mesh import boundary_edges

# Measured once on this discretization and frozen; the runs are fully
# deterministic so the counts must reproduce exactly.
RICHARDSON_N4_R8 = {
    ("h", 0.5): 39,
    ("h", 2.0 / 3.0): 28,
    ("H", 0.5): 71,
    ("H", 2.0 / 3.0): 53,
}
BASELINE_N4_R8 = 366


def test_resolve_gamma():
    assert iteration.resolve_gamma("h", 32, 4) == pytest.approx(1.0 / 32)
    assert iteration.resolve_gamma("H", 32, 4) == pytest.approx(0.25)
    assert iteration.resolve_gamma(0.7, 32, 4) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        iteration.resolve_gamma(-1.0, 32, 4)
    with pytest.raises(ValueError):
        iteration.resolve_gamma("x", 32, 4)
    for bad in (float("nan"), float("inf"), "nan", "inf"):
        with pytest.raises(ValueError, match="positive and finite"):
            iteration.resolve_gamma(bad, 32, 4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=0, ratio=8),
        dict(N=4, ratio=0),
        dict(N=4, ratio=8, theta=0.0),
        dict(N=4, ratio=8, theta=1.5),
        dict(N=4, ratio=8, tol=0.0),
        dict(N=4, ratio=8, beta=0.0),
        dict(N=4, ratio=8, max_iter=0),
        dict(N=4, ratio=8, tol=float("nan")),
        dict(N=4, ratio=8, tol=float("inf")),
        dict(N=4, ratio=8, beta=float("nan")),
        dict(N=4, ratio=8, beta=float("inf")),
        dict(N=4, ratio=8, gamma_rule=float("nan")),
        dict(N=4, ratio=8, gamma_rule=float("inf")),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        iteration.IterationConfig(**kwargs)


def test_config_mesh_size():
    cfg = iteration.IterationConfig(N=4, ratio=8)
    assert cfg.m == 32
    assert cfg.theta == 0.5 and cfg.tol == 1e-6 and cfg.max_iter == 10000


@pytest.mark.parametrize("rule,theta", sorted(RICHARDSON_N4_R8, key=str))
def test_richardson_counts_frozen(case, rule, theta):
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule=rule, theta=theta)
    rep = iteration.run_richardson(cfg, case)
    assert rep.converged
    assert rep.iterations == RICHARDSON_N4_R8[(rule, theta)]
    assert len(rep.increment_history) == rep.iterations
    assert rep.increment_history[-1] < cfg.tol
    assert np.all(rep.increment_history[:-1] >= cfg.tol)
    assert rep.wall_time > 0.0
    assert rep.g.shape == (4 * 4 * 3 * 8,)


def test_richardson_runs_the_unconstrained_config(case):
    """`run_richardson` runs the config it is given: without the
    constraint it is the baseline, with the baseline's pinned count, and
    its report holds that config."""
    cfg = replace(iteration.IterationConfig(N=4, ratio=8), constrained=False)
    rep = iteration.run_richardson(cfg, case)
    assert rep.config is cfg
    assert rep.converged and rep.iterations == BASELINE_N4_R8
    assert not rep.config.constrained and rep.config.gamma == 1.0 / 32


def test_single_subdomain_converges_immediately(case):
    cfg = iteration.IterationConfig(N=1, ratio=8)
    rep = iteration.run_richardson(cfg, case)
    assert rep.converged and rep.iterations == 1
    l2_direct, hdiv_direct = direct_errors(8, case)
    assert rep.l2_error == pytest.approx(l2_direct, rel=1e-10)
    assert rep.hdiv_error == pytest.approx(hdiv_direct, rel=1e-10)


def test_converged_solution_matches_oracle(case, problem_n4, oracle32):
    cfg = problem_n4.config
    rep = iteration.run_richardson(cfg, case)
    dist = l2_distance(problem_n4.mesh, rep.u_h, oracle32)
    assert dist < 10.0 * cfg.tol


def test_divergence_reported_not_raised(case):
    cfg = iteration.IterationConfig(N=2, ratio=4, max_iter=5)
    rep = iteration.run_richardson(cfg, case)
    assert not rep.converged
    assert rep.iterations == 5
    assert len(rep.increment_history) == 5
    assert np.isfinite(rep.l2_error)


def test_fixed_point_identity(case, problem_n4, oracle32):
    assert iteration.fixed_point_check(problem_n4, oracle32) < 1e-10


def test_fixed_point_identity_gamma_H(case):
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="H")
    problem = iteration.build_problem(cfg, case.load)
    u = verify.solve_global(problem.mesh, case.beta, case.load)
    assert iteration.fixed_point_check(problem, u) < 1e-10


def test_perturbed_field_is_not_a_fixed_point(case, problem_n4, oracle32):
    bumped = oracle32.copy()
    free = interior_edges(problem_n4.mesh)
    bumped[free[len(free) // 2]] += 1.0
    assert iteration.fixed_point_check(problem_n4, bumped) > 1e-6


def test_recover_refuses_a_case_for_another_beta(small_problem):
    """Errors measured against another beta's load would be wrong, so
    recover refuses the case, naming both values."""
    g = np.zeros(small_problem.partition.trace.n_slots)
    with pytest.raises(ValueError, match=r"beta=4\.0, the config has beta=1\.0"):
        small_problem.recover(g, verify.manufactured_case(4.0))


def test_run_richardson_refuses_a_case_for_another_beta_before_setup(monkeypatch):
    """The beta check runs before `build_problem`: a spy on it records no
    call, where the check in `recover` alone came after every step."""
    calls = []
    build = iteration.build_problem

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(iteration, "build_problem", spy)
    cfg = iteration.IterationConfig(N=4, ratio=8, beta=4.0)
    with pytest.raises(ValueError, match=r"beta=1\.0, the config has beta=4\.0"):
        iteration.run_richardson(cfg, verify.manufactured_case())
    assert calls == []


def test_zero_load_zero_start_is_stationary(case):
    cfg = iteration.IterationConfig(N=2, ratio=4)
    problem = iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))
    assert iteration.fixed_point_check(problem, np.zeros(problem.mesh.n_edges)) == 0.0
    rep = iteration.run_richardson(
        cfg, verify.ManufacturedCase(load=lambda x, y: (0.0 * x, 0.0 * y)))
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.u_h, 0.0, atol=1e-16)


def test_update_map_is_affine(case, rng):
    """Differences of loaded iterates propagate through Q, the dense
    matrix of the zero-load relaxed step."""
    cfg = iteration.IterationConfig(N=2, ratio=4)
    problem = iteration.build_problem(cfg, case.load)
    zero = iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))
    n = problem.partition.trace.n_slots
    Q = apply_to_identity(lambda e: relaxed_step(zero, e, cfg.theta), n)
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    lhs = relaxed_step(problem, g1, cfg.theta) - relaxed_step(problem, g2, cfg.theta)
    rhs = Q @ (g1 - g2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_baseline_slower_than_constrained(case):
    cfg = iteration.IterationConfig(N=4, ratio=8, constrained=False)
    rep = iteration.run_richardson(cfg, case)
    assert rep.converged
    assert rep.iterations == BASELINE_N4_R8
    assert rep.iterations > RICHARDSON_N4_R8[("h", 0.5)]
    # the baseline still converges to the same discrete solution
    assert rep.l2_error == pytest.approx(7.366415e-3, rel=1e-3)


def test_baseline_single_subdomain_matches_richardson(case):
    cfg = iteration.IterationConfig(N=1, ratio=4)
    a = iteration.run_richardson(replace(cfg, constrained=False), case)
    b = iteration.run_richardson(cfg, case)
    assert a.iterations == b.iterations == 1
    np.testing.assert_allclose(a.u_h, b.u_h, atol=1e-14)


def test_report_solution_assembly(case, problem_n4):
    rep = iteration.run_richardson(problem_n4.config, case)
    assert rep.u_h.shape == (problem_n4.mesh.n_edges,)
    np.testing.assert_allclose(rep.u_h[boundary_edges(problem_n4.mesh.m)], 0.0,
                               atol=1e-16)


def _per_step_richardson(problem):
    """Reference iteration: one constrained solve per step, then the
    exchange and the relaxation.  Returns (steps, g, u_h)."""
    cfg = problem.config
    trace = problem.partition.trace
    g = np.zeros(trace.n_slots)
    for step in range(1, cfg.max_iter + 1):
        u_int, u_trace, _ = problem.solver.solve(problem.condensed_loads, g)
        g_tilde = (2.0 * problem.gamma * u_trace - g)[trace.pair_perm]
        inc = np.abs(g_tilde - g).max()
        g = cfg.theta * g_tilde + (1.0 - cfg.theta) * g
        if inc < cfg.tol:
            return step, g, iteration.assemble_solution(problem, u_int, u_trace)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("N,ratio", [(4, 8), (2, 32), (2, 1), (3, 1)])
def test_trace_maps_match_per_step_solves(case, N, ratio):
    """The precomputed Robin-to-trace maps reproduce the per-step solves.

    (2, 1) and (3, 1) put one mesh cell in each subdomain, which gives the
    factorization its smallest inputs: Robin blocks of 3 to 5 dofs and
    coarse Schur complements of 4 and 12 rows.
    """
    cfg = iteration.IterationConfig(N=N, ratio=ratio)
    problem = iteration.build_problem(cfg, case.load)
    steps, g_ref, u_ref = _per_step_richardson(problem)
    rep = iteration.run_richardson(cfg, case)
    assert rep.converged
    assert rep.iterations == steps
    assert np.abs(rep.g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    np.testing.assert_allclose(rep.u_h, u_ref, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("N,ratio,theta", [(4, 8, 0.5), (3, 4, 0.7), (2, 2, 1.0)])
def test_in_place_step_and_run_match_temporaries(case, N, ratio, theta):
    """`step` works in place on the u it owns and `_run` keeps the
    increment and the relaxation in two workspaces; both give bitwise the
    histories and datum of the same expressions formed with temporaries,
    and `step` writes neither g nor u_load."""
    cfg = iteration.IterationConfig(N=N, ratio=ratio, theta=theta)
    problem = iteration.build_problem(cfg, case.load)
    u_load = problem.load_trace()
    g = np.random.default_rng(N).standard_normal(u_load.size)
    g_in, u_load_in = g.copy(), u_load.copy()
    stepped = problem.step(g, u_load)
    u = problem.solver.apply_resolvent(problem.mesh.h * g) + u_load
    assert np.array_equal(stepped, problem.exchange(g, u))
    assert np.array_equal(g, g_in) and np.array_equal(u_load, u_load_in)

    history, g = [], np.zeros(u_load.size)
    for _ in range(cfg.max_iter):
        u = problem.solver.apply_resolvent(problem.mesh.h * g) + u_load
        g_tilde = problem.exchange(g, u)
        history.append(float(np.abs(g_tilde - g).max()))
        g = cfg.theta * g_tilde + (1.0 - cfg.theta) * g
        if history[-1] < cfg.tol:
            break
    rep = iteration.run_richardson(cfg, case)
    assert np.array_equal(rep.increment_history, history)
    assert np.array_equal(rep.g, g)


def test_nonfinite_increment_stops_run(case, monkeypatch):
    def poisoned(self, rhs):
        return np.full(np.shape(rhs), np.nan)

    monkeypatch.setattr(
        local_solver.ConstrainedRobinSolver, "apply_resolvent", poisoned
    )
    rep = iteration.run_richardson(iteration.IterationConfig(N=2, ratio=4), case)
    assert not rep.converged
    assert rep.iterations == 1
    assert np.isnan(rep.increment_history[-1])
