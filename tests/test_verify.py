"""Tests for the manufactured case and the direct reference solve."""

import numpy as np
import pytest

from helpers import direct_errors, interpolate
from rr_hdiv import fem, iteration, verify
from rr_hdiv.mesh import build_unit_square_mesh

DIRECT_ERRORS = {
    32: (7.366414908e-3, 2.655759280e-2),
    64: (3.682937731e-3, 1.327872159e-2),
}


def _fd_div(u, x, y, h=1e-6):
    ux_p, _ = u(x + h, y)
    ux_m, _ = u(x - h, y)
    _, uy_p = u(x, y + h)
    _, uy_m = u(x, y - h)
    return (ux_p - ux_m + uy_p - uy_m) / (2.0 * h)


def test_case_divergence_identity(case, rng):
    x, y = rng.uniform(0.05, 0.95, size=(2, 40))
    np.testing.assert_allclose(case.div_u(x, y), _fd_div(case.u, x, y), atol=1e-6)


def test_case_load_identity(case, rng):
    """load = u - grad(div u), checked by finite differences."""
    x, y = rng.uniform(0.05, 0.95, size=(2, 40))
    h = 1e-6
    gx = (case.div_u(x + h, y) - case.div_u(x - h, y)) / (2.0 * h)
    gy = (case.div_u(x, y + h) - case.div_u(x, y - h)) / (2.0 * h)
    ux, uy = case.u(x, y)
    fx, fy = case.load(x, y)
    np.testing.assert_allclose(fx, ux - gx, atol=1e-6)
    np.testing.assert_allclose(fy, uy - gy, atol=1e-6)
    assert case.beta == 1.0


@pytest.mark.parametrize("beta", [0.5, 4.0])
def test_case_load_identity_for_beta(rng, beta):
    """The case made for beta has load = beta u - grad(div u)."""
    case = verify.manufactured_case(beta)
    x, y = rng.uniform(0.05, 0.95, size=(2, 40))
    h = 1e-6
    gx = (case.div_u(x + h, y) - case.div_u(x - h, y)) / (2.0 * h)
    gy = (case.div_u(x, y + h) - case.div_u(x, y - h)) / (2.0 * h)
    ux, uy = case.u(x, y)
    fx, fy = case.load(x, y)
    np.testing.assert_allclose(fx, beta * ux - gx, atol=1e-6)
    np.testing.assert_allclose(fy, beta * uy - gy, atol=1e-6)
    assert case.beta == beta


def test_case_load_at_beta_one_is_bitwise_the_quadratic_load(case, rng):
    """At beta = 1 the load is bitwise 2 + x - x^2, so no pinned figure moves."""
    x, y = rng.uniform(0.0, 1.0, size=(2, 100_000))
    fx, fy = case.load(x, y)
    assert np.array_equal(fx, 2.0 + x - x * x)
    assert np.array_equal(fy, 2.0 + y - y * y)


def test_case_normal_trace_vanishes(case, rng):
    t = rng.uniform(0.0, 1.0, size=25)
    for x, y, comp in (
        (np.zeros_like(t), t, 0),
        (np.ones_like(t), t, 0),
        (t, np.zeros_like(t), 1),
        (t, np.ones_like(t), 1),
    ):
        np.testing.assert_allclose(case.u(x, y)[comp], 0.0, atol=1e-15)


def test_solve_global_zero_load(mesh8):
    u = verify.solve_global(mesh8, 1.0, lambda x, y: (0.0 * x, 0.0 * y))
    assert u.shape == (mesh8.n_edges,)
    np.testing.assert_allclose(u, 0.0, atol=1e-15)


def test_solve_global_refuses_large_mesh(case):
    with pytest.raises(ValueError, match="512"):
        verify.solve_global(build_unit_square_mesh(513), 1.0, case.load)


@pytest.mark.parametrize("m", [32, 64])
def test_direct_errors_frozen(m):
    l2, hdiv = direct_errors(m)
    assert l2 == pytest.approx(DIRECT_ERRORS[m][0], rel=1e-6)
    assert hdiv == pytest.approx(DIRECT_ERRORS[m][1], rel=1e-6)


def test_direct_errors_halve_with_resolution():
    for col in (0, 1):
        ratio = DIRECT_ERRORS[32][col] / DIRECT_ERRORS[64][col]
        assert 1.90 <= ratio <= 2.10
    l2_16, hdiv_16 = direct_errors(16)
    l2_32, hdiv_32 = direct_errors(32)
    assert 1.90 <= l2_16 / l2_32 <= 2.10
    assert 1.90 <= hdiv_16 / hdiv_32 <= 2.10


def test_direct_solve_is_energy_optimal(case, mesh32, oracle32):
    """The solve cannot lose to interpolation in the graph norm."""
    u_i = interpolate(mesh32, case.u)
    _, hdiv_h = fem.error_norms(mesh32, oracle32, case.u, case.div_u)
    _, hdiv_i = fem.error_norms(mesh32, u_i, case.u, case.div_u)
    assert hdiv_h <= hdiv_i * (1.0 + 1e-12)


def test_fixed_point_g_zero_without_load():
    cfg = iteration.IterationConfig(N=4, ratio=8)
    problem = iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))
    g = verify.fixed_point_g(problem, np.zeros(problem.mesh.n_edges))
    assert g.shape == (problem.partition.trace.n_slots,)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_fixed_point_g_side_sum(problem_n4, oracle32):
    """At the true field the natural fluxes cancel across each interface:
    g_i + g_j reduces to twice the penalty term."""
    trace = problem_n4.partition.trace
    g = verify.fixed_point_g(problem_n4, oracle32)
    lhs = g + g[trace.pair_perm]
    rhs = 2.0 * problem_n4.gamma * oracle32[trace.slot_edge]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_fixed_point_g_matches_gamma_rules(case, oracle32):
    """The datum depends on gamma only through the penalty term."""
    cfg_h = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h")
    cfg_H = iteration.IterationConfig(N=4, ratio=8, gamma_rule="H")
    p_h = iteration.build_problem(cfg_h, case.load)
    p_H = iteration.build_problem(cfg_H, case.load)
    g_h = verify.fixed_point_g(p_h, oracle32)
    g_H = verify.fixed_point_g(p_H, oracle32)
    trace = p_h.partition.trace
    diff = g_H - g_h
    expect = (p_H.gamma - p_h.gamma) * oracle32[trace.slot_edge]
    np.testing.assert_allclose(diff, expect, atol=1e-12)
