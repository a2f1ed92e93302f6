"""Tests for the matrix-free iteration map and its contraction modulus,
by Arnoldi on ker B, against the dense Q of `helpers`."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from rr_hdiv import iteration, spectrum

from helpers import apply_to_identity, relaxed_step

GAMMA_H_N4_R8 = {"dim": 384, "unit_count": 24, "contraction_modulus": 0.9954515211122997}
GAMMA_H_N4_R4 = {"dim": 192, "unit_count": 24, "contraction_modulus": 0.9909238563293432}
CONTRACTION_HALF_N4_R8 = 0.792421437

# The moduli of the dense eigensolve on the four symmetry blocks of Q
# that this Arnoldi solve replaced, (N, r, theta) -> modulus.
DENSE_BLOCKED_MODULI = {
    (4, 8, 1 / 2): 0.7924214371417962,
    (8, 8, 1 / 2): 0.7979193672582583,
    (8, 8, 2 / 3): 0.7305591563443348,
    (6, 4, 1 / 2): 0.6666720243904302,
    (8, 8, 1.0): 0.9989860473607133,
    (12, 8, 1.0): 0.9995586808778774,
}


@pytest.fixture(scope="module")
def op_n4r8():
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h", theta=1.0)
    return spectrum.assemble_Q(cfg)


@pytest.fixture(scope="module")
def report_n4r8(op_n4r8):
    return spectrum.eigenvalues(op_n4r8)


def zero_problem(cfg):
    return iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))


@functools.lru_cache(maxsize=None)
def dense_E(N, r):
    """The unrelaxed map E of (N, r), gamma = h, as a dense matrix, one
    zero-load step per column (`helpers.relaxed_step`), with its B."""
    zero = zero_problem(iteration.IterationConfig(N=N, ratio=r))
    E = apply_to_identity(lambda e: relaxed_step(zero, e, 1.0),
                          zero.partition.trace.n_slots)
    return E, zero.B


def dense_Q(cfg):
    """Q = theta E + (1 - theta) I of `cfg` as a dense matrix."""
    E = dense_E(cfg.N, cfg.ratio)[0]
    return cfg.theta * E + (1.0 - cfg.theta) * np.eye(E.shape[0])


def dense_modulus(Q, theta, unit_count):
    """Largest modulus of np.linalg.eigvals(Q) off 1, after checking that
    exactly unit_count eigenvalues lie within theta 1e-6 of 1."""
    lam = np.linalg.eigvals(Q)
    unit = np.abs(lam - 1.0) < theta * 1e-6
    assert np.count_nonzero(unit) == unit_count
    return np.abs(lam[~unit]).max()


@pytest.fixture(scope="module")
def dense_n4r8(op_n4r8):
    return dense_Q(op_n4r8.config)


def test_dimensions():
    for N, r in ((4, 4), (4, 8), (2, 4)):
        cfg = iteration.IterationConfig(N=N, ratio=r)
        op = spectrum.assemble_Q(cfg)
        n = 4 * N * (N - 1) * r
        assert op.Q.shape == (n, n)
        assert op.dim == n
        assert op.B.shape == (2 * N * (N - 1), n)


def test_unconstrained_config_refused():
    cfg = iteration.IterationConfig(N=2, ratio=4, constrained=False)
    with pytest.raises(ValueError, match="constrained"):
        spectrum.assemble_Q(cfg)


def test_single_subdomain_is_empty(monkeypatch):
    """N=1 has no trace: modulus 0, without an Arnoldi solve."""
    monkeypatch.setattr(spectrum, "eigs", None)
    cfg = iteration.IterationConfig(N=1, ratio=8)
    op = spectrum.assemble_Q(cfg)
    assert op.Q.shape == (0, 0)
    rep = spectrum.eigenvalues(op)
    assert rep.dim == 0
    assert rep.unit_count == 0
    assert rep.contraction_modulus() == 0.0


def test_matrix_matches_one_homogeneous_step(case):
    """Columns of Q must reproduce the zero-load relaxed update."""
    cfg = iteration.IterationConfig(N=2, ratio=4, gamma_rule="h", theta=2 / 3)
    zero = zero_problem(cfg)
    op = spectrum.assemble_Q(cfg)
    rng = np.random.default_rng(20260821)
    for _ in range(3):
        g = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            op.Q @ g, relaxed_step(zero, g, cfg.theta), atol=1e-10
        )


def test_explicit_problem_matches_internal():
    """The Q of the problem that `assemble_Q` builds is the relaxed step
    of one built here, column by column (`dense_Q`)."""
    cfg = iteration.IterationConfig(N=2, ratio=4)
    op = spectrum.assemble_Q(cfg)
    np.testing.assert_allclose(op.Q @ np.eye(op.dim), dense_Q(cfg), atol=1e-14)


@pytest.fixture(scope="module")
def zero_n8r8():
    return zero_problem(iteration.IterationConfig(N=8, ratio=8))


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_in_place_combine_matches_formula(zero_n8r8, theta):
    """Q applied to a block of unit and random columns, combined in place,
    equals theta * step(W) + (1 - theta) * W formed with temporaries
    (N=8, r=8), bitwise."""
    cfg = iteration.IterationConfig(N=8, ratio=8, theta=theta)
    op = spectrum.assemble_Q(cfg)
    rng = np.random.default_rng(20260821)
    W = np.hstack([np.eye(op.dim)[:, ::97], rng.standard_normal((op.dim, 5))])
    expect = theta * zero_n8r8.step(W) + (1.0 - theta) * W
    assert np.array_equal(op.Q @ W, expect)


@pytest.mark.parametrize("theta", [1.0, 2 / 3])
@pytest.mark.parametrize("N,r", [(2, 4), (3, 4), (4, 8)])
def test_blocked_spectrum_matches_dense(N, r, theta):
    """The Arnoldi modulus is that of all of Q, from np.linalg.eigvals,
    to 1e-8, and the unit count is the dense one.

    N=3 has a centre subdomain that both symmetries map to itself.
    """
    cfg = iteration.IterationConfig(N=N, ratio=r, theta=theta)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    assert rep.unit_count == 2 * N * (N - 1)
    expect = dense_modulus(dense_Q(cfg), theta, rep.unit_count)
    assert abs(rep.contraction_modulus() - expect) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(N=st.integers(2, 5), r=st.integers(1, 6), theta=st.floats(1e-3, 1.0))
def test_block_eigenvalues_match_dense_eigvals(N, r, theta):
    """The Arnoldi modulus is the largest modulus of np.linalg.eigvals of
    the dense Q off its unit eigenvalues, to 1e-8, and those number
    exactly B's rows, one per interface, 2 N (N - 1).

    theta stays above 1e-3: for these N and r every other eigenvalue of Q
    lies at least 0.51 theta from 1 (measured over the grid at theta=1),
    far outside the theta 1e-6 that counts an eigenvalue as unit.
    """
    cfg = iteration.IterationConfig(N=N, ratio=r, theta=theta)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    assert rep.unit_count == 2 * N * (N - 1)
    expect = dense_modulus(dense_Q(cfg), theta, rep.unit_count)
    assert abs(rep.contraction_modulus() - expect) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(N=st.integers(2, 5), r=st.integers(1, 6), theta=st.floats(1e-3, 1.0))
def test_unit_eigenspaces_are_span_BT(N, r, theta):
    """The premise of the Arnoldi solve, on the dense Q: Q B^T = B^T and
    B Q = B to 1e-12 relative (measured: 6.7e-16 over the grid), and Q has
    exactly B.shape[0] eigenvalues within theta 1e-6 of 1."""
    Q = dense_Q(iteration.IterationConfig(N=N, ratio=r, theta=theta))
    B = dense_E(N, r)[1].toarray()
    assert np.abs(Q @ B.T - B.T).max() <= 1e-12 * np.abs(B).max()
    assert np.abs(B @ Q - B).max() <= 1e-12 * np.abs(B).max()
    dense_modulus(Q, theta, B.shape[0])


@pytest.mark.parametrize("N,r,theta", list(DENSE_BLOCKED_MODULI))
def test_modulus_matches_the_dense_blocked_solve(N, r, theta):
    cfg = iteration.IterationConfig(N=N, ratio=r, theta=theta)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    assert rep.unit_count == 2 * N * (N - 1)
    assert abs(rep.contraction_modulus() - DENSE_BLOCKED_MODULI[N, r, theta]) <= 1e-8


def test_eigenvalues_hold_no_dense_matrix():
    """At N=8, r=8 (dim 1792) the check and the Arnoldi solve peak below
    3 NCV trace vectors, 1.6 MiB traced; they measured 0.81 MiB, about 60
    trace vectors, where the dense Q alone would take 24.5 MiB."""
    op = spectrum.assemble_Q(iteration.IterationConfig(N=8, ratio=8, theta=1.0))
    tracemalloc.start()
    try:
        rep = spectrum.eigenvalues(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == 1792
    assert peak <= 3 * spectrum.NCV * rep.dim * 8


def test_perturbed_Q_refused(op_n4r8, dense_n4r8):
    """A Q that moves span(B^T) or breaks B Q = B is refused, naming the
    identity it breaks and the defect, before any Arnoldi step.

    A 1e-6 perturbation of one column of Q in the support of B moves
    B^T x.  A rank-one term u w^T with w in ker B leaves Q B^T = B^T and
    breaks B Q = B alone.  A NaN fails too.
    """
    B = op_n4r8.B
    slot = B[5].indices[0]
    w = np.random.default_rng(1).standard_normal(op_n4r8.dim)
    w -= B.T @ ((B @ w) / np.asarray(B.multiply(B).sum(axis=1)).ravel())
    moved = dense_n4r8.copy()
    moved[:, slot] += 1e-6
    kept = dense_n4r8 + 1e-6 * np.outer(np.eye(op_n4r8.dim)[slot], w)
    nan = dense_n4r8.copy()
    nan[3, 40] = np.nan
    for Q, match in ((moved, r"breaks Q B\^T x = B\^T x: relative defect \S+ > 1e-10"),
                     (kept, r"breaks B Q v = B v: relative defect"),
                     (nan, r"for N=4 r=8 breaks Q B\^T x = B\^T x: relative defect nan")):
        bad = spectrum.IterationOperator(Q, op_n4r8.config, B)
        with pytest.raises(RuntimeError, match=match):
            spectrum.eigenvalues(bad)


def test_arnoldi_failure_names_the_config(op_n4r8, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spectrum, "eigs", no_convergence)
    with pytest.raises(RuntimeError, match="^Arnoldi did not converge for N=4 r=8 "
                                           "gamma=h theta=1.0$"):
        spectrum.eigenvalues(op_n4r8)


def test_unit_eigenvalue_multiplicity(report_n4r8):
    """Constant-jump directions give exactly one unit pair per interface."""
    assert report_n4r8.unit_count == 2 * 4 * (4 - 1)


def test_frozen_summary_n4_r8(report_n4r8):
    rep = report_n4r8
    assert rep.dim == GAMMA_H_N4_R8["dim"]
    assert rep.unit_count == GAMMA_H_N4_R8["unit_count"]
    assert abs(rep.contraction_modulus() - GAMMA_H_N4_R8["contraction_modulus"]) <= 1e-8


def test_frozen_summary_n4_r4():
    cfg = iteration.IterationConfig(N=4, ratio=4, gamma_rule="h", theta=1.0)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    assert rep.dim == GAMMA_H_N4_R4["dim"]
    assert rep.unit_count == GAMMA_H_N4_R4["unit_count"]
    assert abs(rep.contraction_modulus() - GAMMA_H_N4_R4["contraction_modulus"]) <= 1e-8


def test_relaxation_maps_spectrum(op_n4r8, dense_n4r8):
    """theta-relaxed eigenvalues are the affine image (1-theta) + theta lam,
    so the modulus at theta = 1/2 is the largest |1 + lam| / 2 over the
    eigenvalues lam of E off 1."""
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h", theta=0.5)
    op_half = spectrum.assemble_Q(cfg)
    eye = np.eye(op_n4r8.dim)
    np.testing.assert_allclose(op_half.Q @ eye, 0.5 * (eye + dense_n4r8), atol=1e-13)
    lam = np.linalg.eigvals(dense_n4r8)
    mapped = np.abs(1.0 + lam[np.abs(lam - 1.0) > 1e-6]) / 2
    rho = spectrum.eigenvalues(op_half).contraction_modulus()
    assert abs(rho - mapped.max()) <= 1e-8
    assert rho == pytest.approx(CONTRACTION_HALF_N4_R8, rel=1e-6)
    assert rho < 1.0


def test_report_methods_on_known_matrix():
    """A diagonal Q whose unit directions are B's rows: the modulus is
    the largest other |entry|, and the unit count B's row count."""
    op = spectrum.IterationOperator(
        Q=np.diag([0.3, -0.5, 1.0, 0.2, 1.0, 0.1]),
        config=iteration.IterationConfig(N=2, ratio=1, theta=1.0),
        B=sp.csr_matrix(([1.0, 2.0], ([0, 1], [2, 4])), shape=(2, 6)),
    )
    rep = spectrum.eigenvalues(op)
    assert rep.dim == 6
    assert rep.unit_count == 2
    assert rep.contraction_modulus() == pytest.approx(0.5, abs=1e-12)

