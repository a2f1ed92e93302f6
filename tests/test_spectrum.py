"""Tests for the matrix-free iteration map and its eigenvalues, solved
one symmetry block at a time."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard
from scipy.optimize import linear_sum_assignment

from rr_hdiv import iteration, spectrum
from rr_hdiv.spectrum import COLUMN_BLOCK

from helpers import apply_to_identity, relaxed_step

GAMMA_H_N4_R8 = {
    "dim": 384,
    "max_real_below_unit": 5.848428742836e-01,
    "unit_count": 24,
    "max_nonreal_modulus": 3.171007032363e-01,
}
GAMMA_H_N4_R4 = {
    "dim": 192,
    "max_real_below_unit": 3.333574394440e-01,
    "unit_count": 24,
    "max_nonreal_modulus": 3.137669090654e-01,
}
CONTRACTION_HALF_N4_R8 = 0.792421437


@pytest.fixture(scope="module")
def op_n4r8():
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h", theta=1.0)
    return spectrum.assemble_Q(cfg)


@pytest.fixture(scope="module")
def report_n4r8(op_n4r8):
    return spectrum.eigenvalues(op_n4r8)


def zero_problem(cfg):
    return iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))


def dense_Q(cfg):
    """Q of `cfg` as a dense matrix, one relaxed zero-load step per
    column (`helpers.relaxed_step`)."""
    zero = zero_problem(cfg)
    return apply_to_identity(
        lambda e: relaxed_step(zero, e, cfg.theta), zero.partition.trace.n_slots
    )


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


def test_size_cap_refused():
    cfg = iteration.IterationConfig(N=16, ratio=8)
    assert 4 * 16 * 15 * 8 > spectrum.SIZE_CAP
    with pytest.raises(ValueError, match="cap"):
        spectrum.assemble_Q(cfg)


def test_unconstrained_config_refused():
    cfg = iteration.IterationConfig(N=2, ratio=4, constrained=False)
    with pytest.raises(ValueError, match="constrained"):
        spectrum.assemble_Q(cfg)


def test_single_subdomain_is_empty():
    cfg = iteration.IterationConfig(N=1, ratio=8)
    op = spectrum.assemble_Q(cfg)
    assert op.Q.shape == (0, 0)
    rep = spectrum.eigenvalues(op)
    assert rep.dim == 0
    assert rep.unit_count == 0
    assert rep.contraction_modulus() == 0.0
    assert rep.max_real_below_unit() == float("-inf")


def test_matrix_matches_one_homogeneous_step(case):
    """Columns of Q must reproduce the zero-load relaxed update."""
    cfg = iteration.IterationConfig(N=2, ratio=4, gamma_rule="h", theta=2 / 3)
    zero = iteration.build_problem(cfg, lambda x, y: (0.0 * x, 0.0 * y))
    op = spectrum.assemble_Q(cfg, problem=zero)
    rng = np.random.default_rng(20260821)
    for _ in range(3):
        g = rng.standard_normal(op.dim)
        np.testing.assert_allclose(
            op.Q @ g, relaxed_step(zero, g, cfg.theta), atol=1e-10
        )


def test_explicit_problem_matches_internal():
    cfg = iteration.IterationConfig(N=2, ratio=4)
    a = spectrum.assemble_Q(cfg, problem=zero_problem(cfg))
    b = spectrum.assemble_Q(cfg)
    eye = np.eye(a.dim)
    np.testing.assert_allclose(a.Q @ eye, b.Q @ eye, atol=1e-14)


@pytest.fixture(scope="module")
def zero_n8r8():
    return zero_problem(iteration.IterationConfig(N=8, ratio=8))


def test_spectrum_holds_a_panel_and_a_few_column_blocks(zero_n8r8):
    """At N=8, r=8 (dim 1792) the whole spectrum, from the zero-load
    problem, peaks below one n x n/4 panel plus six n x COLUMN_BLOCK
    blocks, 27.1 MiB; it measured 19.1 MiB, against 44.4 MiB when Q was
    assembled dense (Q alone is 24.5 MiB)."""
    cfg = iteration.IterationConfig(N=8, ratio=8, theta=1.0)
    n = 1792
    tracemalloc.start()
    try:
        rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg, problem=zero_n8r8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == n
    assert peak <= (n * n // 4 + 6 * n * COLUMN_BLOCK) * 8


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_in_place_combine_matches_formula(zero_n8r8, theta):
    """Q applied to the chi-symmetric columns W of `spectrum._products`, in
    blocks of COLUMN_BLOCK and combined in place, equals
    theta * step(W) + (1 - theta) * W formed with temporaries (N=8, r=8),
    bitwise."""
    cfg = iteration.IterationConfig(N=8, ratio=8, theta=theta)
    op = spectrum.assemble_Q(cfg, problem=zero_n8r8)
    g, k = op.orbits.shape
    for chi in hadamard(g):
        for j in range(0, k, COLUMN_BLOCK):
            cols = np.arange(min(COLUMN_BLOCK, k - j))
            W = np.zeros((op.dim, cols.size))
            W[op.orbits[:, j + cols], cols] = chi[:, None]
            expect = theta * zero_n8r8.step(W) + (1.0 - theta) * W
            assert np.array_equal(op.Q @ W, expect)


@pytest.mark.parametrize("theta", [1.0, 2 / 3])
@pytest.mark.parametrize("N,r", [(2, 4), (3, 4), (4, 8)])
def test_blocked_spectrum_matches_dense(N, r, theta):
    """The four symmetry blocks give the eigenvalues of all of Q.

    N=3 has a centre subdomain that both symmetries map to itself.
    """
    cfg = iteration.IterationConfig(N=N, ratio=r, theta=theta)
    op = spectrum.assemble_Q(cfg)
    rep = spectrum.eigenvalues(op)
    n = op.dim
    assert op.orbits.shape == (4, n // 4)
    assert rep.blocks == (n // 4,) * 4
    Q = dense_Q(cfg)
    dense = spectrum.eigenvalues(spectrum.IterationOperator(Q, cfg))
    assert dense.blocks == (n,)
    expect = np.linalg.eigvals(Q)
    expect = expect[np.lexsort((expect.imag, expect.real))]
    np.testing.assert_allclose(rep.eigenvalues, expect, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dense.eigenvalues, expect, rtol=0, atol=1e-10)
    assert rep.unit_count == dense.unit_count == 4 * N * (N - 1) // 2
    assert rep.contraction_modulus() == pytest.approx(
        dense.contraction_modulus(), rel=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(N=st.integers(2, 5), r=st.integers(1, 6), theta=st.floats(1e-3, 1.0))
def test_block_eigenvalues_match_dense_eigvals(N, r, theta):
    """The four blocks' eigenvalues are np.linalg.eigvals of the dense Q
    to 1e-10, matched one to one, and the unit eigenvalue has one pair per
    interface, 2 N (N - 1).

    theta stays above 1e-3, where an absolute 1e-10 is still well below
    the 0.51 theta that, for these N and r, every other eigenvalue of Q
    lies from 1 (measured at theta=1).  The unit test itself scales with
    theta (`spectrum.unit_tol`).
    """
    cfg = iteration.IterationConfig(N=N, ratio=r, theta=theta)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    expect = np.linalg.eigvals(dense_Q(cfg))
    assert rep.blocks == (expect.size // 4,) * 4
    gap = np.abs(rep.eigenvalues[:, None] - expect[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert gap[rows, cols].max() <= 1e-10
    assert rep.unit_count == 2 * N * (N - 1)


def test_symmetry_blocks_are_conjugates_of_Q(op_n4r8, dense_n4r8):
    """V^T Q V is block diagonal with the blocks, for V orthogonal."""
    orbits = op_n4r8.orbits
    g, k = orbits.shape
    V = np.zeros((op_n4r8.dim, op_n4r8.dim))
    chars = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    for chi in range(g):
        for a in range(g):
            V[orbits[a], chi * k + np.arange(k)] = chars[chi, a] / 2.0
    np.testing.assert_allclose(V.T @ V, np.eye(op_n4r8.dim), atol=1e-15)
    expect = np.zeros_like(V)
    blocks = list(spectrum._blocks(op_n4r8))
    assert len(blocks) == g
    for chi, block in enumerate(blocks):
        expect[chi * k:(chi + 1) * k, chi * k:(chi + 1) * k] = block
    np.testing.assert_allclose(V.T @ dense_n4r8 @ V, expect, atol=1e-12)


def test_perturbed_Q_refused(op_n4r8, dense_n4r8):
    """A Q that breaks the symmetry is refused, not split into wrong blocks;
    the error names the first group element that finds it and the defect.

    Entries (3, 40) lie in orbit row 0 of the table and the last row of Q
    in orbit row 1, so element 1 finds both.  The third perturbation is
    kept by the half-turn, so element 2, the reflection, finds it; the
    fourth touches only orbit row 3, which element 3 checks.
    """
    orbits = op_n4r8.orbits
    half = np.empty(op_n4r8.dim, dtype=np.int64)
    half[orbits] = orbits[[1, 0, 3, 2]]
    cases = [
        ([(3, 40)], "element 1, the half-turn:"),
        ([(-1, 5)], "= 1.000e-06 >"),
        ([(3, 40), (half[3], half[40])], "element 2, the reflection x <-> y:"),
        ([(orbits[3, 0], orbits[3, 1])],
         "element 3, the half-turn times the reflection x <-> y:"),
    ]
    for entries, match in cases:
        Q = dense_n4r8.copy()
        for i, j in entries:
            Q[i, j] += 1e-6
        bad = spectrum.IterationOperator(Q, op_n4r8.config, orbits=orbits)
        with pytest.raises(RuntimeError, match=match):
            spectrum.eigenvalues(bad)
    Q[3, 40] = np.nan
    with pytest.raises(RuntimeError, match="not invariant"):
        spectrum.eigenvalues(bad)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4, 1)])
def test_orbit_table_must_fit(shape):
    with pytest.raises(ValueError, match="orbit table"):
        spectrum.IterationOperator(
            np.eye(6), iteration.IterationConfig(N=2, ratio=1, theta=1.0),
            orbits=np.arange(np.prod(shape)).reshape(shape),
        )


def test_unit_eigenvalue_multiplicity(report_n4r8):
    """Constant-jump directions give exactly one unit pair per interface."""
    assert report_n4r8.unit_count == 2 * 4 * (4 - 1)


def test_frozen_summary_n4_r8(report_n4r8):
    rep = report_n4r8
    assert rep.dim == GAMMA_H_N4_R8["dim"]
    assert rep.max_real_below_unit() == pytest.approx(
        GAMMA_H_N4_R8["max_real_below_unit"], rel=1e-6
    )
    assert rep.max_nonreal_modulus == pytest.approx(
        GAMMA_H_N4_R8["max_nonreal_modulus"], rel=1e-6
    )


def test_frozen_summary_n4_r4():
    cfg = iteration.IterationConfig(N=4, ratio=4, gamma_rule="h", theta=1.0)
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    assert rep.dim == GAMMA_H_N4_R4["dim"]
    assert rep.unit_count == GAMMA_H_N4_R4["unit_count"]
    assert rep.max_real_below_unit() == pytest.approx(
        GAMMA_H_N4_R4["max_real_below_unit"], rel=1e-6
    )
    assert rep.max_nonreal_modulus == pytest.approx(
        GAMMA_H_N4_R4["max_nonreal_modulus"], rel=1e-6
    )


def test_spectrum_closed_under_conjugation(report_n4r8):
    eigs = report_n4r8.eigenvalues
    nonreal = eigs[np.abs(eigs.imag) > 1e-9]
    for lam in nonreal:
        assert np.abs(eigs - np.conj(lam)).min() < 1e-10


def test_sorted_by_real_then_imag(report_n4r8):
    eigs = report_n4r8.eigenvalues
    key = np.lexsort((eigs.imag, eigs.real))
    assert np.array_equal(key, np.arange(eigs.size))


def test_relaxation_maps_spectrum(op_n4r8, report_n4r8, dense_n4r8):
    """theta-relaxed eigenvalues are the affine image (1-theta) + theta lam."""
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h", theta=0.5)
    op_half = spectrum.assemble_Q(cfg)
    eye = np.eye(op_n4r8.dim)
    expect = 0.5 * (eye + dense_n4r8)
    np.testing.assert_allclose(op_half.Q @ eye, expect, atol=1e-13)
    rep_half = spectrum.eigenvalues(op_half)
    mapped = 0.5 * (1.0 + report_n4r8.eigenvalues)
    for lam in mapped:
        assert np.abs(rep_half.eigenvalues - lam).min() < 1e-8
    assert rep_half.contraction_modulus() == pytest.approx(
        CONTRACTION_HALF_N4_R8, rel=1e-6
    )
    assert rep_half.contraction_modulus() < 1.0


def test_report_methods_on_known_matrix():
    op = spectrum.IterationOperator(
        Q=np.diag([0.3, 1.0]),
        config=iteration.IterationConfig(N=2, ratio=1, theta=1.0),
    )
    rep = spectrum.eigenvalues(op)
    np.testing.assert_allclose(np.sort(rep.eigenvalues.real), [0.3, 1.0])
    assert rep.blocks == (2,)
    assert rep.unit_count == 1
    assert rep.contraction_modulus() == pytest.approx(0.3)
    assert rep.max_real_below_unit() == pytest.approx(0.3)
    assert rep.max_nonreal_modulus == 0.0


def test_filenames():
    def rep(**kw):
        config = iteration.IterationConfig(N=4, ratio=8, theta=1.0)
        return spectrum.SpectrumReport(
            eigenvalues=np.zeros(0, dtype=complex),
            config=dataclasses.replace(config, **kw),
            max_nonreal_modulus=0.0,
            unit_count=0,
        )

    assert spectrum.spectrum_filename(rep()) == "spectrum_N4_r8_gammah_theta1.csv"
    assert (
        spectrum.spectrum_filename(rep(theta=0.5))
        == "spectrum_N4_r8_gammah_theta0.5.csv"
    )
    assert (
        spectrum.spectrum_filename(rep(gamma_rule=0.25))
        == "spectrum_N4_r8_gamma0.25_theta1.csv"
    )


def test_export_format_and_determinism(report_n4r8, tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    spectrum.export_spectrum(report_n4r8, p1)
    spectrum.export_spectrum(report_n4r8, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("# spectrum N=4 r=8 gamma=h theta=1")
    assert lines[1] == "re,im"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
    assert len(rows) == report_n4r8.dim
    parsed = np.array([complex(re, im) for re, im in rows])
    np.testing.assert_allclose(parsed, report_n4r8.eigenvalues, atol=1e-12)
