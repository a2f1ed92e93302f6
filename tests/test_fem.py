"""Raviart-Thomas element: exact element integrals, assembly, norms."""

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import (
    direct_errors,
    divergence,
    edge_load_rows,
    interpolate,
    l2_distance,
    orientation_rows,
    per_triangle_loads,
    per_triangle_matrices,
    scatter_sum,
    sorted_mesh,
)
from rr_hdiv import fem
from rr_hdiv.mesh import build_unit_square_mesh

# Galerkin error of the manufactured case on the structured mesh scales as
# const / m in both norms; measured once at high precision and frozen.
L2_CONST = 0.23572528
HDIV_CONST = 0.84984297


def reference_triangles():
    """The two triangles of the m=1 mesh, lower (bl, br, tr) and upper
    (bl, tr, tl), with the length and orientation (+1 where the edge's
    fixed normal points out) of the edge opposite each vertex written
    out: lower (right, diagonal, bottom), upper (top, left, diagonal)."""
    coords = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                       [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    lengths = np.array([[1.0, np.sqrt(2.0), 1.0], [1.0, 1.0, np.sqrt(2.0)]])
    signs = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 1.0]])
    areas = np.array([0.5, 0.5])
    return coords, lengths, signs, areas


def basis_values(coords, lengths, signs, areas, t, pts):
    """Explicit RT0 basis of triangle t, phi_k(x) = s_k |e_k| / (2|K|) (x - p_k)."""
    coef = signs[t] * lengths[t] / (2.0 * areas[t])
    return coef[:, None, None] * (pts[None, :, :] - coords[t][:, None, :])


def test_reference_element_divdiv():
    divdiv, _ = fem.element_matrices(build_unit_square_mesh(1))
    np.testing.assert_allclose(np.diag(divdiv[0]), [2.0, 4.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(np.diag(divdiv[1]), [2.0, 2.0, 4.0], atol=1e-14)
    _, lengths, signs, areas = reference_triangles()
    for t in range(2):
        d = signs[t] * lengths[t] / np.sqrt(areas[t])
        np.testing.assert_allclose(divdiv[t], np.outer(d, d), atol=1e-14)


def test_reference_element_mass_against_quadrature():
    _, mass = fem.element_matrices(build_unit_square_mesh(1))
    coords, lengths, signs, areas = reference_triangles()
    # the hypotenuse, opposite the right angle: vertex 1 lower, 2 upper
    assert mass[0, 1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mass[1, 2, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    for t in range(2):
        # the explicit basis at the degree-4 points of the written-out triangle
        pts = fem.QUAD4_BARY @ coords[t]
        phi = basis_values(coords, lengths, signs, areas, t, pts)
        expected = np.einsum("q,iqd,jqd->ij", fem.QUAD4_W, phi, phi) * areas[t]
        np.testing.assert_allclose(mass[t], expected, atol=1e-15)
        np.testing.assert_allclose(mass[t], mass[t].T, atol=1e-16)
        assert np.all(np.linalg.eigvalsh(mass[t]) > 0)


def test_divdiv_rank_one_on_real_mesh(mesh8):
    divdiv, mass = per_triangle_matrices(mesh8)
    ref = sorted_mesh(mesh8.m)
    d = ref.tri_signs * ref.edge_len[ref.tri_edges]
    expected = d[:, :, None] * d[:, None, :] / ref.tri_area[:, None, None]
    np.testing.assert_allclose(divdiv, expected, atol=1e-12)
    for t in (0, 17, 93):
        assert np.all(np.linalg.eigvalsh(mass[t]) > 0)


@pytest.mark.parametrize("m", [1, 5, 6, 24])
def test_quadrature_points_match_vertex_gather(monkeypatch, m):
    """Reference: at blocks of 7 triangles and at the default, the blocks
    hold whole cell rows of one shape, every triangle of each shape once,
    and the quadrature points are gathered from the vertex coordinates of
    each triangle's first vertex, as before the points were written by
    formula."""
    mesh = build_unit_square_mesh(m)
    ref = sorted_mesh(m)
    nq = fem.QUAD4_W.size
    ids = np.arange(mesh.n_triangles).reshape(m, 2, m)
    shapes = fem._shapes(m)
    for block in (7, fem.QUAD_BLOCK):
        monkeypatch.setattr(fem, "QUAD_BLOCK", block)
        seen = np.zeros(mesh.n_triangles, dtype=int)
        for shape, kind, rows, x, y in fem._row_blocks(mesh):
            for name in ("offsets", "values", "div", "area"):
                np.testing.assert_array_equal(getattr(shape, name),
                                              getattr(shapes[kind], name))
            tri = ids[rows, kind]
            assert tri.shape[0] == min(max(1, block // m), m - rows.start)
            assert rows.stop <= m
            assert x.shape == (nq, 1, m) and y.shape == (nq, tri.shape[0], 1)
            np.testing.assert_array_equal(ref.tri_shape[tri], kind)
            seen[tri] += 1
            origin = ref.verts[ref.tris[tri, 0]]
            # point-major (nq, rows, m) to the reference's (rows, m, nq)
            x, y = np.moveaxis(np.broadcast_arrays(x, y), 1, -1)
            np.testing.assert_array_equal(x, origin[..., :1] + shape.offsets[:, 0])
            np.testing.assert_array_equal(y, origin[..., 1:] + shape.offsets[:, 1])
        np.testing.assert_array_equal(seen, 1)


def test_element_loads_match_per_triangle_reference(monkeypatch):
    """At m=24, which is not dyadic, each triangle's loads equal those
    from its own gathered points bitwise, each in the row of its edge's
    orientation, in one block and in blocks of one cell row.  Every entry
    is written by at most one triangle: an interior edge gets one load per
    row, a boundary edge one in all, and its missing row is exactly 0."""
    m = 24
    mesh = build_unit_square_mesh(m)
    ref = sorted_mesh(m)
    field = lambda x, y: (np.sin(3.0 * x + y), np.cos(x - 2.0 * y))
    expected = edge_load_rows(m, per_triangle_loads(m, field))
    written = np.zeros((2, mesh.n_edges), dtype=np.int64)
    np.add.at(written, (orientation_rows(m), ref.tri_edges), 1)
    assert written.max() == 1
    np.testing.assert_array_equal(written.sum(axis=0), np.where(ref.edge_boundary, 1, 2))
    for block in (fem.QUAD_BLOCK, 7):
        monkeypatch.setattr(fem, "QUAD_BLOCK", block)
        loads = fem.element_loads(mesh, field)
        assert loads.shape == (2, mesh.n_edges)
        np.testing.assert_array_equal(loads, expected)
        assert not loads[written == 0].view(np.uint64).any()


@pytest.mark.parametrize("block", [7, None])
def test_loads_of_partial_fields_are_broadcast(monkeypatch, block):
    """Fields whose components are Python scalars, or arrays of x alone or
    of y alone, give the loads of their full-array forms bitwise, and
    those of the per-triangle reference."""
    if block is not None:
        monkeypatch.setattr(fem, "QUAD_BLOCK", block)
    mesh = build_unit_square_mesh(6)
    partial = {
        "scalars": lambda x, y: (0.7, -1.3),
        "x alone": lambda x, y: (np.sin(3.0 * x), 2.0 + x - x * x),
        "y alone": lambda x, y: (np.cos(y), 2.0 + y - y * y),
        "mixed": lambda x, y: (-1.3, np.cos(y)),
    }
    for name, field in partial.items():
        def full(x, y, field=field):
            x, y = np.broadcast_arrays(x, y)
            return tuple(np.full(x.shape, c) if np.isscalar(c) else c
                         for c in field(x, y))
        expected = edge_load_rows(6, per_triangle_loads(6, full))
        np.testing.assert_array_equal(fem.element_loads(mesh, field), expected,
                                      err_msg=name)
        np.testing.assert_array_equal(fem.element_loads(mesh, full), expected,
                                      err_msg=name)


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
def test_assemble_global_rejects_bad_beta(case, beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        fem.assemble_global(build_unit_square_mesh(2), beta, case.load)


@pytest.mark.parametrize("m", [3, 6, 8])
def test_element_matrices_one_pair_per_shape(m):
    """One pair per shape, LOWER then UPPER, so congruent triangles get
    bitwise equal element matrices; the two pairs differ, and the mass
    matrices are symmetric bitwise, including on meshes whose vertex
    coordinates are not dyadic."""
    mesh = build_unit_square_mesh(m)
    shapes = fem.element_matrices(mesh)
    assert [a.shape for a in shapes] == [(2, 3, 3), (2, 3, 3)]
    divdiv, mass = per_triangle_matrices(mesh)
    pairs = np.concatenate([divdiv, mass], axis=1).reshape(mesh.n_triangles, -1)
    assert np.unique(pairs.view(np.uint64), axis=0).shape[0] == 2
    np.testing.assert_array_equal(mass, mass.transpose(0, 2, 1))


@pytest.mark.parametrize("m", [4, 8, 32])
def test_free_dof_count(m, case):
    system = fem.assemble_global(build_unit_square_mesh(m), 1.0, case.load)
    n_free = system.free_edges.size
    assert n_free == 3 * m * m + 2 * m - 4 * m
    assert system.A.shape == (n_free, n_free) and system.load.shape == (n_free,)
    if m == 32:
        assert n_free == 3008


def test_global_matrix_spd(case):
    mesh = build_unit_square_mesh(4)
    A = fem.assemble_global(mesh, 1.0, case.load).A
    asym = abs(A - A.T)
    assert (asym.max() if asym.nnz else 0.0) < 1e-14
    w = np.linalg.eigvalsh(A.toarray())
    assert w.min() > 0


def test_coercivity_dominates_mass(case, rng):
    """a(w, w) >= beta * (w, w) for every discrete field."""
    beta = 1.0
    mesh = build_unit_square_mesh(4)
    system = fem.assemble_global(mesh, beta, case.load)
    _, mass = per_triangle_matrices(mesh)
    n = mesh.n_edges
    M = scatter_sum(mass, sorted_mesh(mesh.m).tri_edges, n)
    for _ in range(5):
        w = np.zeros(n)
        w[system.free_edges] = rng.standard_normal(system.free_edges.size)
        wf = w[system.free_edges]
        energy = wf @ (system.A @ wf)
        assert energy >= beta * (w @ (M @ w)) - 1e-12
        assert energy > 0


@pytest.mark.parametrize("m", [6, 8])
def test_assemble_global_matches_scatter_reference(case, m):
    """The oracle's matrix and load, bitwise, against a COO sum of every
    triangle's element matrix and an np.add.at scatter of its loads
    (`per_triangle_loads`)."""
    mesh = build_unit_square_mesh(m)
    system = fem.assemble_global(mesh, 2.0, case.load)
    divdiv, mass = per_triangle_matrices(mesh)
    n = system.free_edges.size
    edge_to_free = np.full(mesh.n_edges, -1)
    edge_to_free[system.free_edges] = np.arange(n)
    dofs = edge_to_free[sorted_mesh(m).tri_edges]
    A = scatter_sum(divdiv + 2.0 * mass, dofs, n)
    load = np.zeros(n)
    free = dofs >= 0
    np.add.at(load, dofs[free], per_triangle_loads(m, case.load)[free])
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(system.A, name), getattr(A, name))
    np.testing.assert_array_equal(system.load, load)


def test_zero_load(mesh8):
    system = fem.assemble_global(mesh8, 1.0, lambda x, y: (0.0 * x, 0.0 * y))
    np.testing.assert_allclose(system.load, 0.0, atol=1e-16)


def test_direct_solution_residual(case):
    mesh = build_unit_square_mesh(4)
    system = fem.assemble_global(mesh, case.beta, case.load)
    x = sla.solve(system.A.toarray(), system.load)
    resid = np.linalg.norm(system.A @ x - system.load)
    assert resid / np.linalg.norm(system.load) < 1e-10


def test_interpolate_constant_field(mesh8):
    a, b = 0.7, -1.3
    u = interpolate(mesh8, lambda x, y: (a + 0.0 * x, b + 0.0 * y))
    np.testing.assert_allclose(
        u, sorted_mesh(mesh8.m).edge_normal @ np.array([a, b]), atol=1e-14
    )


def test_interpolate_boundary_and_tangential(mesh8, case):
    ref = sorted_mesh(mesh8.m)
    u = interpolate(mesh8, case.u)
    np.testing.assert_allclose(u[ref.edge_boundary], 0.0, atol=1e-15)
    shear = interpolate(mesh8, lambda x, y: (y, 0.0 * y))
    from rr_hdiv.mesh import HORIZONTAL

    np.testing.assert_allclose(shear[ref.edge_kind == HORIZONTAL], 0.0,
                               atol=1e-15)


def test_representable_field_reproduced_exactly(mesh8):
    # a + b x with scalar b lies in the discrete space on every triangle
    u_exact = lambda x, y: (1.0 + 2.0 * x, 3.0 + 2.0 * y)
    div_exact = lambda x, y: 4.0 + 0.0 * x
    u = interpolate(mesh8, u_exact)
    l2, hdiv = fem.error_norms(mesh8, u, u_exact, div_exact)
    assert l2 < 1e-13
    assert hdiv < 1e-13
    np.testing.assert_allclose(divergence(mesh8, u), 4.0, atol=1e-12)


def test_divergence_is_net_flux(mesh8, rng):
    """div u_h |K| must equal the signed flux sum around each triangle."""
    ref = sorted_mesh(mesh8.m)
    u = rng.standard_normal(mesh8.n_edges)
    div = divergence(mesh8, u)
    flux = np.einsum(
        "tk,tk->t", ref.tri_signs * ref.edge_len[ref.tri_edges],
        u[ref.tri_edges],
    )
    np.testing.assert_allclose(div * ref.tri_area, flux, atol=1e-14)


def test_interpolant_error_scales_linearly(case):
    errs = {}
    for m in (8, 16):
        mesh = build_unit_square_mesh(m)
        u = interpolate(mesh, case.u)
        errs[m] = fem.error_norms(mesh, u, case.u, case.div_u)
    for k in range(2):
        assert 1.90 < errs[8][k] / errs[16][k] < 2.10


def test_galerkin_error_constants(case):
    l2, hdiv = direct_errors(32, case)
    assert l2 == pytest.approx(L2_CONST / 32, rel=1e-5)
    assert hdiv == pytest.approx(HDIV_CONST / 32, rel=1e-5)


def test_l2_distance(mesh8, rng):
    u = rng.standard_normal(mesh8.n_edges)
    assert l2_distance(mesh8, u, u) == 0.0
    v = u.copy()
    v[10] += 1.0
    assert l2_distance(mesh8, u, v) > 0.0
    np.testing.assert_allclose(
        l2_distance(mesh8, u, np.zeros_like(u)),
        fem.error_norms(mesh8, u,
                        lambda x, y: (0.0 * x, 0.0 * y),
                        lambda x, y: 0.0 * x)[0],
        rtol=1e-12,
    )
