"""Element integrals must match plain per-triangle loop references.

The loops below spell out each integral one triangle, quadrature point and
basis function at a time, from each triangle's own vertices; they are the
independent reference for the per-shape tables that `fem` builds its
element matrices, loads and error norms from.  The element matrix loop
integrates with the midpoint rule, a second rule exact for the quadratic
mass integrand, where `fem` uses its degree-4 rule.
"""

import math

import numpy as np

from helpers import (
    edge_load_rows,
    interpolate,
    per_triangle_loads,
    per_triangle_matrices,
    sorted_mesh,
    tri_coords,
)
from rr_hdiv import _kernels as K
from rr_hdiv import fem
from rr_hdiv.mesh import build_unit_square_mesh

# Midpoint rule on a triangle, exact for quadratics. Point k is the midpoint
# of the edge opposite vertex k.
MIDPOINT_BARY = np.array(
    [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)
MIDPOINT_W = np.array([1.0, 1.0, 1.0]) / 3.0


def _element_matrices_loops(coords, lengths, signs, areas):
    nt = coords.shape[0]
    divdiv = np.empty((nt, 3, 3))
    mass = np.zeros((nt, 3, 3))
    for t in range(nt):
        area = areas[t]
        for i in range(3):
            di = signs[t, i] * lengths[t, i]
            for j in range(3):
                divdiv[t, i, j] = di * signs[t, j] * lengths[t, j] / area
        for q in range(3):
            xq = 0.0
            yq = 0.0
            for j in range(3):
                xq += MIDPOINT_BARY[q, j] * coords[t, j, 0]
                yq += MIDPOINT_BARY[q, j] * coords[t, j, 1]
            for i in range(3):
                ci = signs[t, i] * lengths[t, i] / (2.0 * area)
                pix = ci * (xq - coords[t, i, 0])
                piy = ci * (yq - coords[t, i, 1])
                for j in range(3):
                    cj = signs[t, j] * lengths[t, j] / (2.0 * area)
                    pjx = cj * (xq - coords[t, j, 0])
                    pjy = cj * (yq - coords[t, j, 1])
                    mass[t, i, j] += MIDPOINT_W[q] * area * (pix * pjx + piy * pjy)
    return divdiv, mass


def _load_vectors_loops(coords, lengths, signs, areas, fvals, bary, weights):
    nt = coords.shape[0]
    nq = bary.shape[0]
    out = np.zeros((nt, 3))
    for t in range(nt):
        area = areas[t]
        for q in range(nq):
            xq = 0.0
            yq = 0.0
            for j in range(3):
                xq += bary[q, j] * coords[t, j, 0]
                yq += bary[q, j] * coords[t, j, 1]
            for i in range(3):
                ci = signs[t, i] * lengths[t, i] / (2.0 * area)
                dot = fvals[t, q, 0] * ci * (xq - coords[t, i, 0])
                dot += fvals[t, q, 1] * ci * (yq - coords[t, i, 1])
                out[t, i] += weights[q] * area * dot
    return out


def _rt0_values_loops(coords, lengths, signs, areas, dofs, bary):
    nt = coords.shape[0]
    nq = bary.shape[0]
    out = np.zeros((nt, nq, 2))
    for t in range(nt):
        area = areas[t]
        for q in range(nq):
            xq = 0.0
            yq = 0.0
            for j in range(3):
                xq += bary[q, j] * coords[t, j, 0]
                yq += bary[q, j] * coords[t, j, 1]
            ux = 0.0
            uy = 0.0
            for i in range(3):
                ci = dofs[t, i] * signs[t, i] * lengths[t, i] / (2.0 * area)
                ux += ci * (xq - coords[t, i, 0])
                uy += ci * (yq - coords[t, i, 1])
            out[t, q, 0] = ux
            out[t, q, 1] = uy
    return out


def _mesh_arrays(m=5):
    ref = sorted_mesh(m)
    coords = np.ascontiguousarray(tri_coords(ref))
    lengths = np.ascontiguousarray(ref.edge_len[ref.tri_edges])
    signs = np.ascontiguousarray(ref.tri_signs.astype(float))
    areas = np.ascontiguousarray(ref.tri_area)
    return coords, lengths, signs, areas


def test_element_matrices_backends_agree():
    """`fem.element_matrices`, from the per-shape degree-4 tables and
    gathered by shape, against the midpoint loop over every triangle's own
    vertices."""
    dd_fem, m_fem = per_triangle_matrices(build_unit_square_mesh(5))
    dd_lp, m_lp = _element_matrices_loops(*_mesh_arrays(5))
    np.testing.assert_allclose(dd_lp, dd_fem, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m_lp, m_fem, rtol=0, atol=1e-16)


def _field(x, y):
    # not polynomial, so every quadrature point's value matters
    return np.sin(3.0 * x + y), np.cos(x - 2.0 * y)


def _quad_points(coords):
    return np.einsum("qj,tjd->tqd", fem.QUAD4_BARY, coords)


def _error_norms_loops(mesh, u, exact_u, exact_div):
    coords, lengths, signs, areas = _mesh_arrays(mesh.m)
    dofs = u[sorted_mesh(mesh.m).tri_edges]
    uh = _rt0_values_loops(coords, lengths, signs, areas, dofs, fem.QUAD4_BARY)
    pts = _quad_points(coords)
    ex, ey = exact_u(pts[:, :, 0], pts[:, :, 1])
    div_exact = exact_div(pts[:, :, 0], pts[:, :, 1])
    l2_sq = div_sq = 0.0
    for t in range(mesh.n_triangles):
        div_h = sum(signs[t, i] * lengths[t, i] * dofs[t, i] for i in range(3))
        div_h /= areas[t]
        for q in range(fem.QUAD4_W.size):
            w = fem.QUAD4_W[q] * areas[t]
            l2_sq += w * ((uh[t, q, 0] - ex[t, q]) ** 2 + (uh[t, q, 1] - ey[t, q]) ** 2)
            div_sq += w * (div_h - div_exact[t, q]) ** 2
    return np.sqrt(l2_sq), np.sqrt(l2_sq + div_sq)


def _perturbed_interpolant(mesh, case, rng):
    return interpolate(mesh, case.u) + 1e-2 * rng.standard_normal(mesh.n_edges)


def test_element_loads_match_loops(monkeypatch):
    """End to end: the per-shape load tables give each triangle's own
    quadrature, the field evaluated at that triangle's points, in the row
    of its edge's orientation, at the default block and at 7 triangles."""
    for m in (5, 6, 7):
        coords, lengths, signs, areas = _mesh_arrays(m)
        pts = _quad_points(coords)
        fvals = np.stack(_field(pts[:, :, 0], pts[:, :, 1]), axis=-1)
        expected = edge_load_rows(m, _load_vectors_loops(
            coords, lengths, signs, areas, fvals, fem.QUAD4_BARY, fem.QUAD4_W))
        for block in (fem.QUAD_BLOCK, 7):
            with monkeypatch.context() as patch:
                patch.setattr(fem, "QUAD_BLOCK", block)
                loads = fem.element_loads(build_unit_square_mesh(m), _field)
            np.testing.assert_allclose(loads, expected, rtol=0, atol=1e-15)


def test_error_norms_match_loops(case, rng):
    for m in (5, 6, 7):
        mesh = build_unit_square_mesh(m)
        u = _perturbed_interpolant(mesh, case, rng)
        np.testing.assert_allclose(
            fem.error_norms(mesh, u, case.u, case.div_u),
            _error_norms_loops(mesh, u, case.u, case.div_u),
            rtol=1e-13,
        )


def test_quadrature_blocks_agree(monkeypatch, case, rng):
    """Blocks of 7 triangles, with a partial last block at m=6, give the
    norms of the default block, and both give the per-triangle reference
    loads bitwise, each in the row of its edge's orientation."""
    for m in (6, 7):
        mesh = build_unit_square_mesh(m)
        u = _perturbed_interpolant(mesh, case, rng)
        expected = edge_load_rows(m, per_triangle_loads(m, _field))
        np.testing.assert_array_equal(fem.element_loads(mesh, _field), expected)
        norms = fem.error_norms(mesh, u, case.u, case.div_u)
        with monkeypatch.context() as patch:
            patch.setattr(fem, "QUAD_BLOCK", 7)
            np.testing.assert_array_equal(fem.element_loads(mesh, _field), expected)
            np.testing.assert_allclose(fem.error_norms(mesh, u, case.u, case.div_u),
                                       norms, rtol=1e-15)


def test_backend_name_is_reported():
    assert K.BACKEND == "numpy"


def test_quadrature_rules_are_consistent():
    """The degree-4 rule integrates every monomial x^a y^b, a + b <= 4, on
    the triangle (0, 0), (1, 0), (0, 1) to 1e-15 relative against
    a! b! / (a + b + 2)!, and its weights sum to one within 4e-16."""
    x, y = fem.QUAD4_BARY[:, 1], fem.QUAD4_BARY[:, 2]
    for a in range(5):
        for b in range(5 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            quad = 0.5 * np.sum(fem.QUAD4_W * x**a * y**b)
            assert abs(quad - exact) <= 1e-15 * exact, (a, b, quad, exact)
    assert abs(fem.QUAD4_W.sum() - 1.0) <= 4e-16
    np.testing.assert_allclose(MIDPOINT_BARY.sum(axis=1), 1.0)
    np.testing.assert_allclose(fem.QUAD4_BARY.sum(axis=1), 1.0)


def test_assembly_identical_across_backends(case):
    """End-to-end: the assembled element matrices match the loop reference."""
    mesh = build_unit_square_mesh(6)
    sys_act = fem.assemble_global(mesh, 1.0, case.load)
    dd_lp, m_lp = _element_matrices_loops(*_mesh_arrays(6))
    dd_act, m_act = per_triangle_matrices(mesh)
    np.testing.assert_allclose(dd_act, dd_lp, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m_act, m_lp, rtol=0, atol=1e-16)
    assert np.isfinite(sys_act.load).all()
