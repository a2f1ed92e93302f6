"""The vectorized kernels must match plain per-triangle loop references.

The loops below spell out each kernel one triangle, quadrature point and
basis function at a time; they are the independent reference the package
kernels are checked against.
"""

import numpy as np

from rr_hdiv import _kernels as K
from rr_hdiv import fem
from rr_hdiv.mesh import build_unit_square_mesh


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
                xq += K.MIDPOINT_BARY[q, j] * coords[t, j, 0]
                yq += K.MIDPOINT_BARY[q, j] * coords[t, j, 1]
            for i in range(3):
                ci = signs[t, i] * lengths[t, i] / (2.0 * area)
                pix = ci * (xq - coords[t, i, 0])
                piy = ci * (yq - coords[t, i, 1])
                for j in range(3):
                    cj = signs[t, j] * lengths[t, j] / (2.0 * area)
                    pjx = cj * (xq - coords[t, j, 0])
                    pjy = cj * (yq - coords[t, j, 1])
                    mass[t, i, j] += K.MIDPOINT_W[q] * area * (pix * pjx + piy * pjy)
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
    mesh = build_unit_square_mesh(m)
    coords = np.ascontiguousarray(mesh.tri_coords())
    lengths = np.ascontiguousarray(mesh.edge_len[mesh.tri_edges])
    signs = np.ascontiguousarray(mesh.tri_signs.astype(float))
    areas = np.ascontiguousarray(mesh.tri_area)
    return coords, lengths, signs, areas


def test_element_matrices_backends_agree():
    coords, lengths, signs, areas = _mesh_arrays()
    dd_np, m_np = K.element_matrices(coords, lengths, signs, areas)
    dd_lp, m_lp = _element_matrices_loops(coords, lengths, signs, areas)
    np.testing.assert_allclose(dd_lp, dd_np, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m_lp, m_np, rtol=0, atol=1e-16)


def test_load_vectors_backends_agree(rng):
    coords, lengths, signs, areas = _mesh_arrays()
    nt = coords.shape[0]
    nq = K.QUAD4_BARY.shape[0]
    fvals = np.ascontiguousarray(rng.standard_normal((nt, nq, 2)))
    args = (coords, lengths, signs, areas, fvals, K.QUAD4_BARY, K.QUAD4_W)
    out_np = K.load_vectors(*args)
    out_lp = _load_vectors_loops(*args)
    np.testing.assert_allclose(out_lp, out_np, rtol=0, atol=1e-15)


def test_rt0_values_backends_agree(rng):
    coords, lengths, signs, areas = _mesh_arrays()
    nt = coords.shape[0]
    dofs = np.ascontiguousarray(rng.standard_normal((nt, 3)))
    args = (coords, lengths, signs, areas, dofs, K.QUAD4_BARY)
    out_np = K.rt0_values(*args)
    out_lp = _rt0_values_loops(*args)
    np.testing.assert_allclose(out_lp, out_np, rtol=0, atol=1e-13)


def test_backend_name_is_reported():
    assert K.BACKEND == "numpy"


def test_quadrature_rules_are_consistent():
    assert np.isclose(K.MIDPOINT_W.sum(), 1.0)
    assert np.isclose(K.QUAD4_W.sum(), 1.0)
    np.testing.assert_allclose(K.MIDPOINT_BARY.sum(axis=1), 1.0)
    np.testing.assert_allclose(K.QUAD4_BARY.sum(axis=1), 1.0)


def test_assembly_identical_across_backends(case):
    """End-to-end: the assembled element matrices match the loop reference."""
    mesh = build_unit_square_mesh(6)
    sys_act = fem.assemble_global(mesh, 1.0, case.load)
    dd_lp, m_lp = _element_matrices_loops(*_mesh_arrays(6))
    dd_act, m_act = fem.element_matrices(mesh)
    np.testing.assert_allclose(dd_act, dd_lp, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m_act, m_lp, rtol=0, atol=1e-16)
    assert np.isfinite(sys_act.load).all()
