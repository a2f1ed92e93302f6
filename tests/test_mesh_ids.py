"""Properties of the mesh's id formulas on random meshes and ids.

For m up to 512 and ids drawn in range, the formulas of `rr_hdiv.mesh`
are held to the geometry they encode, without building any table: an
edge's id and its doubled midpoint are inverse maps, the parity of the
midpoint is the kind the edge's endpoints give, a triangle's edge ids are
the edges between its vertex pairs, every edge lies on one triangle if it
is on the boundary and on two otherwise, and there are 4m boundary edges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rr_hdiv.mesh import (
    DIAGONAL,
    HORIZONTAL,
    VERTICAL,
    boundary_edges,
    build_unit_square_mesh,
    edge_id,
    edge_kind,
    edge_mid2,
    triangle_cell,
    triangle_edges,
    triangle_vertices,
)

resolutions = st.integers(1, 512)


def _grid_index(m, v):
    """(ix, iy) of vertex ids v."""
    iy, ix = np.divmod(v, m + 1)
    return ix, iy


@st.composite
def mesh_and_edges(draw):
    m = draw(resolutions)
    n = build_unit_square_mesh(m).n_edges
    return m, np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=32)))


@st.composite
def mesh_and_triangles(draw):
    m = draw(resolutions)
    n = build_unit_square_mesh(m).n_triangles
    return m, np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=32)))


@settings(max_examples=200, deadline=None)
@given(case=mesh_and_edges())
def test_edge_id_inverts_midpoint(case):
    m, e = case
    x2, y2 = edge_mid2(m, e)
    np.testing.assert_array_equal(edge_id(m, x2, y2), e)
    # a midpoint of the grid: in the square, and not at a vertex or a cell centre
    assert np.all((0 <= x2) & (x2 <= 2 * m) & (0 <= y2) & (y2 <= 2 * m))
    assert not np.any((x2 % 2 == 0) & (y2 % 2 == 0))


@settings(max_examples=200, deadline=None)
@given(case=mesh_and_triangles())
def test_triangle_edges_join_its_vertex_pairs(case):
    """Edge k of a triangle joins its vertices other than k: its midpoint
    is theirs, and the parity of that midpoint gives the kind that the
    direction between them gives."""
    m, t = case
    cell = triangle_cell(m, t)
    ix, iy = _grid_index(m, triangle_vertices(m, *cell))
    edges = triangle_edges(m, *cell)
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        mid_x, mid_y = ix[:, a] + ix[:, b], iy[:, a] + iy[:, b]
        np.testing.assert_array_equal(edges[:, k], edge_id(m, mid_x, mid_y))
        np.testing.assert_array_equal(edge_mid2(m, edges[:, k]), (mid_x, mid_y))
        dx, dy = np.abs(ix[:, a] - ix[:, b]), np.abs(iy[:, a] - iy[:, b])
        direction = np.select([dy == 0, dx == 0], [HORIZONTAL, VERTICAL], DIAGONAL)
        assert np.all(np.maximum(dx, dy) == 1)
        np.testing.assert_array_equal(edge_kind(mid_x, mid_y), direction)


@settings(max_examples=200, deadline=None)
@given(case=mesh_and_edges())
def test_edges_lie_on_one_or_two_triangles(case):
    """Of the triangles of the (at most four) cells around an edge's
    midpoint, one names the edge if it is on the boundary, two otherwise:
    never more than two."""
    m, e = case
    x2, y2 = edge_mid2(m, e)
    boundary = np.isin(e, boundary_edges(m))
    on_side = (x2 == 0) | (x2 == 2 * m) | (y2 == 0) | (y2 == 2 * m)
    np.testing.assert_array_equal(boundary, on_side)
    for edge, a, b, on_boundary in zip(e, x2, y2, boundary):
        # the cells whose closure holds the midpoint
        cx = np.arange(max(0, (a - 1) // 2), min(m - 1, a // 2) + 1)
        cy = np.arange(max(0, (b - 1) // 2), min(m - 1, b // 2) + 1)
        named = triangle_edges(m, cy[:, None, None], np.arange(2)[:, None], cx) == edge
        assert np.count_nonzero(named) == (1 if on_boundary else 2)


@settings(max_examples=100, deadline=None)
@given(m=resolutions)
def test_four_m_boundary_edges(m):
    b = boundary_edges(m)
    assert b.size == 4 * m
    assert np.all(np.diff(b) > 0)
    assert 0 <= b[0] and b[-1] < build_unit_square_mesh(m).n_edges
    x2, y2 = edge_mid2(m, b)
    assert np.all((x2 == 0) | (x2 == 2 * m) | (y2 == 0) | (y2 == 2 * m))
    assert not np.any(edge_kind(x2, y2) == DIAGONAL)
