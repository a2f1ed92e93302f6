"""Structured diagonal mesh: counts, orientation, and id conventions.

Every id formula of `rr_hdiv.mesh` is held to `helpers.sorted_mesh`, the
mesh's tables found by sorting entities generated kind by kind.
"""

import csv
import dataclasses

import numpy as np
import pytest

from helpers import classify_boundary, interior_edges, n_vertices, sorted_mesh, tri_coords
from rr_hdiv import fem
from rr_hdiv import mesh as mesh_mod
from rr_hdiv.mesh import (
    DIAGONAL,
    HORIZONTAL,
    NORMALS,
    SIGNS,
    VERTICAL,
    Mesh,
    boundary_edges,
    build_unit_square_mesh,
    dump_mesh_csv,
    edge_id,
    edge_kind,
    edge_lengths,
    edge_mid2,
    edge_views,
    grid_coordinates,
    opposite_edge_views,
    triangle_cell,
    triangle_edges,
    triangle_vertices,
    vertex_coordinates,
)


def all_triangle_edges(m):
    return triangle_edges(m, *np.ogrid[:m, :2, :m]).reshape(-1, 3)


def all_triangle_vertices(m):
    return triangle_vertices(m, *np.ogrid[:m, :2, :m]).reshape(-1, 3)


@pytest.mark.parametrize(
    "m,nv,ne,nt",
    [(1, 4, 5, 2), (2, 9, 16, 8), (4, 25, 56, 32), (8, 81, 208, 128)],
)
def test_entity_counts(m, nv, ne, nt):
    mesh = build_unit_square_mesh(m)
    assert n_vertices(mesh) == nv
    assert mesh.n_edges == ne == 3 * m * m + 2 * m
    assert mesh.n_triangles == nt == 2 * m * m
    # Euler's formula with the interior faces only
    assert ne == nv + nt - 1


def test_invalid_resolution_rejected():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_mesh_holds_only_m():
    """A Mesh is its resolution: no per-entity table is stored."""
    assert [f.name for f in dataclasses.fields(Mesh)] == ["m"]
    mesh = build_unit_square_mesh(6)
    assert (mesh.h, mesh.n_edges, mesh.n_triangles) == (1.0 / 6, 120, 72)


def test_vertex_grid_and_ids(mesh8):
    m = mesh8.m
    xy = vertex_coordinates(m, np.arange(n_vertices(mesh8)))
    ix = np.rint(xy[:, 0] * m).astype(int)
    iy = np.rint(xy[:, 1] * m).astype(int)
    np.testing.assert_allclose(xy[:, 0], ix / m, atol=1e-15)
    np.testing.assert_allclose(xy[:, 1], iy / m, atol=1e-15)
    np.testing.assert_array_equal(iy * (m + 1) + ix, np.arange(n_vertices(mesh8)))


def test_edge_normals_fixed_by_kind(mesh8):
    ref = sorted_mesh(mesh8.m)
    n = NORMALS[edge_kind(*edge_mid2(mesh8.m, np.arange(mesh8.n_edges)))]
    k = ref.edge_kind
    s = 1.0 / np.sqrt(2.0)
    for kind, expect in ((HORIZONTAL, (0.0, 1.0)), (VERTICAL, (1.0, 0.0)),
                         (DIAGONAL, (s, -s))):
        rows = n[k == kind]
        np.testing.assert_allclose(rows, np.tile(expect, (len(rows), 1)))
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-15)
    # normal is perpendicular to the edge direction
    tang = ref.verts[ref.edges[:, 1]] - ref.verts[ref.edges[:, 0]]
    assert np.max(np.abs(np.einsum("ed,ed->e", tang, n))) < 1e-14


def test_edge_lengths(mesh8):
    ref = sorted_mesh(mesh8.m)
    h = mesh8.h
    tang = ref.verts[ref.edges[:, 1]] - ref.verts[ref.edges[:, 0]]
    length = edge_lengths(mesh8.m)[edge_kind(*edge_mid2(mesh8.m, np.arange(ref.n_edges)))]
    np.testing.assert_allclose(length, np.linalg.norm(tang, axis=1), atol=1e-15)
    assert set(np.round(length / h, 12)) == {1.0, np.round(np.sqrt(2), 12)}


def test_edge_ids_lexicographic_by_midpoint(mesh8):
    mid = np.column_stack(edge_mid2(mesh8.m, np.arange(mesh8.n_edges)))
    order = np.lexsort((mid[:, 0], mid[:, 1]))
    np.testing.assert_array_equal(order, np.arange(mesh8.n_edges))
    # midpoints in doubled integer coordinates match the endpoints
    ref = sorted_mesh(mesh8.m)
    p = ref.verts[ref.edges[:, 0]] + ref.verts[ref.edges[:, 1]]
    np.testing.assert_allclose(mid / mesh8.m, p, atol=1e-14)


def test_edge_triangle_incidence(mesh8):
    counts = np.bincount(all_triangle_edges(mesh8.m).ravel(), minlength=mesh8.n_edges)
    boundary = np.zeros(mesh8.n_edges, dtype=bool)
    boundary[boundary_edges(mesh8.m)] = True
    assert np.all(counts[boundary] == 1)
    assert np.all(counts[~boundary] == 2)


def test_shared_edge_signs_cancel(mesh8):
    m = mesh8.m
    signs = np.broadcast_to(SIGNS[:, None], (m, 2, m, 3)).reshape(-1, 3)
    total = np.bincount(all_triangle_edges(m).ravel(), signs.ravel(),
                        minlength=mesh8.n_edges)
    boundary = np.zeros(mesh8.n_edges, dtype=bool)
    boundary[boundary_edges(m)] = True
    np.testing.assert_allclose(total[~boundary], 0.0, atol=1e-15)
    assert np.all(np.abs(total[boundary]) == 1.0)
    assert set(np.unique(SIGNS)) == {-1.0, 1.0}


def _geometric_signs(ref):
    """+1 where the edge's fixed normal points away from the opposite
    vertex, from the coordinates of every triangle."""
    coords = tri_coords(ref)
    signs = np.empty((ref.n_triangles, 3))
    for k in range(3):
        mid = 0.5 * (coords[:, (k + 1) % 3] + coords[:, (k + 2) % 3])
        n_e = ref.edge_normal[ref.tri_edges[:, k]]
        signs[:, k] = np.sign(np.einsum("td,td->t", mid - coords[:, k], n_e))
    return signs


def test_signs_per_shape_match_geometry():
    for m in range(1, 17):
        ref = sorted_mesh(m)
        _, shape, _ = triangle_cell(m, np.arange(ref.n_triangles))
        np.testing.assert_array_equal(SIGNS[shape], _geometric_signs(ref))
    np.testing.assert_array_equal(np.abs(mesh_mod.SIGNS), 1.0)


def test_triangle_areas(mesh8):
    m = mesh8.m
    ref = sorted_mesh(m)
    np.testing.assert_allclose(ref.tri_area, 1.0 / (2 * m * m), atol=1e-16)
    assert abs(ref.tri_area.sum() - 1.0) < 1e-14
    *_, area = fem._references(m)
    np.testing.assert_array_equal(area, ref.tri_area[[0, m]])


def test_tri_edges_opposite_vertices(mesh8):
    # the edge stored at local position k must not touch vertex k
    ref = sorted_mesh(mesh8.m)
    tri_edges, tris = all_triangle_edges(mesh8.m), all_triangle_vertices(mesh8.m)
    for k in range(3):
        edge_ends = ref.edges[tri_edges[:, k]]
        own = tris[:, k]
        assert not np.any(edge_ends[:, 0] == own)
        assert not np.any(edge_ends[:, 1] == own)


def test_triangle_shapes(mesh8):
    # lower (bl, br, tr) and upper (bl, tr, tl), each m^2 times
    m = mesh8.m
    tris = all_triangle_vertices(m)
    _, shape, _ = triangle_cell(m, np.arange(mesh8.n_triangles))
    offsets = tris - tris[:, :1]
    expected = np.array([[0, 1, m + 2], [0, m + 2, m + 1]])
    np.testing.assert_array_equal(offsets, expected[shape])
    np.testing.assert_array_equal(np.bincount(shape), [m * m, m * m])
    assert (mesh_mod.LOWER, mesh_mod.UPPER) == (0, 1)


@pytest.mark.parametrize("m,nb", [(1, 4), (2, 8), (8, 32)])
def test_classify_boundary(m, nb):
    mesh = build_unit_square_mesh(m)
    found = classify_boundary(mesh)
    assert len(found) == nb == 4 * m
    np.testing.assert_array_equal(found, boundary_edges(m))
    assert not np.any(edge_kind(*edge_mid2(m, found)) == DIAGONAL)


def test_build_is_deterministic():
    a = build_unit_square_mesh(5)
    b = build_unit_square_mesh(5)
    assert a == b
    np.testing.assert_array_equal(all_triangle_edges(a.m), all_triangle_edges(b.m))
    np.testing.assert_array_equal(boundary_edges(a.m), boundary_edges(b.m))


def test_interior_edges_helper(mesh8):
    ids = interior_edges(mesh8)
    assert len(ids) == mesh8.n_edges - 4 * mesh8.m
    assert not np.any(np.isin(ids, boundary_edges(mesh8.m)))


def test_mesh_dump(tmp_path, mesh8):
    """The dumped tables are the reference tables, as written by
    `%.17g` and integers."""
    dump_mesh_csv(mesh8, str(tmp_path))
    ref = sorted_mesh(mesh8.m)
    tables = {}
    for name, rows in (("vertices.csv", n_vertices(mesh8)),
                       ("edges.csv", mesh8.n_edges),
                       ("triangles.csv", mesh8.n_triangles)):
        with open(tmp_path / name, newline="") as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == rows + 1
        assert lines[0][0].isalpha()
        tables[name] = np.array(lines[1:], dtype=float)
    for table in tables.values():
        np.testing.assert_array_equal(table[:, 0], np.arange(len(table)))
    np.testing.assert_array_equal(tables["vertices.csv"][:, 1:], ref.verts)
    edges = tables["edges.csv"]
    np.testing.assert_array_equal(edges[:, 1:3], ref.edges)
    np.testing.assert_array_equal(edges[:, 3], ref.edge_kind)
    np.testing.assert_array_equal(edges[:, 4:6], ref.edge_normal)
    np.testing.assert_array_equal(edges[:, 6], ref.edge_len)
    np.testing.assert_array_equal(edges[:, 7], ref.edge_boundary)
    tris = tables["triangles.csv"]
    np.testing.assert_array_equal(tris[:, 1:4], ref.tris)
    np.testing.assert_array_equal(tris[:, 4:7], ref.tri_edges)
    np.testing.assert_array_equal(tris[:, 7:10], ref.tri_signs)
    np.testing.assert_array_equal(tris[:, 10], ref.tri_area)


def test_module_constants_distinct():
    assert len({HORIZONTAL, VERTICAL, DIAGONAL}) == 3
    assert mesh_mod.SQRT2 == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("m", list(range(1, 17)) + [24, 48, 96, 256])
def test_numbering_matches_sorted_build(m):
    """Every id formula equals the table found by sorting, and every
    triangle is a translate of its shape's reference triangle in `fem`:
    the reference's vertex offsets, edge orientations and edge kinds, its
    area and edge lengths to round-off, with its vertices at the grid
    coordinates."""
    ref = sorted_mesh(m)
    e, t = np.arange(ref.n_edges), np.arange(ref.n_triangles)
    x2, y2 = edge_mid2(m, e)
    np.testing.assert_array_equal(np.column_stack([x2, y2]), ref.edge_mid2)
    np.testing.assert_array_equal(edge_id(m, x2, y2), e)
    kind = edge_kind(x2, y2)
    np.testing.assert_array_equal(kind, ref.edge_kind)
    np.testing.assert_array_equal(NORMALS[kind], ref.edge_normal)
    np.testing.assert_array_equal(edge_lengths(m)[kind], ref.edge_len)
    np.testing.assert_array_equal(boundary_edges(m), np.flatnonzero(ref.edge_boundary))
    np.testing.assert_array_equal(
        vertex_coordinates(m, np.arange((m + 1) ** 2)), ref.verts)
    cy, shape, cx = triangle_cell(m, t)
    np.testing.assert_array_equal(shape, ref.tri_shape)
    np.testing.assert_array_equal(triangle_vertices(m, cy, shape, cx), ref.tris)
    np.testing.assert_array_equal(triangle_edges(m, cy, shape, cx), ref.tri_edges)
    np.testing.assert_array_equal(all_triangle_vertices(m), ref.tris)
    np.testing.assert_array_equal(all_triangle_edges(m), ref.tri_edges)
    np.testing.assert_array_equal(SIGNS[shape], ref.tri_signs)

    # Translates of the two reference triangles, cell (0, 0)'s halves.
    coords, lengths, signs, area = fem._references(m)
    np.testing.assert_array_equal(coords, ref.verts[ref.tris[[0, m]]])
    np.testing.assert_array_equal(ref.verts[ref.tris[:, 0]],
                                  np.column_stack([cx, cy]) / m)
    np.testing.assert_array_equal(
        ref.tris - ref.tris[:, :1], (ref.tris[[0, m]] - ref.tris[[0, m], :1])[shape])
    np.testing.assert_array_equal(ref.tri_signs, signs[shape])
    np.testing.assert_array_equal(ref.edge_kind[ref.tri_edges],
                                  ref.edge_kind[ref.tri_edges[[0, m]]][shape])
    np.testing.assert_allclose(ref.tri_area, area[shape], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(ref.edge_len[ref.tri_edges], lengths[shape],
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 7, 24])
def test_edge_id_and_grid_match_build(m):
    """The formulas that partition and fem use name the reference mesh's
    own edges and vertex coordinates."""
    ref = sorted_mesh(m)
    x2, y2 = ref.edge_mid2.T
    np.testing.assert_array_equal(edge_id(m, x2, y2), np.arange(ref.n_edges))
    grid = grid_coordinates(m)
    iy, ix = np.divmod(np.arange(len(ref.verts)), m + 1)
    np.testing.assert_array_equal(ref.verts, np.column_stack([grid[ix], grid[iy]]))


@pytest.mark.parametrize("m", [1, 2, 7, 24])
def test_edge_views_name_edges_by_midpoint(m):
    """H, V and D hold, along the last axis of any (..., n_edges) array,
    the edges at doubled midpoints (2 ix + 1, 2 iy), (2 ix, 2 cy + 1) and
    (2 cx + 1, 2 cy + 1); together they cover every edge once.  A wrong
    edge count is refused."""
    ids = np.arange(3 * m * m + 2 * m)
    H, V, D = edge_views(m, ids)
    assert (H.shape, V.shape, D.shape) == ((m + 1, m), (m, m + 1), (m, m))
    iy, ix = np.ogrid[:m + 1, :m + 1]
    np.testing.assert_array_equal(H, edge_id(m, 2 * ix[:, :m] + 1, 2 * iy))
    np.testing.assert_array_equal(V, edge_id(m, 2 * ix, 2 * iy[:m] + 1))
    np.testing.assert_array_equal(D, edge_id(m, 2 * ix[:, :m] + 1, 2 * iy[:m] + 1))
    np.testing.assert_array_equal(np.sort(np.concatenate(
        [H.ravel(), V.ravel(), D.ravel()])), ids)
    rows = np.stack([ids, -ids])
    for view, lead in zip(edge_views(m, rows), (H, V, D)):
        np.testing.assert_array_equal(view, np.stack([lead, -lead]))
    with pytest.raises(ValueError, match="expected"):
        edge_views(m, ids[:-1])


def _view_blocks(monkeypatch, m, block):
    """(shape, rows) of each block `fem._row_blocks` cuts at
    QUAD_BLOCK = block."""
    monkeypatch.setattr(fem, "QUAD_BLOCK", block)
    return [(kind, rows) for _, kind, rows, _, _ in
            fem._row_blocks(build_unit_square_mesh(m))]


@pytest.mark.parametrize("m", list(range(1, 10)) + [24])
def test_opposite_edge_views_match_triangle_edges(monkeypatch, m):
    """For both shapes and row blocks cut at 7 triangles and at the
    default, view i of a block is `triangle_edges`' column i for its
    cells, element by element, and writes through to the array."""
    for block in (7, fem.QUAD_BLOCK):
        for shape, rows in _view_blocks(monkeypatch, m, block):
            edges = triangle_edges(m, np.arange(m)[rows, None], shape, np.arange(m))
            ids = np.arange(3 * m * m + 2 * m)
            for i, view in enumerate(opposite_edge_views(m, ids, shape, rows)):
                assert view.shape == edges.shape[:2]
                np.testing.assert_array_equal(view, edges[..., i])
                assert view.flags.writeable
                view[...] = -1 - view
                np.testing.assert_array_equal(ids[edges[..., i]], -1 - edges[..., i])


@pytest.mark.parametrize("m", [1, 5, 6, 24])
def test_opposite_edge_views_write_each_entry_once(monkeypatch, m):
    """Writing every block's views of both shapes, each into the row of
    its edge's orientation as `fem.element_loads` does, reaches every
    (row, edge) pair at most once: an interior edge once per row, a
    boundary edge once in all, in the row `SIGNS` gives it."""
    ref = sorted_mesh(m)
    for block in (7, fem.QUAD_BLOCK):
        written = np.zeros((2, ref.n_edges), dtype=np.int64)
        for shape, rows in _view_blocks(monkeypatch, m, block):
            views = opposite_edge_views(m, written, shape, rows)
            for i, row in enumerate(SIGNS[shape] < 0):
                views[i][int(row)] += 1
        assert written.max() == 1
        expected = np.zeros_like(written)
        expected[(ref.tri_signs < 0).astype(np.intp), ref.tri_edges] = 1
        np.testing.assert_array_equal(written, expected)
        np.testing.assert_array_equal(written.sum(axis=0),
                                      np.where(ref.edge_boundary, 1, 2))
