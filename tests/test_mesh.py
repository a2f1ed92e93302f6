"""Structured diagonal mesh: counts, orientation, and id conventions."""

import dataclasses

import numpy as np
import pytest

from helpers import classify_boundary, interior_edges, n_vertices, tri_coords
from rr_hdiv import mesh as mesh_mod
from rr_hdiv.mesh import (
    DIAGONAL,
    HORIZONTAL,
    LOWER,
    SIGNS,
    SQRT2,
    UPPER,
    VERTICAL,
    Mesh,
    build_unit_square_mesh,
    dump_mesh_csv,
    edge_id,
    grid_coordinates,
)


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


def test_vertex_grid_and_ids(mesh8):
    m = mesh8.m
    ix = np.rint(mesh8.verts[:, 0] * m).astype(int)
    iy = np.rint(mesh8.verts[:, 1] * m).astype(int)
    np.testing.assert_allclose(mesh8.verts[:, 0], ix / m, atol=1e-15)
    np.testing.assert_allclose(mesh8.verts[:, 1], iy / m, atol=1e-15)
    np.testing.assert_array_equal(iy * (m + 1) + ix, np.arange(n_vertices(mesh8)))


def test_edge_normals_fixed_by_kind(mesh8):
    n = mesh8.edge_normal
    k = mesh8.edge_kind
    s = 1.0 / np.sqrt(2.0)
    for kind, expect in ((HORIZONTAL, (0.0, 1.0)), (VERTICAL, (1.0, 0.0)),
                         (DIAGONAL, (s, -s))):
        rows = n[k == kind]
        np.testing.assert_allclose(rows, np.tile(expect, (len(rows), 1)))
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-15)
    # normal is perpendicular to the edge direction
    tang = mesh8.verts[mesh8.edges[:, 1]] - mesh8.verts[mesh8.edges[:, 0]]
    assert np.max(np.abs(np.einsum("ed,ed->e", tang, n))) < 1e-14


def test_edge_lengths(mesh8):
    h = mesh8.h
    tang = mesh8.verts[mesh8.edges[:, 1]] - mesh8.verts[mesh8.edges[:, 0]]
    np.testing.assert_allclose(mesh8.edge_len, np.linalg.norm(tang, axis=1),
                               atol=1e-15)
    assert set(np.round(mesh8.edge_len / h, 12)) == {1.0, np.round(np.sqrt(2), 12)}


def test_edge_ids_lexicographic_by_midpoint(mesh8):
    mid = mesh8.edge_mid2
    order = np.lexsort((mid[:, 0], mid[:, 1]))
    np.testing.assert_array_equal(order, np.arange(mesh8.n_edges))
    # midpoints in doubled integer coordinates match the endpoints
    p = mesh8.verts[mesh8.edges[:, 0]] + mesh8.verts[mesh8.edges[:, 1]]
    np.testing.assert_allclose(mid / mesh8.m, p, atol=1e-14)


def test_edge_triangle_incidence(mesh8):
    counts = np.zeros(mesh8.n_edges, dtype=int)
    np.add.at(counts, mesh8.tri_edges.ravel(), 1)
    assert np.all(counts[mesh8.edge_boundary] == 1)
    assert np.all(counts[~mesh8.edge_boundary] == 2)


def test_shared_edge_signs_cancel(mesh8):
    total = np.zeros(mesh8.n_edges)
    np.add.at(total, mesh8.tri_edges.ravel(), mesh8.tri_signs.ravel())
    interior = ~mesh8.edge_boundary
    np.testing.assert_allclose(total[interior], 0.0, atol=1e-15)
    assert np.all(np.abs(total[mesh8.edge_boundary]) == 1.0)
    assert set(np.unique(mesh8.tri_signs)) == {-1.0, 1.0}


def _geometric_signs(mesh):
    """+1 where the edge's fixed normal points away from the opposite
    vertex, from the coordinates of every triangle."""
    coords = tri_coords(mesh)
    signs = np.empty((mesh.n_triangles, 3))
    for k in range(3):
        mid = 0.5 * (coords[:, (k + 1) % 3] + coords[:, (k + 2) % 3])
        n_e = mesh.edge_normal[mesh.tri_edges[:, k]]
        signs[:, k] = np.sign(np.einsum("td,td->t", mid - coords[:, k], n_e))
    return signs


def test_signs_per_shape_match_geometry():
    for m in range(1, 17):
        mesh = build_unit_square_mesh(m)
        np.testing.assert_array_equal(mesh.tri_signs, _geometric_signs(mesh))
    np.testing.assert_array_equal(np.abs(mesh_mod.SIGNS), 1.0)


def test_triangle_areas(mesh8):
    m = mesh8.m
    np.testing.assert_allclose(mesh8.tri_area, 1.0 / (2 * m * m), atol=1e-16)
    assert abs(mesh8.tri_area.sum() - 1.0) < 1e-14


def test_tri_edges_opposite_vertices(mesh8):
    # the edge stored at local position k must not touch vertex k
    for k in range(3):
        edge_ends = mesh8.edges[mesh8.tri_edges[:, k]]
        own = mesh8.tris[:, k]
        assert not np.any(edge_ends[:, 0] == own)
        assert not np.any(edge_ends[:, 1] == own)


def test_triangle_shapes(mesh8):
    # lower (bl, br, tr) and upper (bl, tr, tl), each m^2 times
    m = mesh8.m
    offsets = mesh8.tris - mesh8.tris[:, :1]
    expected = np.array([[0, 1, m + 2], [0, m + 2, m + 1]])
    np.testing.assert_array_equal(offsets, expected[mesh8.tri_shape])
    assert mesh8.tri_shape.dtype == np.int8
    np.testing.assert_array_equal(np.bincount(mesh8.tri_shape), [m * m, m * m])
    assert (mesh_mod.LOWER, mesh_mod.UPPER) == (0, 1)


@pytest.mark.parametrize("m,nb", [(1, 4), (2, 8), (8, 32)])
def test_classify_boundary(m, nb):
    mesh = build_unit_square_mesh(m)
    found = classify_boundary(mesh)
    assert len(found) == nb == 4 * m
    np.testing.assert_array_equal(found, np.flatnonzero(mesh.edge_boundary))
    assert not np.any(mesh.edge_kind[found] == DIAGONAL)


def test_build_is_deterministic():
    a = build_unit_square_mesh(5)
    b = build_unit_square_mesh(5)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.tris, b.tris)
    np.testing.assert_array_equal(a.tri_edges, b.tri_edges)
    np.testing.assert_array_equal(a.tri_signs, b.tri_signs)


def test_interior_edges_helper(mesh8):
    ids = interior_edges(mesh8)
    assert len(ids) == mesh8.n_edges - 4 * mesh8.m
    assert not np.any(mesh8.edge_boundary[ids])


def test_mesh_dump(tmp_path, mesh8):
    dump_mesh_csv(mesh8, str(tmp_path))
    for name, rows in (("vertices.csv", n_vertices(mesh8)),
                       ("edges.csv", mesh8.n_edges),
                       ("triangles.csv", mesh8.n_triangles)):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == rows + 1
        assert lines[0][0].isalpha()


def test_module_constants_distinct():
    assert len({HORIZONTAL, VERTICAL, DIAGONAL}) == 3
    assert mesh_mod.SQRT2 == pytest.approx(np.sqrt(2.0))


def _sorted_mesh(m):
    """Reference build: entities generated kind by kind, then numbered by
    sorting edge midpoints and triangle centroids lexicographically (y, x)."""
    mp1 = m + 1
    ix, iy = np.meshgrid(np.arange(mp1), np.arange(mp1), indexing="xy")
    verts = np.column_stack([ix.ravel() / m, iy.ravel() / m]).astype(float)

    def vid(jx, jy):
        return jy * mp1 + jx

    hx, hy = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(mp1)))
    vx, vy = (a.ravel() for a in np.meshgrid(np.arange(mp1), np.arange(m)))
    cx, cy = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(m)))
    ends = np.concatenate([
        np.column_stack([vid(hx, hy), vid(hx + 1, hy)]),
        np.column_stack([vid(vx, vy), vid(vx, vy + 1)]),
        np.column_stack([vid(cx, cy), vid(cx + 1, cy + 1)]),
    ])
    mid2 = np.concatenate([
        np.column_stack([2 * hx + 1, 2 * hy]),
        np.column_stack([2 * vx, 2 * vy + 1]),
        np.column_stack([2 * cx + 1, 2 * cy + 1]),
    ])
    kind = np.concatenate([
        np.full(hx.size, HORIZONTAL, dtype=np.int8),
        np.full(vx.size, VERTICAL, dtype=np.int8),
        np.full(cx.size, DIAGONAL, dtype=np.int8),
    ])
    order = np.lexsort((mid2[:, 0], mid2[:, 1]))
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    ends, mid2, kind = ends[order], mid2[order], kind[order]
    normals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0 / SQRT2, -1.0 / SQRT2]])
    lengths = np.array([1.0 / m, 1.0 / m, SQRT2 / m])
    on_bnd = (mid2[:, 0] == 0) | (mid2[:, 0] == 2 * m)
    on_bnd |= (mid2[:, 1] == 0) | (mid2[:, 1] == 2 * m)

    # Edge ids in generation order: horizontals, verticals, diagonals.
    def hid(jx, jy):
        return jy * m + jx

    def vvid(jx, jy):
        return m * mp1 + jy * mp1 + jx

    def did(jx, jy):
        return 2 * m * mp1 + jy * m + jx

    tris = np.concatenate([
        np.column_stack([vid(cx, cy), vid(cx + 1, cy), vid(cx + 1, cy + 1)]),
        np.column_stack([vid(cx, cy), vid(cx + 1, cy + 1), vid(cx, cy + 1)]),
    ])
    tri_edges = inv[np.concatenate([
        np.column_stack([vvid(cx + 1, cy), did(cx, cy), hid(cx, cy)]),
        np.column_stack([hid(cx, cy + 1), vvid(cx, cy), did(cx, cy)]),
    ])]
    tri_shape = np.repeat(np.array([LOWER, UPPER], dtype=np.int8), m * m)
    cent3 = np.concatenate([
        np.column_stack([3 * cx + 2, 3 * cy + 1]),
        np.column_stack([3 * cx + 1, 3 * cy + 2]),
    ])
    torder = np.lexsort((cent3[:, 0], cent3[:, 1]))
    tris, tri_edges, tri_shape = tris[torder], tri_edges[torder], tri_shape[torder]
    coords = verts[tris]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    return Mesh(
        m=m, h=1.0 / m, verts=verts, edges=ends, edge_normal=normals[kind],
        edge_len=lengths[kind], edge_boundary=on_bnd & (kind != DIAGONAL),
        edge_kind=kind, edge_mid2=mid2, tris=tris, tri_edges=tri_edges,
        tri_signs=SIGNS[tri_shape],
        tri_area=0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]),
        tri_shape=tri_shape,
    )


@pytest.mark.parametrize("m", list(range(1, 17)) + [24, 48, 96, 256])
def test_numbering_matches_sorted_build(m):
    """Ids written by formula equal those found by sorting, in every
    array and its dtype."""
    mesh, ref = build_unit_square_mesh(m), _sorted_mesh(m)
    for f in dataclasses.fields(Mesh):
        got, want = getattr(mesh, f.name), getattr(ref, f.name)
        assert np.asarray(got).dtype == np.asarray(want).dtype, f.name
        np.testing.assert_array_equal(got, want, err_msg=f.name)


@pytest.mark.parametrize("m", [1, 2, 7, 24])
def test_edge_id_and_grid_match_build(m):
    """The formulas that partition and fem use name the built mesh's own
    edges and vertex coordinates."""
    mesh = build_unit_square_mesh(m)
    x2, y2 = mesh.edge_mid2.T
    np.testing.assert_array_equal(edge_id(m, x2, y2), np.arange(mesh.n_edges))
    grid = grid_coordinates(m)
    iy, ix = np.divmod(np.arange(n_vertices(mesh)), m + 1)
    np.testing.assert_array_equal(mesh.verts, np.column_stack([grid[ix], grid[iy]]))
