"""Structured triangulation of the unit square with oriented edge normals.

The unit square is divided into m x m cells and every cell is split by its
bottom-left to top-right diagonal. Each edge carries one degree of freedom
of the lowest-order Raviart-Thomas space (the average normal component
across the edge) and a globally fixed unit normal: (0, 1) for horizontal
edges, (1, 0) for vertical edges, (1, -1)/sqrt(2) for diagonals. Vertex,
edge and triangle ids are lexicographic by geometric position (y first,
then x), so the numbering is reproducible across runs, and each id is a
formula in the grid position: vertex iy (m+1) + ix sits at
(grid_coordinates(m)[ix], grid_coordinates(m)[iy]), `edge_id` gives an
edge's id from its doubled midpoint, and triangle t = cy 2m + shape m + cx
is the lower (shape 0) or upper (shape 1) half of cell (cx, cy).

The build writes every table from that structure: one row pattern plus a
per-row offset, with no scatter or gather over the whole mesh.  Triangle
areas are still computed from the vertex coordinates, as differences of
grid coordinates, so they are the same doubles as a per-triangle cross
product (not the closed form 1/(2m^2), which differs at non-dyadic m).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# edge kinds
HORIZONTAL, VERTICAL, DIAGONAL = 0, 1, 2

# triangle shapes: lower (bl, br, tr) and upper (bl, tr, tl)
LOWER, UPPER = 0, 1

# Orientation of the edge opposite each vertex, per shape: +1 where the
# edge's fixed normal points out of the triangle.  Lower: right (1, 0)
# out, diagonal (1, -1) in, bottom (0, 1) in; upper: top (0, 1) out,
# left (1, 0) in, diagonal (1, -1) out.
SIGNS = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 1.0]])


@dataclass(eq=False)
class Mesh:
    """Triangle mesh with edge-based connectivity.

    tri_edges[t, k] is the edge opposite vertex tris[t, k]; tri_signs[t, k]
    is +1 when that edge's global normal points out of triangle t.
    tri_shape[t] is LOWER or UPPER: every triangle is a translate of the
    lower or the upper half of a cell, with its vertices in the same order.
    edge_mid2 holds edge midpoints in half-cell integer steps (coordinates
    times 2m), which keeps boundary and interface classification exact.
    """

    m: int
    h: float
    verts: np.ndarray
    edges: np.ndarray
    edge_normal: np.ndarray
    edge_len: np.ndarray
    edge_boundary: np.ndarray
    edge_kind: np.ndarray
    edge_mid2: np.ndarray
    tris: np.ndarray
    tri_edges: np.ndarray
    tri_signs: np.ndarray
    tri_area: np.ndarray
    tri_shape: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.tris)


def grid_coordinates(m: int) -> np.ndarray:
    """The coordinates i/m, i = 0..m, of the mesh lines: vertex
    iy (m+1) + ix sits at (grid[ix], grid[iy])."""
    return np.arange(m + 1) / m


def edge_id(m: int, x2, y2):
    """Id of the edge at doubled midpoint (x2, y2) in the numbering of
    `build_unit_square_mesh`: row pair y2 // 2 starts at (3m+1)(y2 // 2)
    with its horizontals (x2 = 2 jx + 1, even y2), then its verticals and
    diagonals (x2 = 0 .. 2m, odd y2)."""
    return (y2 // 2) * (3 * m + 1) + np.where(y2 % 2, m + x2, (x2 - 1) // 2)


def build_unit_square_mesh(m: int) -> Mesh:
    """Build the m x m mesh of [0, 1]^2, one diagonal per cell.

    Every cell is split by its bottom-left to top-right diagonal, so of
    the square's symmetries the mesh keeps only the reflection x <-> y,
    the half-turn about (1/2, 1/2) and their product.

    Counts satisfy nv = (m+1)^2, nt = 2 m^2, ne = 3 m^2 + 2 m, with 4 m
    boundary edges.
    """
    if m < 1:
        raise ValueError(f"mesh resolution must be at least 1, got {m}")

    # Every table is one row pattern plus a per-row offset: cell row cy
    # (vertex row iy, edge row pair jy) is row 0 moved up by cy rows.
    mp1, row = m + 1, 3 * m + 1
    x = np.arange(mp1)
    grid = grid_coordinates(m)
    verts = np.empty((mp1, mp1, 2))
    verts[..., 0] = grid
    verts[..., 1] = grid[:, None]

    # Edge ids, lexicographic by doubled midpoint (y, x): row pair jy holds
    # its m horizontals (y2 = 2 jy), then the 2m+1 edges of y2 = 2 jy + 1,
    # vertical and diagonal alternating (x2 = 0 .. 2m).  The top row's m
    # horizontals close, so the last 2m+1 entries of row pair m are cut.
    n_edges = 3 * m * m + 2 * m
    x2 = np.arange(2 * m + 1)
    kind0 = np.full(row, HORIZONTAL, dtype=np.int8)
    kind0[m:] = np.where(x2 % 2, DIAGONAL, VERTICAL)
    ends0 = np.empty((row, 2), dtype=np.int64)
    ends0[:m, 0] = x[:m]
    ends0[:m, 1] = x[1:]
    ends0[m:, 0] = x2 // 2
    ends0[m:, 1] = x2 // 2 + mp1 + x2 % 2
    mid0 = np.empty((row, 2), dtype=np.int64)
    mid0[:m, 0] = 2 * x[:m] + 1
    mid0[:m, 1] = 0
    mid0[m:, 0] = x2
    mid0[m:, 1] = 1
    rows = x[:, None, None]
    ends = (ends0 + mp1 * rows).reshape(-1, 2)[:n_edges]
    mid2 = (mid0 + np.array([0, 2]) * rows).reshape(-1, 2)[:n_edges]
    kind = np.tile(kind0, mp1)[:n_edges]

    normals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0 / SQRT2, -1.0 / SQRT2]])
    lengths = np.array([1.0 / m, 1.0 / m, SQRT2 / m])
    edge_normal = np.tile(normals[kind0], (mp1, 1))[:n_edges]
    edge_len = np.tile(lengths[kind0], mp1)[:n_edges]
    # On the boundary: the verticals at x2 = 0 and 2m of every row pair and
    # the horizontals of the bottom and top rows.
    bnd0 = np.zeros(row, dtype=bool)
    bnd0[[m, row - 1]] = True
    edge_boundary = np.tile(bnd0, mp1)[:n_edges]
    edge_boundary[:m] = True
    edge_boundary[-m:] = True

    # Triangle ids, lexicographic by centroid (y, x): cell row cy holds
    # its m lower triangles, then its m upper ones, t = cy 2m + shape m + cx.
    # lower triangle (bl, br, tr): opposite edges (right, diagonal, bottom)
    # upper triangle (bl, tr, tl): opposite edges (top, left, diagonal)
    # Row 0 as (shape, cx, k); the opposite edges by their doubled
    # midpoints relative to (2 cx, 0).
    cx = x[:m, None]
    tris0 = np.stack([cx + [0, 1, mp1 + 1], cx + [0, mp1 + 1, mp1]])
    edges0 = edge_id(m, 2 * cx + np.array([[[2, 1, 1]], [[1, 0, 1]]]),
                     np.array([[[1, 1, 0]], [[2, 1, 1]]]))
    rows = x[:m, None, None, None]
    tris = (tris0 + mp1 * rows).reshape(-1, 3)
    tri_edges = (edges0 + row * rows).reshape(-1, 3)
    tri_shape = np.tile(np.repeat(np.array([LOWER, UPPER], dtype=np.int8), m), m)

    # Area from the vertex coordinates, without gathering them: in both
    # shapes one term of the cross product d1 x d2 of the edges from vertex
    # 0 is an exact zero, and the other is (x[cx+1] - x[cx]) (y[cy+1] - y[cy]).
    step = np.diff(grid)
    area = np.broadcast_to((0.5 * np.multiply.outer(step, step))[:, None],
                           (m, 2, m)).reshape(-1)

    return Mesh(
        m=m,
        h=1.0 / m,
        verts=verts.reshape(-1, 2),
        edges=ends,
        edge_normal=edge_normal,
        edge_len=edge_len,
        edge_boundary=edge_boundary,
        edge_kind=kind,
        edge_mid2=mid2,
        tris=tris,
        tri_edges=tri_edges,
        tri_signs=np.tile(np.repeat(SIGNS, m, axis=0), (m, 1)),
        tri_area=area,
        tri_shape=tri_shape,
    )


def dump_mesh_csv(mesh: Mesh, directory: str) -> None:
    """Write vertex, edge and triangle tables as CSV files for debugging."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "vertices.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "x", "y"])
        for i, (x, y) in enumerate(mesh.verts):
            w.writerow([i, f"{x:.17g}", f"{y:.17g}"])
    with open(os.path.join(directory, "edges.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "v0", "v1", "kind", "nx", "ny", "length", "boundary"])
        for i in range(mesh.n_edges):
            w.writerow(
                [
                    i,
                    mesh.edges[i, 0],
                    mesh.edges[i, 1],
                    int(mesh.edge_kind[i]),
                    f"{mesh.edge_normal[i, 0]:.17g}",
                    f"{mesh.edge_normal[i, 1]:.17g}",
                    f"{mesh.edge_len[i]:.17g}",
                    int(mesh.edge_boundary[i]),
                ]
            )
    with open(os.path.join(directory, "triangles.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "v0", "v1", "v2", "e0", "e1", "e2", "s0", "s1", "s2", "area"])
        for t in range(mesh.n_triangles):
            w.writerow(
                [t]
                + [int(v) for v in mesh.tris[t]]
                + [int(e) for e in mesh.tri_edges[t]]
                + [int(s) for s in mesh.tri_signs[t]]
                + [f"{mesh.tri_area[t]:.17g}"]
            )
