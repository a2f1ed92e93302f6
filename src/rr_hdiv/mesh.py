"""Structured triangulation of the unit square, as id formulas.

The unit square is divided into m x m cells and every cell is split by its
bottom-left to top-right diagonal. Each edge carries one degree of freedom
of the lowest-order Raviart-Thomas space (the average normal component
across the edge) and a globally fixed unit normal: (0, 1) for horizontal
edges, (1, 0) for vertical edges, (1, -1)/sqrt(2) for diagonals. Vertex,
edge and triangle ids are lexicographic by geometric position (y first,
then x), so the numbering is reproducible across runs.

This module is the one owner of that numbering.  A `Mesh` holds only its
resolution m: every id is a formula in the grid position, and the
functions below give it, vectorised, for just the ids a caller needs.

- Vertex iy (m+1) + ix sits at (grid[ix], grid[iy]), grid =
  `grid_coordinates(m)` (`vertex_coordinates`).
- An edge is named by its doubled midpoint (x2, y2), coordinates times
  2m (`edge_id` and its inverse `edge_mid2`).  Its kind follows from the
  parity of that midpoint (`edge_kind`), and its normal and length from
  its kind (`NORMALS`, `edge_lengths`).  `boundary_edges` lists the 4m
  edges on the boundary of the square.
- Triangle t = cy 2m + shape m + cx is the lower (shape 0) or upper
  (shape 1) half of cell (cx, cy) (`triangle_id`, `triangle_cell`).  Its vertex ids and
  the ids of the edges opposite them are its shape's row pattern plus
  the offset of its cell (`triangle_vertices`, `triangle_edges`), so
  every triangle is a translate of one of two reference triangles, the
  halves of cell (0, 0), with its vertices and edges in the same order.
- Edges are also a lattice: along the last axis of any (..., n_edges)
  array, `edge_views` gives the horizontals (m+1, m), the verticals
  (m, m+1) and the diagonals (m, m) as strided views, row stride 3m+1,
  and `opposite_edge_views` the three (rows, m) views of the edges
  opposite vertices 0, 1 and 2 of one shape over a block of cell rows.
  Code that visits every triangle of a shape reads and writes edge
  values through these, with no id array formed.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# edge kinds
HORIZONTAL, VERTICAL, DIAGONAL = 0, 1, 2

# The fixed unit normal of each edge kind.
NORMALS = np.array([[0.0, 1.0], [1.0, 0.0], [1.0 / SQRT2, -1.0 / SQRT2]])

# triangle shapes: lower (bl, br, tr) and upper (bl, tr, tl)
LOWER, UPPER = 0, 1

# Orientation of the edge opposite each vertex, per shape: +1 where the
# edge's fixed normal points out of the triangle.  Lower: right (1, 0)
# out, diagonal (1, -1) in, bottom (0, 1) in; upper: top (0, 1) out,
# left (1, 0) in, diagonal (1, -1) out.
SIGNS = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 1.0]])

# Doubled midpoints of the edges opposite each vertex, relative to the
# cell's bottom-left corner (2 cx, 2 cy), as [shape, axis, k]: lower
# (right, diagonal, bottom), upper (top, left, diagonal).
OPPOSITE_MID2 = np.array([[[2, 1, 1], [1, 1, 0]], [[1, 0, 1], [2, 1, 1]]])


@dataclass(frozen=True)
class Mesh:
    """The m x m mesh of the unit square; every table is a formula in m.

    Counts satisfy nv = (m+1)^2, nt = 2 m^2, ne = 3 m^2 + 2 m, with 4 m
    boundary edges.
    """

    m: int

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def n_edges(self) -> int:
        return 3 * self.m * self.m + 2 * self.m

    @property
    def n_triangles(self) -> int:
        return 2 * self.m * self.m


def grid_coordinates(m: int) -> np.ndarray:
    """The coordinates i/m, i = 0..m, of the mesh lines: vertex
    iy (m+1) + ix sits at (grid[ix], grid[iy])."""
    return np.arange(m + 1) / m


def vertex_coordinates(m: int, v) -> np.ndarray:
    """Coordinates (..., 2) of vertex ids v."""
    iy, ix = np.divmod(v, m + 1)
    grid = grid_coordinates(m)
    return np.stack([grid[ix], grid[iy]], axis=-1)


def edge_id(m: int, x2, y2):
    """Id of the edge at doubled midpoint (x2, y2): row pair y2 // 2
    starts at (3m+1)(y2 // 2) with its horizontals (x2 = 2 jx + 1, even
    y2), then its verticals and diagonals (x2 = 0 .. 2m, odd y2)."""
    return (y2 // 2) * (3 * m + 1) + np.where(y2 % 2, m + x2, (x2 - 1) // 2)


def edge_mid2(m: int, e):
    """Doubled midpoints (x2, y2) of edge ids e; the inverse of `edge_id`."""
    row, k = np.divmod(e, 3 * m + 1)
    return np.where(k < m, 2 * k + 1, k - m), 2 * row + (k >= m)


def edge_kind(x2, y2):
    """HORIZONTAL (even y2), VERTICAL (odd y2, even x2) or DIAGONAL (both
    odd) for the edges at doubled midpoints (x2, y2)."""
    return y2 % 2 * (1 + x2 % 2)


def edge_lengths(m: int) -> np.ndarray:
    """The length of each edge kind."""
    return np.array([1.0 / m, 1.0 / m, SQRT2 / m])


def boundary_edges(m: int) -> np.ndarray:
    """The 4m edge ids on the boundary of the square, increasing: the
    bottom row's horizontals, the verticals at x2 = 0 and 2m of each row
    pair, and the top row's horizontals."""
    row = 3 * m + 1
    sides = row * np.arange(m)[:, None] + [m, 3 * m]
    return np.concatenate([np.arange(m), sides.ravel(), m * row + np.arange(m)])


def triangle_id(m: int, cy, shape, cx):
    """Id of the triangle of `shape` in cell (cx, cy)."""
    return 2 * m * cy + m * shape + cx


def triangle_cell(m: int, t):
    """(cell row cy, shape, cell column cx) of triangle ids t; the
    inverse of `triangle_id`."""
    cy, rest = np.divmod(t, 2 * m)
    shape, cx = np.divmod(rest, m)
    return cy, shape, cx


def triangle_vertices(m: int, cy, shape, cx) -> np.ndarray:
    """Vertex ids (..., 3) of the triangle of `shape` in cell (cx, cy),
    the arguments broadcast against each other: lower (bl, br, tr), upper
    (bl, tr, tl)."""
    mp1 = m + 1
    offsets = np.array([[0, 1, mp1 + 1], [0, mp1 + 1, mp1]])
    corner = mp1 * np.asarray(cy) + cx
    return corner[..., None] + offsets[shape]


def triangle_edges(m: int, cy, shape, cx) -> np.ndarray:
    """Ids (..., 3) of the edges opposite the vertices of the triangle of
    `shape` in cell (cx, cy), the arguments broadcast against each other.

    The ids of cell row 0 plus (3m+1) cy: the pattern is formed only over
    the shapes and columns asked for, and the row offset added after.
    """
    x2 = 2 * np.asarray(cx)[..., None] + OPPOSITE_MID2[shape, 0]
    row0 = edge_id(m, x2, OPPOSITE_MID2[shape, 1])
    return (3 * m + 1) * np.asarray(cy)[..., None] + row0


def edge_views(m: int, a: np.ndarray):
    """(H, V, D): strided views of the horizontal, vertical and diagonal
    edges along the last axis of a (..., n_edges) array.

    H[..., iy, ix] (m+1, m) is the horizontal at doubled midpoint
    (2 ix + 1, 2 iy), V[..., cy, ix] (m, m+1) the vertical at (2 ix,
    2 cy + 1) and D[..., cy, cx] (m, m) the diagonal of cell (cx, cy), at
    (2 cx + 1, 2 cy + 1).  Each row pair of `edge_id` is 3m+1 ids long,
    so that is the row stride of all three; the verticals and diagonals
    of a row pair interleave, so theirs step by 2.  The views write
    through to `a` where it is writeable.
    """
    if a.shape[-1] != 3 * m * m + 2 * m:
        raise ValueError(f"last axis has {a.shape[-1]} entries, "
                         f"expected {3 * m * m + 2 * m} edges of an m={m} mesh")
    lead, step = a.strides[:-1], a.strides[-1]

    def view(first, shape, stride):
        return np.lib.stride_tricks.as_strided(
            a[..., first:], a.shape[:-1] + shape,
            lead + ((3 * m + 1) * step, stride * step))

    return view(0, (m + 1, m), 1), view(m, (m, m + 1), 2), view(m + 1, (m, m), 2)


def opposite_edge_views(m: int, a: np.ndarray, shape: int, rows=slice(None)):
    """Views (..., rows, m) of the edges opposite vertices 0, 1 and 2 of
    the triangles of `shape` in the cell rows `rows` (a slice), along the
    last axis of a (..., n_edges) array: entry [..., cy - rows.start, cx]
    of view i is the edge opposite vertex i of the triangle in cell
    (cx, cy), as in `triangle_edges`.  Lower triangles take the right
    verticals, the diagonals and the bottom horizontals; upper ones the
    top horizontals, the left verticals and the diagonals."""
    H, V, D = edge_views(m, a)
    if shape == LOWER:
        return V[..., rows, 1:], D[..., rows, :], H[..., :-1, :][..., rows, :]
    return H[..., 1:, :][..., rows, :], V[..., rows, :-1], D[..., rows, :]


def build_unit_square_mesh(m: int) -> Mesh:
    """The m x m mesh of [0, 1]^2, one diagonal per cell.

    Every cell is split by its bottom-left to top-right diagonal, so of
    the square's symmetries the mesh keeps only the reflection x <-> y,
    the half-turn about (1/2, 1/2) and their product.
    """
    if m < 1:
        raise ValueError(f"mesh resolution must be at least 1, got {m}")
    return Mesh(m)


def dump_mesh_csv(mesh: Mesh, directory: str) -> None:
    """Write vertex, edge and triangle tables as CSV files for debugging.

    Triangle areas are computed from the vertex coordinates, as
    differences of grid coordinates, so they are the same doubles as a
    per-triangle cross product (not the closed form 1/(2m^2), which
    differs at non-dyadic m).
    """
    m = mesh.m
    os.makedirs(directory, exist_ok=True)

    def write(name, header, rows):
        with open(os.path.join(directory, name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    xy = vertex_coordinates(m, np.arange((m + 1) ** 2)).tolist()
    write("vertices.csv", ["id", "x", "y"],
          ([i, f"{x:.17g}", f"{y:.17g}"] for i, (x, y) in enumerate(xy)))

    x2, y2 = edge_mid2(m, np.arange(mesh.n_edges))
    kind = edge_kind(x2, y2)
    v0 = (y2 // 2) * (m + 1) + x2 // 2
    v1 = v0 + np.array([1, m + 1, m + 2])[kind]
    boundary = np.zeros(mesh.n_edges, dtype=int)
    boundary[boundary_edges(m)] = 1
    length = edge_lengths(m)[kind]
    columns = zip(v0.tolist(), v1.tolist(), kind.tolist(), NORMALS[kind].tolist(),
                  length.tolist(), boundary.tolist())
    write("edges.csv", ["id", "v0", "v1", "kind", "nx", "ny", "length", "boundary"],
          ([i, a, b, k, f"{nx:.17g}", f"{ny:.17g}", f"{n:.17g}", bnd]
           for i, (a, b, k, (nx, ny), n, bnd) in enumerate(columns)))

    cells = np.ogrid[:m, :2, :m]
    step = np.diff(grid_coordinates(m))
    area = np.broadcast_to((0.5 * np.multiply.outer(step, step))[:, None], (m, 2, m))
    columns = zip(triangle_vertices(m, *cells).reshape(-1, 3).tolist(),
                  triangle_edges(m, *cells).reshape(-1, 3).tolist(),
                  np.broadcast_to(SIGNS[:, None], (m, 2, m, 3)).reshape(-1, 3)
                  .astype(int).tolist(),
                  area.ravel().tolist())
    write("triangles.csv",
          ["id", "v0", "v1", "v2", "e0", "e1", "e2", "s0", "s1", "s2", "area"],
          ([t, *v, *e, *s, f"{a:.17g}"] for t, (v, e, s, a) in enumerate(columns)))
