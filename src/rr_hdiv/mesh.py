"""Structured triangulation of the unit square with oriented edge normals.

The unit square is divided into m x m cells and every cell is split by its
bottom-left to top-right diagonal. Each edge carries one degree of freedom
of the lowest-order Raviart-Thomas space (the average normal component
across the edge) and a globally fixed unit normal: (0, 1) for horizontal
edges, (1, 0) for vertical edges, (1, -1)/sqrt(2) for diagonals. Vertex,
edge and triangle ids are lexicographic by geometric position (y first,
then x), so the numbering is reproducible across runs.
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
    def n_vertices(self) -> int:
        return len(self.verts)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.tris)

    def tri_coords(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.verts[self.tris]

    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(~self.edge_boundary)


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

    mp1 = m + 1
    # vertex id = iy * (m+1) + ix is already lexicographic by (y, x)
    ix, iy = np.meshgrid(np.arange(mp1), np.arange(mp1), indexing="xy")
    verts = np.column_stack([ix.ravel() / m, iy.ravel() / m]).astype(float)

    def vid(jx, jy):
        return jy * mp1 + jx

    # Edge ids, lexicographic by doubled midpoint (y, x): row pair jy holds
    # its m horizontals (y2 = 2 jy), then the 2m+1 edges of y2 = 2 jy + 1,
    # vertical and diagonal alternating.  The top row's m horizontals close.
    def hid(jx, jy):
        return jy * (3 * m + 1) + jx

    def vvid(jx, jy):
        return jy * (3 * m + 1) + m + 2 * jx

    def did(jx, jy):
        return jy * (3 * m + 1) + m + 2 * jx + 1

    hx, hy = np.meshgrid(np.arange(m), np.arange(mp1), indexing="xy")
    hx, hy = hx.ravel(), hy.ravel()
    vx, vy = np.meshgrid(np.arange(mp1), np.arange(m), indexing="xy")
    vx, vy = vx.ravel(), vy.ravel()
    cx, cy = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    cx, cy = cx.ravel(), cy.ravel()

    n_edges = 3 * m * m + 2 * m
    ends = np.empty((n_edges, 2), dtype=np.int64)
    mid2 = np.empty((n_edges, 2), dtype=np.int64)
    kind = np.empty(n_edges, dtype=np.int8)
    for ids, kind_id, ends_k, mid2_k in (
        (hid(hx, hy), HORIZONTAL, (vid(hx, hy), vid(hx + 1, hy)), (2 * hx + 1, 2 * hy)),
        (vvid(vx, vy), VERTICAL, (vid(vx, vy), vid(vx, vy + 1)), (2 * vx, 2 * vy + 1)),
        (did(cx, cy), DIAGONAL, (vid(cx, cy), vid(cx + 1, cy + 1)),
         (2 * cx + 1, 2 * cy + 1)),
    ):
        ends[ids] = np.column_stack(ends_k)
        mid2[ids] = np.column_stack(mid2_k)
        kind[ids] = kind_id

    normals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0 / SQRT2, -1.0 / SQRT2]])
    lengths = np.array([1.0 / m, 1.0 / m, SQRT2 / m])
    edge_normal = normals[kind]
    edge_len = lengths[kind]
    on_bnd = (mid2[:, 0] == 0) | (mid2[:, 0] == 2 * m)
    on_bnd |= (mid2[:, 1] == 0) | (mid2[:, 1] == 2 * m)
    edge_boundary = on_bnd & (kind != DIAGONAL)

    # Triangle ids, lexicographic by centroid (y, x): cell row cy holds
    # its m lower triangles, then its m upper ones, t = cy 2m + shape m + cx.
    # lower triangle (bl, br, tr): opposite edges (right, diagonal, bottom)
    # upper triangle (bl, tr, tl): opposite edges (top, left, diagonal)
    low_v = np.column_stack([vid(cx, cy), vid(cx + 1, cy), vid(cx + 1, cy + 1)])
    low_e = np.column_stack([vvid(cx + 1, cy), did(cx, cy), hid(cx, cy)])
    up_v = np.column_stack([vid(cx, cy), vid(cx + 1, cy + 1), vid(cx, cy + 1)])
    up_e = np.column_stack([hid(cx, cy + 1), vvid(cx, cy), did(cx, cy)])

    def by_row(low, up):
        return np.stack([low.reshape(m, m, -1), up.reshape(m, m, -1)], axis=1)

    tris = by_row(low_v, up_v).reshape(-1, 3)
    tri_edges = by_row(low_e, up_e).reshape(-1, 3)
    tri_shape = np.tile(np.repeat(np.array([LOWER, UPPER], dtype=np.int8), m), m)

    coords = verts[tris]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    return Mesh(
        m=m,
        h=1.0 / m,
        verts=verts,
        edges=ends,
        edge_normal=edge_normal,
        edge_len=edge_len,
        edge_boundary=edge_boundary,
        edge_kind=kind,
        edge_mid2=mid2,
        tris=tris,
        tri_edges=tri_edges,
        tri_signs=SIGNS[tri_shape],
        tri_area=area,
        tri_shape=tri_shape,
    )


def classify_boundary(mesh: Mesh) -> np.ndarray:
    """Edge ids lying on the boundary of the unit square.

    Recomputed from vertex coordinates (both endpoints on one boundary
    line), independently of the flags stored at build time.
    """
    p = mesh.verts[mesh.edges[:, 0]]
    q = mesh.verts[mesh.edges[:, 1]]
    on_line = np.zeros(mesh.n_edges, dtype=bool)
    for axis in (0, 1):
        for value in (0.0, 1.0):
            on_line |= (np.abs(p[:, axis] - value) < 1e-12) & (
                np.abs(q[:, axis] - value) < 1e-12
            )
    return np.flatnonzero(on_line)


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
