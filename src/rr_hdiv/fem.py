"""Lowest-order Raviart-Thomas discretization of the grad-div problem.

The bilinear form is a(u, v) = (div u, div v) + beta (u, v) on H(div) with
vanishing normal trace on the boundary of the unit square. Degrees of
freedom are average normal components across edges; boundary edges are
eliminated. Vector fields are passed as callables f(x, y) -> (fx, fy) that
broadcast over numpy arrays, scalar fields as d(x, y) -> values.

Every triangle of the mesh is a translate of one of its two reference
triangles, the lower and upper halves of cell (0, 0) (`mesh` docstring),
so each per-triangle integral is a lookup into one table per shape,
built from that shape's reference by the mesh's id formulas: its element
matrices, its basis values at the degree-4 quadrature points and its
basis divergences.

Loads and error norms take whole cell rows of one shape at a time
(`_row_blocks`), one matrix product per block, point major: the block's
quadrature points are x values (nq, 1, m) and y values (nq, rows, 1)
that broadcast to (nq, rows, m), so every elementwise loop runs over the
m cells of a row, and a block's field values, (2 nq, rows m), meet the
shape's (3, 2 nq) table in one GEMM with the cells as its long side.
Each block reads or writes its triangles' edges through the strided
views of `mesh.opposite_edge_views`, the loads in one row per edge
orientation (`mesh.SIGNS`), so neither triangle nor edge ids are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels as K
from .mesh import (
    LOWER,
    SIGNS,
    UPPER,
    Mesh,
    boundary_edges,
    edge_kind,
    edge_lengths,
    edge_mid2,
    grid_coordinates,
    opposite_edge_views,
    triangle_cell,
    triangle_edges,
    triangle_vertices,
    vertex_coordinates,
)

# Triangles per block in element_loads and error_norms, rounded down to
# whole cell rows (at least one); bounds the quadrature temporaries on
# fine meshes.
QUAD_BLOCK = 16384


def check_positive(what: str, value: float) -> float:
    """value, if a positive finite number; ValueError otherwise."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _references(m: int):
    """The two reference triangles, LOWER and UPPER, the halves of cell
    (0, 0): vertex coordinates (2, 3, 2), edge lengths (2, 3), edge
    orientations (2, 3) and areas (2,), each area half the cross product
    of the edges from vertex 0."""
    shape = np.array([LOWER, UPPER])
    coords = vertex_coordinates(m, triangle_vertices(m, 0, shape, 0))
    lengths = edge_lengths(m)[edge_kind(*edge_mid2(m, triangle_edges(m, 0, shape, 0)))]
    d1, d2 = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return coords, lengths, SIGNS[shape], area


@dataclass(eq=False)
class _Shape:
    """Quadrature tables shared by every triangle of one shape."""

    offsets: np.ndarray  # (nq, 2) quadrature points minus vertex 0
    values: np.ndarray  # (3, 2 nq) basis i at point q, component d: [i, d nq + q]
    div: np.ndarray  # (3,) basis divergences s_i |e_i| / |K|
    area: float


def _shapes(m: int) -> list:
    """One `_Shape` per triangle shape, LOWER then UPPER, from its
    reference triangle."""
    shapes = []
    for coords, lengths, signs, area in zip(*_references(m)):
        area = float(area)
        div = signs * lengths / area
        pts = K.QUAD4_BARY @ coords
        # phi_i(x) = s_i |e_i| / (2 |K|) (x - p_i), as [i, d, q]
        phi = 0.5 * div[:, None, None] * (pts.T[None] - coords[:, :, None])
        shapes.append(_Shape(offsets=pts - coords[0], values=phi.reshape(3, -1),
                             div=div, area=area))
    return shapes


def _block_rows(m: int) -> int:
    """Cell rows per block of `_row_blocks`: QUAD_BLOCK triangles rounded
    down to whole rows, at least one and at most m."""
    return min(m, max(1, QUAD_BLOCK // m))


def _row_blocks(mesh: Mesh):
    """Yield (shape, kind, rows, x, y) for blocks of whole cell rows of
    one shape, `_block_rows` rows at a time.  `rows` is a slice of cell
    rows, clipped to m; x is (nq, 1, m) and y is (nq, rows, 1), point
    major, so the two broadcast to the block's (nq, rows, m) and every
    inner loop runs over the m cells of a row.  The points of the
    triangle of shape `kind` in cell (cx, cy) are x[:, 0, cx] and
    y[:, cy - rows.start, 0]: the reference's offsets moved by the cell
    corner, which sits at grid coordinates (cx, cy)."""
    m = mesh.m
    grid = grid_coordinates(m)[:-1]
    step = _block_rows(m)
    for kind, shape in enumerate(_shapes(m)):
        x = (grid + shape.offsets[:, :1])[:, None]
        for start in range(0, m, step):
            rows = slice(start, min(start + step, m))
            yield shape, kind, rows, x, (grid[rows] + shape.offsets[:, 1:])[..., None]


@dataclass(eq=False)
class GlobalSystem:
    """Assembled stiffness matrix and load over the free (interior) edges."""

    mesh: Mesh
    beta: float
    A: sp.csr_matrix
    load: np.ndarray
    free_edges: np.ndarray
    edge_to_free: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_edges)


def element_matrices(mesh: Mesh, tri_ids=None):
    """Per-triangle grad-div and mass matrices, each (nt, 3, 3).

    Entry (i, j) couples the edges opposite local vertices i and j.  The
    matrices of the two reference triangles are gathered by shape, so
    congruent triangles get bitwise equal matrices.  Raises ValueError
    for an id outside [0, n_triangles).
    """
    n = mesh.n_triangles
    ids = np.arange(n) if tri_ids is None else np.asarray(tri_ids)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"triangle ids must lie in [0, {n}), "
                         f"got {ids.min()} .. {ids.max()}")
    divdiv, mass = K.element_matrices(*_references(mesh.m))
    _, kind, _ = triangle_cell(mesh.m, ids)
    return divdiv[kind], mass[kind]


def element_loads(mesh: Mesh, field) -> np.ndarray:
    """Edge loads int_K field . phi_e, shape (2, n_edges): row 0 from the
    triangle where the edge's orientation (`mesh.SIGNS`) is +1, row 1
    from the one where it is -1, and 0 where no triangle is (boundary).

    Uses the degree-4 rule, exact for the quadratic manufactured load.
    Triangles of one shape share no edge, so each entry is written once,
    through `mesh.opposite_edge_views`; field components of x or y alone,
    or neither, are broadcast.
    """
    m, nq = mesh.m, K.QUAD4_W.size
    out = np.zeros((2, mesh.n_edges))
    # One field buffer per call, cut to each block's rows.
    field_buf = np.empty(2 * nq * _block_rows(m) * m)
    for shape, kind, rows, x, y in _row_blocks(mesh):
        n = rows.stop - rows.start
        F = field_buf[:2 * nq * n * m].reshape(2, nq, n, m)
        F[0], F[1] = field(x, y)
        table = shape.values.T * (shape.area * np.tile(K.QUAD4_W, 2))[:, None]
        loads = table.T @ F.reshape(2 * nq, n * m)
        views = opposite_edge_views(m, out, kind, rows)
        for i, row in enumerate(SIGNS[kind] < 0):
            views[i][int(row)] = loads[i].reshape(n, m)
    return out


def assemble_matrix(elem: np.ndarray, dofs: np.ndarray, n: int) -> sp.csr_matrix:
    """The n x n sum of the element matrices elem (nt, 3, 3), entry (i, j)
    of triangle t at (dofs[t, i], dofs[t, j]); entries on a dof < 0 are
    dropped.  The result is canonical CSR: sorted indices, no duplicates."""
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (elem.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()


def assemble_global(mesh: Mesh, beta: float, field) -> GlobalSystem:
    """Assemble the SPD stiffness matrix and load on free edges."""
    check_positive("beta", beta)
    divdiv, mass = element_matrices(mesh)
    elem = divdiv + beta * mass

    m = mesh.m
    on_boundary = np.zeros(mesh.n_edges, dtype=bool)
    on_boundary[boundary_edges(m)] = True
    free_edges = np.flatnonzero(~on_boundary)
    edge_to_free = -np.ones(mesh.n_edges, dtype=np.int64)
    edge_to_free[free_edges] = np.arange(len(free_edges))

    # (nt, 3), -1 on boundary edges
    dofs = edge_to_free[triangle_edges(m, *np.ogrid[:m, :2, :m]).reshape(-1, 3)]
    rows = element_loads(mesh, field)
    return GlobalSystem(
        mesh=mesh,
        beta=beta,
        A=assemble_matrix(elem, dofs, len(free_edges)),
        load=(rows[0] + rows[1])[free_edges],
        free_edges=free_edges,
        edge_to_free=edge_to_free,
    )


def error_norms(mesh: Mesh, u: np.ndarray, exact_u, exact_div):
    """L2 and H(div) errors against an exact field and its divergence.

    The H(div) norm is sqrt(l2^2 + ||div u_h - div u||^2). Quadrature is
    the degree-4 rule, exact when the exact field is quadratic.
    """
    m, nq = mesh.m, K.QUAD4_W.size
    u = np.asarray(u, dtype=float)
    # One set of block buffers per call, cut to each block's rows.
    cells = _block_rows(m) * m
    lam_buf, uh_buf, div_buf = (np.empty(k * cells) for k in (3, 2 * nq, nq))
    l2_sq = div_sq = 0.0
    for shape, kind, rows, x, y in _row_blocks(mesh):
        n = rows.stop - rows.start
        lam = lam_buf[:3 * n * m].reshape(3, n, m)
        for i, view in enumerate(opposite_edge_views(m, u, kind, rows)):
            lam[i] = view
        lam = lam.reshape(3, n * m)
        uh = np.matmul(shape.values.T, lam, out=uh_buf[:2 * nq * n * m].reshape(2 * nq, -1))
        uh = uh.reshape(2, nq, n, m)
        for comp, exact in zip(uh, exact_u(x, y)):
            np.subtract(comp, exact, out=comp)
        np.square(uh, out=uh)
        sq = np.add(uh[0], uh[1], out=uh[0])
        l2_sq += shape.area * np.sum(K.QUAD4_W @ sq.reshape(nq, -1))
        dd = np.subtract((shape.div @ lam).reshape(n, m), exact_div(x, y),
                         out=div_buf[:nq * n * m].reshape(nq, n, m))
        div_sq += shape.area * np.sum(K.QUAD4_W @ np.square(dd, out=dd).reshape(nq, -1))
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + div_sq))
