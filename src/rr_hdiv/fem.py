"""Lowest-order Raviart-Thomas discretization of the grad-div problem.

The bilinear form is a(u, v) = (div u, div v) + beta (u, v) on H(div) with
vanishing normal trace on the boundary of the unit square. Degrees of
freedom are average normal components across edges; boundary edges are
eliminated. Vector fields are passed as callables f(x, y) -> (fx, fy) that
broadcast over numpy arrays, scalar fields as d(x, y) -> values.

Every triangle of the mesh is a translate of one of two shapes
(`Mesh.tri_shape`), so each per-triangle integral is a lookup into one
table per shape, built on the first triangle of that shape: its element
matrices, its basis values at the degree-4 quadrature points and its
basis divergences.  Before any table is used for a mesh, every triangle
of it is checked congruent to its shape's reference, once per mesh
object (`_check_congruent`, run by the first of element_matrices,
element_loads or error_norms to see the mesh): the shape and
vertex ids its place in the mesh numbering gives, equal edge orientations
and edge kinds, and area and edge lengths equal to round-off, with the
vertices at the grid coordinates; a mismatch raises ValueError naming the
triangle.  Loads and error norms take whole cell rows of one shape at
a time (`_row_blocks`), one matrix product per block.  The quadrature
points of a block are one row of x values and one column of y values
that broadcast against each other, and each block reads and writes the
(cell row, shape, cell column) view of the per-triangle tables, so no
triangle ids are formed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels as K
from .mesh import LOWER, UPPER, Mesh, grid_coordinates

# Triangles per block in element_loads and error_norms, rounded down to
# whole cell rows (at least one); bounds the quadrature temporaries on
# fine meshes.
QUAD_BLOCK = 16384

# Relative tolerance for areas and edge lengths of congruent triangles.
# Both are computed from vertex coordinates of size one, so on an m x m
# mesh their round-off is about m times machine epsilon, relative.
ROUNDOFF = 1e-9


def check_positive(what: str, value: float) -> float:
    """value, if a positive finite number; ValueError otherwise."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


@dataclass(eq=False)
class _Shape:
    """Quadrature tables shared by every triangle of one shape."""

    ref: int  # reference triangle: the first of this shape
    offsets: np.ndarray  # (nq, 2) quadrature points minus vertex 0
    values: np.ndarray  # (3, 2 nq) basis i at point q, component d: [i, d nq + q]
    div: np.ndarray  # (3,) basis divergences s_i |e_i| / |K|
    area: float


# The shape tables of every mesh checked so far, by mesh object: the
# congruence pass runs once per mesh, on its first use here.  A Mesh is
# not changed once built; a modified copy is a new object and is checked
# afresh.
_CHECKED = weakref.WeakKeyDictionary()


def _shapes(mesh: Mesh) -> list:
    """One `_Shape` per triangle shape, indexed by `Mesh.tri_shape`, after
    the mesh has passed `_check_congruent` (once per mesh)."""
    shapes = _CHECKED.get(mesh)
    if shapes is None:
        shapes = _CHECKED[mesh] = _check_congruent(mesh)
    return shapes


def _shape(mesh: Mesh, ref: int) -> _Shape:
    """The quadrature tables of reference triangle `ref`."""
    area = float(mesh.tri_area[ref])
    if area <= 0.0:
        raise ValueError(f"triangle {ref}: non-positive triangle area")
    coords = mesh.verts[mesh.tris[ref]]
    div = mesh.tri_signs[ref] * mesh.edge_len[mesh.tri_edges[ref]] / area
    pts = K.QUAD4_BARY @ coords
    # phi_i(x) = s_i |e_i| / (2 |K|) (x - p_i), as [i, d, q]
    phi = 0.5 * div[:, None, None] * (pts.T[None] - coords[:, :, None])
    return _Shape(ref=ref, offsets=pts - coords[0], values=phi.reshape(3, -1),
                  div=div, area=area)


def _check_congruent(mesh: Mesh) -> list:
    """Check every triangle against the reference of its shape; return
    the shape tables.

    Triangle t = cy 2m + shape m + cx (`mesh` docstring) must have the
    shape of its place in that row pattern and the vertex ids of its
    shape's reference moved to its cell (so the reference's vertex
    offsets, and its first vertex at the cell's bottom-left corner), the
    reference's edge orientations and edge kinds, and its area and edge
    lengths to ROUNDOFF.  The vertices must sit at `grid_coordinates`.
    Together these make every quadrature point the reference's moved by
    the cell corner.  Each table is compared one cell row at a time with
    the row its references give, with no gather beyond the edge kinds
    and lengths; raises ValueError naming the first triangle that fails,
    or the first misplaced vertex.
    """
    m = mesh.m
    grid = grid_coordinates(m)
    verts = mesh.verts.reshape(m + 1, m + 1, 2)
    misplaced = (verts[..., 0] != grid) | (verts[..., 1] != grid[:, None])
    if misplaced.any():
        raise ValueError(
            f"vertex {np.argmax(misplaced)}: coordinates differ from "
            f"(ix/m, iy/m) of its id"
        )

    def in_rows(table):
        """One cell row per row: (m, 2m) or (m, 2m k)."""
        return table.reshape(m, -1)

    def row_of(per_shape):
        """The values of one cell row from those of the two shapes."""
        return np.repeat(per_shape, m, axis=0).ravel()

    def check(bad, what):
        if bad.any():
            t = int(np.argmax(bad.reshape(2 * m * m, -1).any(axis=1)))
            ref = t // m % 2 * m
            raise ValueError(f"triangle {t}: " + what.format(ref=ref))

    differ = "{} differ from those of reference triangle {{ref}} of its shape"
    check(in_rows(mesh.tri_shape) != row_of(np.array([LOWER, UPPER])),
          "shape is not that of its place in the row pattern")
    shapes = [_shape(mesh, kind * m) for kind in (LOWER, UPPER)]
    refs = [shape.ref for shape in shapes]
    ref_edges = mesh.tri_edges[refs]
    offsets = mesh.tris[refs] - mesh.tris[refs, :1]
    first_row = (np.arange(m)[:, None] + offsets[:, None]).ravel()
    check(in_rows(mesh.tris) - (m + 1) * np.arange(m)[:, None] != first_row,
          "vertex ids are not those of reference triangle {ref} moved to its cell")
    check(in_rows(mesh.tri_signs) != row_of(mesh.tri_signs[refs]),
          differ.format("edge orientations"))
    check(in_rows(np.take(mesh.edge_kind, mesh.tri_edges))
          != row_of(mesh.edge_kind[ref_edges]), differ.format("edge kinds"))
    area = row_of(np.array([shape.area for shape in shapes]))
    check(np.abs(in_rows(mesh.tri_area) - area) > ROUNDOFF * area,
          differ.format("area"))
    length = row_of(mesh.edge_len[ref_edges])
    check(np.abs(in_rows(np.take(mesh.edge_len, mesh.tri_edges)) - length)
          > ROUNDOFF * length, differ.format("edge lengths"))
    return shapes


def _row_blocks(mesh: Mesh):
    """Yield (shape, kind, rows, x, y) for blocks of whole cell rows of
    one shape, max(1, QUAD_BLOCK // m) rows at a time, after the mesh has
    passed `_check_congruent`.  `rows` is a slice of cell rows; x is
    (1, m, nq) and y is (rows, 1, nq), so the two broadcast to the
    block's (rows, m, nq).  The points of the triangle of shape `kind` in
    cell (cx, cy) are x[0, cx] and y[cy - rows.start, 0]: the reference's
    offsets moved by the cell corner, which sits at grid coordinates
    (cx, cy)."""
    m = mesh.m
    grid = grid_coordinates(m)[:-1, None]
    step = max(1, QUAD_BLOCK // m)
    for kind, shape in enumerate(_shapes(mesh)):
        x = (grid + shape.offsets[:, 0])[None]
        for start in range(0, m, step):
            rows = slice(start, start + step)
            yield shape, kind, rows, x, (grid[rows] + shape.offsets[:, 1])[:, None]


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
    congruent triangles get bitwise equal matrices.
    """
    ids = np.arange(mesh.n_triangles) if tri_ids is None else np.asarray(tri_ids)
    if np.any(mesh.tri_area[ids] <= 0.0):
        raise ValueError("non-positive triangle area")
    refs = [shape.ref for shape in _shapes(mesh)]
    kind = mesh.tri_shape[ids]
    divdiv, mass = K.element_matrices(
        mesh.verts[mesh.tris[refs]],
        mesh.edge_len[mesh.tri_edges[refs]],
        mesh.tri_signs[refs],
        mesh.tri_area[refs],
    )
    return divdiv[kind], mass[kind]


def element_loads(mesh: Mesh, field) -> np.ndarray:
    """Per-triangle load contributions int_K field . phi, shape (nt, 3).

    Uses the degree-4 rule, exact for the quadratic manufactured load.
    Each block is written into its (cell row, shape, cell column) view of
    the result; field components that depend on x or y alone, or neither,
    are broadcast to the block.
    """
    m, nq = mesh.m, K.QUAD4_W.size
    out = np.empty((mesh.n_triangles, 3))
    cells = out.reshape(m, 2, m, 3)
    for shape, kind, rows, x, y in _row_blocks(mesh):
        block = (y.shape[0], m, nq)
        table = shape.values.T * (shape.area * np.tile(K.QUAD4_W, 2))[:, None]
        # One statement, so the block's field values are freed before the
        # next block evaluates its own.
        cells[rows, kind] = np.concatenate(
            [np.broadcast_to(c, block) for c in field(x, y)], axis=2) @ table
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

    edge_to_free = -np.ones(mesh.n_edges, dtype=np.int64)
    free_edges = np.flatnonzero(~mesh.edge_boundary)
    edge_to_free[free_edges] = np.arange(len(free_edges))

    dofs = edge_to_free[mesh.tri_edges]  # (nt, 3), -1 on boundary edges
    n = len(free_edges)
    free = dofs >= 0
    load = np.bincount(dofs[free], element_loads(mesh, field)[free], minlength=n)
    return GlobalSystem(
        mesh=mesh,
        beta=beta,
        A=assemble_matrix(elem, dofs, n),
        load=load,
        free_edges=free_edges,
        edge_to_free=edge_to_free,
    )


def error_norms(mesh: Mesh, u: np.ndarray, exact_u, exact_div):
    """L2 and H(div) errors against an exact field and its divergence.

    The H(div) norm is sqrt(l2^2 + ||div u_h - div u||^2). Quadrature is
    the degree-4 rule, exact when the exact field is quadratic.
    """
    m, nq = mesh.m, K.QUAD4_W.size
    tri_edges = mesh.tri_edges.reshape(m, 2, m, 3)
    # One set of block buffers per call, cut to each block's rows.
    most = min(m, max(1, QUAD_BLOCK // m))
    lam_buf = np.empty((most, m, 3))
    uh_buf = np.empty((most, m, 2 * nq))
    sq_buf = np.empty((2, most, m, nq))
    div_buf = np.empty((most, m))
    l2_sq = div_sq = 0.0
    for shape, kind, rows, x, y in _row_blocks(mesh):
        edges = tri_edges[rows, kind]
        lam = np.take(u, edges, out=lam_buf[:len(edges)])
        uh = np.matmul(lam, shape.values, out=uh_buf[:len(edges)])
        ex, ey = exact_u(x, y)
        sq = sq_buf[:, :len(edges)]
        np.subtract(uh[..., :nq], ex, out=sq[0])
        np.subtract(uh[..., nq:], ey, out=sq[1])
        np.square(sq, out=sq)
        l2_sq += shape.area * np.sum(np.add(sq[0], sq[1], out=sq[0]) @ K.QUAD4_W)
        dd = np.subtract(np.matmul(lam, shape.div, out=div_buf[:len(edges)])[..., None],
                         exact_div(x, y), out=sq[1])
        div_sq += shape.area * np.sum(np.square(dd, out=dd) @ K.QUAD4_W)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + div_sq))

