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
basis divergences.  A triangle is checked congruent to its shape's
reference before a table is used for it: equal vertex-id offsets, edge
orientations and edge kinds, and area and edge lengths equal to
round-off; a mismatch raises ValueError naming the triangle.  Loads and
error norms take QUAD_BLOCK triangles of one shape at a time, one matrix
product per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels as K
from .mesh import LOWER, UPPER, Mesh

# Triangles per block in element_loads, error_norms and divergence; bounds
# the quadrature temporaries on fine meshes.
QUAD_BLOCK = 16384

# Relative tolerance for areas and edge lengths of congruent triangles.
# Both are computed from vertex coordinates of size one, so on an m x m
# mesh their round-off is about m times machine epsilon, relative.
ROUNDOFF = 1e-9


@dataclass(eq=False)
class _Shape:
    """Quadrature tables shared by every triangle of one shape."""

    ref: int  # reference triangle: the first of this shape
    offsets: np.ndarray  # (nq, 2) quadrature points minus vertex 0
    values: np.ndarray  # (3, 2 nq) basis i at point q, component d: [i, d nq + q]
    div: np.ndarray  # (3,) basis divergences s_i |e_i| / |K|
    area: float


def _shapes(mesh: Mesh) -> list:
    """One `_Shape` per triangle shape, indexed by `Mesh.tri_shape`."""
    shapes = []
    for kind in (LOWER, UPPER):
        ref = int(np.argmax(mesh.tri_shape == kind))
        area = float(mesh.tri_area[ref])
        if area <= 0.0:
            raise ValueError(f"triangle {ref}: non-positive triangle area")
        coords = mesh.verts[mesh.tris[ref]]
        div = mesh.tri_signs[ref] * mesh.edge_len[mesh.tri_edges[ref]] / area
        pts = K.QUAD4_BARY @ coords
        # phi_i(x) = s_i |e_i| / (2 |K|) (x - p_i), as [i, d, q]
        phi = 0.5 * div[:, None, None] * (pts.T[None] - coords[:, :, None])
        shapes.append(_Shape(ref=ref, offsets=pts - coords[0],
                             values=phi.reshape(3, -1), div=div, area=area))
    return shapes


def _check_congruent(mesh: Mesh, shape: _Shape, ids: np.ndarray) -> None:
    """Raise ValueError naming the first of `ids` that is not a translate
    of the shape's reference triangle."""
    ref = shape.ref
    tris = np.take(mesh.tris, ids, axis=0)
    edges = np.take(mesh.tri_edges, ids, axis=0)
    ref_len = mesh.edge_len[mesh.tri_edges[ref]]
    mismatch = (
        ("vertex offsets",
         tris - tris[:, :1] != mesh.tris[ref] - mesh.tris[ref, 0]),
        ("edge orientations",
         np.take(mesh.tri_signs, ids, axis=0) != mesh.tri_signs[ref]),
        ("edge kinds",
         mesh.edge_kind[edges] != mesh.edge_kind[mesh.tri_edges[ref]]),
        ("area", np.abs(mesh.tri_area[ids] - shape.area) > ROUNDOFF * shape.area),
        ("edge lengths",
         np.abs(mesh.edge_len[edges] - ref_len) > ROUNDOFF * ref_len),
    )
    for what, bad in mismatch:
        if bad.any():
            t = ids[np.argmax(bad.reshape(ids.size, -1).any(axis=1))]
            raise ValueError(
                f"triangle {t}: {what} differ from those of reference "
                f"triangle {ref} of its shape"
            )


def _blocks(mesh: Mesh):
    """Yield (shape, ids) for blocks of at most QUAD_BLOCK triangles of one
    shape, each checked congruent to the shape's reference."""
    for kind, shape in enumerate(_shapes(mesh)):
        of_shape = np.flatnonzero(mesh.tri_shape == kind)
        for start in range(0, of_shape.size, QUAD_BLOCK):
            ids = of_shape[start:start + QUAD_BLOCK]
            _check_congruent(mesh, shape, ids)
            yield shape, ids


def _points(mesh: Mesh, shape: _Shape, ids: np.ndarray):
    """x and y of the quadrature points of triangles ids, each (nb, nq)."""
    origin = np.take(mesh.verts, mesh.tris[ids, 0], axis=0)
    return (origin[:, :1] + shape.offsets[:, 0],
            origin[:, 1:] + shape.offsets[:, 1])


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
    shapes = _shapes(mesh)
    kind = mesh.tri_shape[ids]
    for k, shape in enumerate(shapes):
        _check_congruent(mesh, shape, ids[kind == k])
    refs = [shape.ref for shape in shapes]
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
    """
    nq = K.QUAD4_W.size
    out = np.empty((mesh.n_triangles, 3))
    for shape, ids in _blocks(mesh):
        x, y = _points(mesh, shape, ids)
        fx, fy = field(x, y)
        f = np.empty((ids.size, 2, nq))
        f[:, 0] = fx
        f[:, 1] = fy
        table = shape.values.T * (shape.area * np.tile(K.QUAD4_W, 2))[:, None]
        out[ids] = f.reshape(ids.size, 2 * nq) @ table
    return out


def assemble_global(mesh: Mesh, beta: float, field) -> GlobalSystem:
    """Assemble the SPD stiffness matrix and load on free edges."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    divdiv, mass = element_matrices(mesh)
    elem = divdiv + beta * mass

    edge_to_free = -np.ones(mesh.n_edges, dtype=np.int64)
    free_edges = np.flatnonzero(~mesh.edge_boundary)
    edge_to_free[free_edges] = np.arange(len(free_edges))

    dofs = edge_to_free[mesh.tri_edges]  # (nt, 3), -1 on boundary edges
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = elem.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = len(free_edges)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()

    contrib = element_loads(mesh, field)
    load = np.zeros(n)
    np.add.at(load, dofs.ravel()[dofs.ravel() >= 0], contrib.ravel()[dofs.ravel() >= 0])
    return GlobalSystem(
        mesh=mesh,
        beta=beta,
        A=A,
        load=load,
        free_edges=free_edges,
        edge_to_free=edge_to_free,
    )


def interpolate(mesh: Mesh, field) -> np.ndarray:
    """Edgewise interpolation: average normal component across each edge.

    Two-point Gauss quadrature along the edge, exact for the quadratic
    manufactured solution. Returns values for every edge, boundary included.
    """
    p = mesh.verts[mesh.edges[:, 0]]
    q = mesh.verts[mesh.edges[:, 1]]
    mid = 0.5 * (p + q)
    tang = q - p
    vals = np.zeros(mesh.n_edges)
    for t in K.GAUSS2_T:
        pts = mid + t * tang
        fx, fy = field(pts[:, 0], pts[:, 1])
        vals += 0.5 * (fx * mesh.edge_normal[:, 0] + fy * mesh.edge_normal[:, 1])
    return vals


def divergence(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Elementwise (constant) divergence of the field with edge dofs u."""
    out = np.empty(mesh.n_triangles)
    for shape, ids in _blocks(mesh):
        out[ids] = u[np.take(mesh.tri_edges, ids, axis=0)] @ shape.div
    return out


def error_norms(mesh: Mesh, u: np.ndarray, exact_u, exact_div):
    """L2 and H(div) errors against an exact field and its divergence.

    The H(div) norm is sqrt(l2^2 + ||div u_h - div u||^2). Quadrature is
    the degree-4 rule, exact when the exact field is quadratic.
    """
    nq = K.QUAD4_W.size
    l2_sq = div_sq = 0.0
    for shape, ids in _blocks(mesh):
        x, y = _points(mesh, shape, ids)
        lam = u[np.take(mesh.tri_edges, ids, axis=0)]
        uh = (lam @ shape.values).reshape(ids.size, 2, nq)
        ex, ey = exact_u(x, y)
        dd = (lam @ shape.div)[:, None] - exact_div(x, y)
        l2_sq += shape.area * np.sum(
            ((uh[:, 0] - ex) ** 2 + (uh[:, 1] - ey) ** 2) @ K.QUAD4_W)
        div_sq += shape.area * np.sum((dd * dd) @ K.QUAD4_W)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + div_sq))


def l2_distance(mesh: Mesh, u: np.ndarray, v: np.ndarray) -> float:
    """L2 norm of the difference of two discrete fields."""
    _, mass = element_matrices(mesh)
    d = (u - v)[mesh.tri_edges]
    return float(np.sqrt(np.einsum("tij,ti,tj->", mass, d, d)))
