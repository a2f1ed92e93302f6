"""Lowest-order Raviart-Thomas discretization of the grad-div problem.

The bilinear form is a(u, v) = (div u, div v) + beta (u, v) on H(div) with
vanishing normal trace on the boundary of the unit square. Degrees of
freedom are average normal components across edges; boundary edges are
eliminated. Vector fields are passed as callables f(x, y) -> (fx, fy) that
broadcast over numpy arrays, scalar fields as d(x, y) -> values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels as K
from .mesh import Mesh

# Triangles per block in error_norms.
ERROR_BLOCK = 16384


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

    Entry (i, j) couples the edges opposite local vertices i and j.
    """
    ids = np.arange(mesh.n_triangles) if tri_ids is None else np.asarray(tri_ids)
    coords = mesh.verts[mesh.tris[ids]]
    lengths = mesh.edge_len[mesh.tri_edges[ids]]
    signs = mesh.tri_signs[ids]
    areas = mesh.tri_area[ids]
    if np.any(areas <= 0.0):
        raise ValueError("non-positive triangle area")
    return K.element_matrices(coords, lengths, signs, areas)


def element_loads(mesh: Mesh, field) -> np.ndarray:
    """Per-triangle load contributions int_K field . phi, shape (nt, 3).

    Uses the degree-4 rule, exact for the quadratic manufactured load.
    """
    coords = mesh.tri_coords()
    pts = np.einsum("qj,tjd->tqd", K.QUAD4_BARY, coords)
    fx, fy = field(pts[:, :, 0], pts[:, :, 1])
    fvals = np.stack([np.broadcast_to(fx, pts.shape[:2]),
                      np.broadcast_to(fy, pts.shape[:2])], axis=-1)
    return K.load_vectors(
        coords,
        mesh.edge_len[mesh.tri_edges],
        mesh.tri_signs,
        mesh.tri_area,
        np.ascontiguousarray(fvals),
        K.QUAD4_BARY,
        K.QUAD4_W,
    )


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
    lam = u[mesh.tri_edges]
    return (
        np.sum(mesh.tri_signs * mesh.edge_len[mesh.tri_edges] * lam, axis=1)
        / mesh.tri_area
    )


def error_norms(mesh: Mesh, u: np.ndarray, exact_u, exact_div):
    """L2 and H(div) errors against an exact field and its divergence.

    The H(div) norm is sqrt(l2^2 + ||div u_h - div u||^2). Quadrature is
    the degree-4 rule, exact when the exact field is quadratic.  Triangles
    are taken ERROR_BLOCK at a time, which bounds the quadrature
    temporaries on fine meshes.
    """
    div_h = divergence(mesh, u)
    l2_sq = div_sq = 0.0
    for start in range(0, mesh.n_triangles, ERROR_BLOCK):
        tris = slice(start, start + ERROR_BLOCK)
        coords = mesh.verts[mesh.tris[tris]]
        edges = mesh.tri_edges[tris]
        area = mesh.tri_area[tris]
        pts = np.einsum("qj,tjd->tqd", K.QUAD4_BARY, coords)
        uh = K.rt0_values(
            coords,
            mesh.edge_len[edges],
            mesh.tri_signs[tris],
            area,
            np.ascontiguousarray(u[edges]),
            K.QUAD4_BARY,
        )
        ex, ey = exact_u(pts[:, :, 0], pts[:, :, 1])
        dx = uh[:, :, 0] - ex
        dy = uh[:, :, 1] - ey
        l2_sq += np.einsum("q,tq,t->", K.QUAD4_W, dx * dx + dy * dy, area)
        dd = div_h[tris, None] - exact_div(pts[:, :, 0], pts[:, :, 1])
        div_sq += np.einsum("q,tq,t->", K.QUAD4_W, dd * dd, area)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + div_sq))


def l2_distance(mesh: Mesh, u: np.ndarray, v: np.ndarray) -> float:
    """L2 norm of the difference of two discrete fields."""
    _, mass = element_matrices(mesh)
    d = (u - v)[mesh.tri_edges]
    return float(np.sqrt(np.einsum("tij,ti,tj->", mass, d, d)))
