"""Element matrices and quadrature rules.

`fem` evaluates the element matrices only on the two reference triangles
of the mesh, one per triangle shape, and builds its per-shape quadrature
tables from the rules below.
"""

from __future__ import annotations

import numpy as np

# The only backend; solvebench/run.py still reports it on its machine line.
BACKEND = "numpy"

# Midpoint rule on a triangle, exact for quadratics. Point k is the midpoint
# of the edge opposite vertex k.
MIDPOINT_BARY = np.array(
    [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)
MIDPOINT_W = np.array([1.0, 1.0, 1.0]) / 3.0

# Symmetric 6-point rule, exact for quartics. Weights sum to one.
_A1, _B1 = 0.108103018168070, 0.445948490915965
_A2, _B2 = 0.816847572980459, 0.091576213509771
QUAD4_BARY = np.array(
    [
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
QUAD4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def element_matrices(coords, lengths, signs, areas):
    """Grad-div and mass element matrices for a batch of triangles.

    coords: (nt, 3, 2) vertex coordinates, lengths/signs: (nt, 3) for the
    edge opposite each vertex, areas: (nt,). Returns (divdiv, mass), both
    (nt, 3, 3). divdiv[i, j] = s_i s_j |e_i||e_j| / |K|; mass by midpoint
    quadrature, exact for the quadratic integrand.
    """
    d = signs * lengths  # (nt, 3), |K| * div of each basis function
    divdiv = d[:, :, None] * d[:, None, :] / areas[:, None, None]
    coef = signs * lengths / (2.0 * areas[:, None])  # (nt, 3)
    # basis values at the three edge midpoints: (nt, nq, 3, 2)
    pts = np.einsum("qj,tjd->tqd", MIDPOINT_BARY, coords)
    vec = pts[:, :, None, :] - coords[:, None, :, :]
    phi = coef[:, None, :, None] * vec
    mass = np.einsum("q,tqid,tqjd->tij", MIDPOINT_W, phi, phi)
    mass *= areas[:, None, None]
    return divdiv, mass
