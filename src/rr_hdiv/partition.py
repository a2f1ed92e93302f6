"""Square N x N decomposition of the structured mesh.

Builds the triangle-to-subdomain map, the coarse interfaces between
neighboring subdomains, per-subdomain index sets (interior edges and
trace slots), the two-sided trace slot layout with its pairing
permutation, and the edge-average constraint matrix.

Trace layout: one slot per (interface fine edge, side) pair.  Interfaces
are enumerated bottom-to-top, left-to-right by midpoint; within an
interface the fine edges run in geometric order, and each edge's i-side
slot immediately precedes its j-side slot.  Subdomain pairs are ordered
i < j with the interface normal pointing from i into j (rightward or
upward), which matches the global edge normal convention.

The layout is index arithmetic on the structured mesh; what it assumes is
then checked in O(n) passes, without sorting or hashing.  Per edge, over
the triangle incidences, bincounts give the count c, the sum s1 and the
square sum s2 of the incident subdomain ids.  Every edge must have
c <= 2; it then has one owning subdomain iff c == 1 or 2 s2 == s1^2, and
for c == 2 the pair (s1, s2) fixes its unordered pair of subdomains,
which the two slots of an interface edge must name.  The sums are
integers of at most 4 (N^2)^2, exact in float64 while that is below 2^53
(N < 6800).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import DIAGONAL, HORIZONTAL, VERTICAL, Mesh

__all__ = [
    "CoarseInterface",
    "TraceIndex",
    "SubdomainPartition",
    "partition",
    "build_constraint",
    "SYMMETRY_NAMES",
    "symmetry_generators",
    "orbit_table",
]

# The mesh's symmetries on the trace slots, in the order that
# `symmetry_generators` returns them.
SYMMETRY_NAMES = ("half-turn", "reflection x <-> y")


@dataclass(eq=False)
class CoarseInterface:
    """One straight interface segment shared by two subdomains."""

    index: int
    i: int
    j: int
    normal: np.ndarray
    fine_edges: np.ndarray
    length: float


@dataclass(eq=False)
class TraceIndex:
    """Slot layout of the two-sided interface trace vector."""

    slot_iface: np.ndarray
    slot_edge: np.ndarray
    slot_sub: np.ndarray
    slot_side: np.ndarray
    pair_perm: np.ndarray
    m_diag: np.ndarray

    @property
    def n_slots(self) -> int:
        return int(self.slot_edge.size)


@dataclass(eq=False)
class SubdomainPartition:
    """N x N square decomposition with its trace indexing."""

    N: int
    mesh: Mesh
    tri_sub: np.ndarray
    interior_edges: list
    interfaces: list
    trace: TraceIndex
    sub_slots: list

    @property
    def n_subdomains(self) -> int:
        return self.N * self.N

    @property
    def n_interfaces(self) -> int:
        return len(self.interfaces)

    def slots_of(self, sub: int) -> np.ndarray:
        """Trace slots of one subdomain, in increasing order."""
        return self.sub_slots[sub]


def _split_by(owner: np.ndarray, values: np.ndarray, n: int) -> list:
    """values grouped by owner in 0..n-1, in their order within a group."""
    order = np.argsort(owner, kind="stable")
    return np.split(values[order], np.cumsum(np.bincount(owner, minlength=n))[:-1])


def partition(mesh: Mesh, N: int) -> SubdomainPartition:
    """Decompose the unit-square mesh into N x N square subdomains.

    Requires the mesh resolution to be a multiple of N so that every
    subdomain boundary runs along mesh lines.
    """
    if N < 1:
        raise ValueError(f"subdomain count per side must be positive, got {N}")
    m = mesh.m
    if m % N != 0:
        raise ValueError(
            f"mesh resolution m={m} is not a multiple of N={N}; "
            "the decomposition must align with the mesh"
        )
    r = m // N

    # Triangle -> subdomain through the integer cell coordinates of the
    # centroid (vertex ids encode the grid position exactly).
    vx = mesh.tris % (m + 1)
    vy = mesh.tris // (m + 1)
    cell_x = vx.sum(axis=1) // 3
    cell_y = vy.sum(axis=1) // 3
    tri_sub = (cell_y // r) * N + (cell_x // r)

    # Edge ids by doubled midpoint, on the (2m+1) x (2m+1) half-cell grid.
    side = 2 * m + 1
    edge_at = np.full(side * side, -1, dtype=np.int64)
    edge_at[mesh.edge_mid2[:, 1] * side + mesh.edge_mid2[:, 0]] = np.arange(
        mesh.n_edges
    )

    # Enumerate interfaces bottom-to-top, left-to-right by midpoint.  Fine
    # edge t of an interface has its midpoint at offset 2t + 1 half-cells
    # along the interface from the subdomain corner.
    raw = []
    for J in range(N):
        for I in range(N - 1):
            mid2 = (2 * r * (I + 1), 2 * r * J + r)
            raw.append((mid2, J * N + I, J * N + I + 1, (1.0, 0.0), VERTICAL))
    for J in range(N - 1):
        for I in range(N):
            mid2 = (2 * r * I + r, 2 * r * (J + 1))
            raw.append((mid2, J * N + I, (J + 1) * N + I, (0.0, 1.0), HORIZONTAL))
    raw.sort(key=lambda item: (item[0][1], item[0][0]))

    n_if = len(raw)
    mid = np.array([item[0] for item in raw], dtype=np.int64).reshape(n_if, 2)
    iface_i = np.array([item[1] for item in raw], dtype=np.int64)
    iface_j = np.array([item[2] for item in raw], dtype=np.int64)
    iface_kind = np.array([item[4] for item in raw], dtype=np.int64)
    step = 2 * np.arange(r, dtype=np.int64) - (r - 1)
    vertical = (iface_kind == VERTICAL)[:, None]
    fx = mid[:, :1] + np.where(vertical, 0, step)
    fy = mid[:, 1:] + np.where(vertical, step, 0)
    fine = edge_at[fy * side + fx]  # (n_if, r)
    if np.any(fine < 0) or np.any(mesh.edge_kind[fine] != iface_kind[:, None]) or (
        np.any(mesh.edge_boundary[fine])
    ):
        raise AssertionError("interface edge classification mismatch")
    if np.any(np.diff(fine, axis=1) <= 0):
        raise AssertionError("interface fine edges out of order")
    interfaces = [
        CoarseInterface(
            index=index,
            i=int(iface_i[index]),
            j=int(iface_j[index]),
            normal=np.array(item[3]),
            fine_edges=fine[index],
            length=r * mesh.h,
        )
        for index, item in enumerate(raw)
    ]

    gamma_edges = fine.ravel()
    on_gamma = np.zeros(mesh.n_edges, dtype=bool)
    on_gamma[gamma_edges] = True
    if np.count_nonzero(on_gamma) != gamma_edges.size:
        raise AssertionError("a fine edge appears on two coarse interfaces")

    # Independent geometric check: the interface set is exactly the
    # non-boundary axis-aligned edges sitting on internal subdomain lines,
    # and no diagonal edge lies on one.
    ex2 = mesh.edge_mid2[:, 0]
    ey2 = mesh.edge_mid2[:, 1]
    expect = ~mesh.edge_boundary & (
        ((mesh.edge_kind == VERTICAL) & (ex2 % (2 * r) == 0))
        | ((mesh.edge_kind == HORIZONTAL) & (ey2 % (2 * r) == 0))
    )
    if not np.array_equal(expect, on_gamma):
        raise AssertionError("interface edge set mismatch")
    if np.any(on_gamma & (mesh.edge_kind == DIAGONAL)):
        raise AssertionError("diagonal edge on a subdomain interface")

    # Per-edge incidence count c, subdomain sum s1 and square sum s2; the
    # module docstring says why they decide ownership, and exactly.
    n_subs = N * N
    edges = mesh.tri_edges.ravel()
    sub = np.repeat(tri_sub, 3).astype(float)
    c = np.bincount(edges, minlength=mesh.n_edges)
    if np.any(c > 2):
        raise AssertionError("an edge lies on more than two triangles")
    s1 = np.bincount(edges, sub, minlength=mesh.n_edges)
    s2 = np.bincount(edges, sub * sub, minlength=mesh.n_edges)
    one_owner = (c == 1) | ((c == 2) & (2.0 * s2 == s1 * s1))
    free_interior = ~mesh.edge_boundary & ~on_gamma
    if not np.all(one_owner[free_interior]):
        raise AssertionError("an interior dof is claimed by != 1 subdomain")
    if not np.all((c[on_gamma] == 2) & ~one_owner[on_gamma]):
        raise AssertionError("an interface dof is not shared by exactly 2")

    # The owner of an interior edge is the subdomain of any triangle on it;
    # interior edge sets come out sorted, as `free` is.
    owner = np.empty(mesh.n_edges, dtype=np.int64)
    owner[mesh.tri_edges] = tri_sub[:, None]
    free = np.flatnonzero(free_interior)
    interior_edges = _split_by(owner[free], free, n_subs)

    # Trace slots: i-side then j-side per fine edge.
    slot_edge = np.repeat(gamma_edges, 2)
    slot_iface = np.repeat(np.arange(n_if, dtype=np.int64), 2 * r)
    slot_side = np.tile(np.array([0, 1], dtype=np.int64), n_if * r)
    slot_sub = np.where(slot_side == 0, iface_i[slot_iface], iface_j[slot_iface])
    pair_perm = np.arange(slot_edge.size, dtype=np.int64) ^ 1
    trace = TraceIndex(
        slot_iface=slot_iface,
        slot_edge=slot_edge,
        slot_sub=slot_sub,
        slot_side=slot_side,
        pair_perm=pair_perm,
        m_diag=mesh.edge_len[slot_edge] if slot_edge.size else np.empty(0),
    )
    sub_slots = _split_by(slot_sub, np.arange(slot_sub.size), n_subs)

    # Each subdomain's slots name exactly its interface edges: the two
    # sides of an edge are distinct subdomains with the edge's s1 and s2.
    a, b = slot_sub[0::2], slot_sub[1::2]
    if np.any(a == b) or np.any(a + b != s1[gamma_edges]) or np.any(
        a * a + b * b != s2[gamma_edges]
    ):
        raise AssertionError("subdomain interface set inconsistent")

    return SubdomainPartition(
        N=N,
        mesh=mesh,
        tri_sub=tri_sub,
        interior_edges=interior_edges,
        interfaces=interfaces,
        trace=trace,
        sub_slots=sub_slots,
    )


def build_constraint(part: SubdomainPartition, mesh: Mesh) -> sp.csr_matrix:
    """Edge-average constraint matrix: one row per coarse interface.

    Row k integrates the two-sided jump over interface k: +|e| on the
    i-side slot of each fine edge, -|e| on the j-side slot.  B g = 0 says
    every coarse interface carries matching side averages.
    """
    trace = part.trace
    n = trace.n_slots
    data = trace.m_diag * (1 - 2 * trace.slot_side)
    B = sp.csr_matrix(
        (data, (trace.slot_iface, np.arange(n))),
        shape=(part.n_interfaces, n),
    )
    return B


def symmetry_generators(part: SubdomainPartition) -> np.ndarray:
    """Slot permutations of the half-turn and the reflection x <-> y.

    Row k maps slot s to the slot of the image of its fine edge on the
    image of its subdomain, in the order of SYMMETRY_NAMES:

        half-turn:  (x2, y2, I, J) -> (2m - x2, 2m - y2, N-1-I, N-1-J)
        reflection: (x2, y2, I, J) -> (y2, x2, J, I)

    with (x2, y2) the doubled edge midpoint and (I, J) the subdomain's
    column and row.  Raises AssertionError unless both are fixed-point-free
    involutions that commute with each other and with the side swap,
    preserve the trace mass, and have a fixed-point-free product (so
    every orbit of the group they generate has exactly 4 slots).
    """
    trace = part.trace
    mesh = part.mesh
    N, m, n = part.N, mesh.m, trace.n_slots
    x2, y2 = mesh.edge_mid2[trace.slot_edge].T
    J, I = np.divmod(trace.slot_sub, N)

    def code(x2, y2, I, J):
        return ((y2 * (2 * m + 1) + x2) * N + J) * N + I

    key = code(x2, y2, I, J)
    order = np.argsort(key)
    sorted_key = key[order]
    images = np.stack([
        code(2 * m - x2, 2 * m - y2, N - 1 - I, N - 1 - J),
        code(y2, x2, J, I),
    ])
    pos = np.searchsorted(sorted_key, images)
    if np.any(np.append(sorted_key, -1)[pos] != images):
        raise AssertionError("a symmetry image is not a trace slot")
    gens = order[pos]
    slots = np.arange(n)
    half, refl = gens
    for name, p in zip(SYMMETRY_NAMES, gens):
        if not np.array_equal(p[p], slots) or np.any(p == slots):
            raise AssertionError(f"{name} is not a fixed-point-free involution")
        if not np.array_equal(p[trace.pair_perm], trace.pair_perm[p]):
            raise AssertionError(f"{name} does not commute with the side swap")
        if not np.array_equal(trace.m_diag[p], trace.m_diag):
            raise AssertionError(f"{name} does not preserve the trace mass")
    if not np.array_equal(half[refl], refl[half]):
        raise AssertionError("half-turn and reflection do not commute")
    if np.any(half[refl] == slots):
        raise AssertionError("a symmetry orbit has fewer than 4 slots")
    return gens


def orbit_table(generators: np.ndarray) -> np.ndarray:
    """Orbits of the group of d commuting involutions, shape (2^d, n / 2^d).

    Row 0 holds the least slot of each orbit; row k holds its image under
    the product of the generators whose bits are set in k, so row k ^ l
    is row k moved by element l.  Raises AssertionError unless the rows
    cover every slot once, that is unless every orbit has 2^d slots.
    """
    gens = np.asarray(generators)
    n = gens.shape[1]
    rows = np.arange(n)[None]
    for p in gens:
        rows = np.concatenate([rows, p[rows]])
    table = rows[:, np.all(rows >= rows[0], axis=0)]
    if not np.array_equal(np.sort(table, axis=None), np.arange(n)):
        raise AssertionError(f"symmetry orbits are not all of size {len(rows)}")
    return table
