"""Square N x N decomposition of the structured mesh.

Builds the two-sided trace slot layout with its pairing permutation,
each subdomain's interior edges and trace slots, and the edge-average
constraint matrix.  It is the one owner of the subdomain layout.
Subdomain s's local dof order is [interior_of(s), slots_of(s)];
`template_edges` writes it once, as one template, the edges of an r x r
mesh with all four sides kept.  Every subdomain is that template's
translate by the index arithmetic below, so nothing here re-checks it
at run time; tests compare the layout with sort references.  The local
solver takes the template as given, and reads each class's constraint
block off `build_constraint`'s B.

Coarse interfaces are numbered by index arithmetic, bottom-to-top and
left-to-right by midpoint: row J of subdomains holds its N-1 vertical
interfaces, then the N horizontal ones above it, each left to right.
Interface k joins subdomains i < j, with the normal pointing from i
into j (rightward or upward), which matches the global edge normal
convention.

Trace layout: one slot per (interface fine edge, side) pair, numbered
class-major.  The congruence classes of `_congruence_classes` come in
turn, class c's slots are the one range class_start[c] + arange(k_c
n_own_c), and that range is its k_c members' in increasing order, n_own_c
each, so it reshapes to (members, own slots).  A member's own slots are
its interface sides in the order bottom, left, right, top, r each in
geometric order: its local trace order.  So each subdomain's slots are
one range too, `slot_range`, and each of its sides' the r slots from
`side_start`, the one side table.  The two slots of one fine edge lie on
neighbouring subdomains, so the side swap `pair_perm` is a general
fixed-point-free involution, written by the same index arithmetic.

The layout is index arithmetic on the mesh's id formulas (`mesh`): the
fine edges of each interface (`mesh.edge_id`), each subdomain's interior
edges and slots, and the template's edges are written from the grid
position, with no gather by subdomain and no sort.  Every interface
edge lies on a grid line, so it is horizontal or vertical and has
length h = 1/m: the interface mass matrix is M = h I, the scalar
`mesh.h`, and no slot stores it.

The mesh keeps the half-turn about (1/2, 1/2) and the reflection x <-> y,
and so does the template square: `template_symmetry_maps` gives their
signed maps of its interior dofs, which the local solver uses to fill
three sides of its side solves from the fourth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import NORMALS, Mesh, edge_id, edge_kind, edge_mid2

__all__ = [
    "TraceIndex",
    "SubdomainPartition",
    "partition",
    "template_edges",
    "build_constraint",
    "SYMMETRY_NAMES",
    "template_symmetry_maps",
]

# The template's symmetries, in the order of `template_symmetry_maps`.
SYMMETRY_NAMES = ("half-turn", "reflection x <-> y")


@dataclass(eq=False)
class TraceIndex:
    """Slot layout of the two-sided interface trace vector."""

    slot_iface: np.ndarray
    slot_edge: np.ndarray
    slot_side: np.ndarray
    pair_perm: np.ndarray

    @property
    def n_slots(self) -> int:
        return int(self.slot_edge.size)


@dataclass(eq=False)
class SubdomainPartition:
    """N x N square decomposition with its trace indexing.

    Every subdomain holds the same number nI of interior edges, so
    `interior` is one (N^2, nI) table: row s holds subdomain s's, in
    increasing order.  Subdomain s's trace slots are the one range
    slot_range[s, 0] .. slot_range[s, 1].  `classes` holds the members
    of each congruence class, and class c's slots are the one range
    class_start[c] .. class_start[c+1], its members' in turn.
    """

    N: int
    mesh: Mesh
    n_interfaces: int
    trace: TraceIndex
    interior: np.ndarray
    slot_range: np.ndarray
    side_start: np.ndarray
    classes: list
    class_start: np.ndarray

    def interior_of(self, sub: int) -> np.ndarray:
        """Interior edges of one subdomain, in increasing order."""
        return self.interior[sub]

    def slots_of(self, sub: int) -> np.ndarray:
        """Trace slots of one subdomain, in increasing order."""
        return np.arange(*self.slot_range[sub])


def _congruence_classes(N: int):
    """Members of each subdomain shape, in increasing order.

    Subdomain s = J*N + I is a translate of every subdomain with the same
    key (I == 0, I == N-1, J == 0, J == N-1).  The classes come by their
    number of sides on the domain boundary, then by key: the interior
    class, the four edge classes, the four corners, so that classes of
    one member count and one own slot count are neighbours.
    """
    J, I = np.divmod(np.arange(N * N), N)
    edge = np.stack([I == 0, I == N - 1, J == 0, J == N - 1])
    key = 16 * edge.sum(axis=0) + [8, 4, 2, 1] @ edge
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


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
    n_subs = N * N
    J, I = np.divmod(np.arange(n_subs, dtype=np.int64), N)

    # Interfaces in the order of the module docstring: interface k is
    # entry q of row J, vertical for q < N-1.  Fine edge t of an interface
    # has its midpoint at offset 2t + 1 half-cells along the interface
    # from the subdomain corner; its id is the mesh's for that midpoint.
    n_if = 2 * N * (N - 1)
    iJ, q = np.divmod(np.arange(n_if, dtype=np.int64), 2 * N - 1)
    vertical = q < N - 1
    iI = np.where(vertical, q, q - (N - 1))
    mid_x = np.where(vertical, 2 * r * (iI + 1), 2 * r * iI + r)[:, None]
    mid_y = np.where(vertical, 2 * r * iJ + r, 2 * r * (iJ + 1))[:, None]
    step = 2 * np.arange(r, dtype=np.int64) - (r - 1)
    fine = edge_id(m, mid_x + np.where(vertical[:, None], 0, step),
                   mid_y + np.where(vertical[:, None], step, 0))  # (n_if, r)

    # Interior edges of subdomain (J, I): those with midpoints strictly
    # inside it, by increasing id.  Local cell row a contributes its r
    # horizontals (y2 = 2a, for a >= 1), then its 2r-1 verticals and
    # diagonals (y2 = 2a + 1, 1 <= x2 <= 2r-1).  From subdomain 0 to
    # (J, I) the ids of the first move by rJ (3m+1) + rI, the others by
    # rJ (3m+1) + 2rI.
    row = 3 * m + 1
    in_row = np.concatenate([np.arange(r), m + 1 + np.arange(2 * r - 1)])
    pattern = (row * np.arange(r)[:, None] + in_row).ravel()[r:]
    step = np.tile(np.repeat([1, 2], [r, 2 * r - 1]), r)[r:]
    interior = pattern + (r * row * J)[:, None] + (r * I)[:, None] * step

    # Trace slots, class-major (module docstring), in runs of r: side d
    # (bottom, left, right, top) of subdomain s, if it is an interface,
    # holds the slots side_start[s, d] + t = first[s] + r rank[s, d] + t,
    # t along the side in geometric order.
    classes = _congruence_classes(N)
    order = np.concatenate(classes)
    present = np.stack([J > 0, I > 0, I < N - 1, J < N - 1], axis=1)
    counts = r * present.sum(axis=1)
    first = np.empty(n_subs, dtype=np.int64)
    first[order] = np.cumsum(counts[order]) - counts[order]
    class_start = np.concatenate(
        [[0], np.cumsum([counts[members].sum() for members in classes])])
    side_start = np.where(
        present, first[:, None] + r * (np.cumsum(present, axis=1) - 1), -1)
    # The runs in slot order.  Side d of subdomain (J, I) is the interface
    # below, left of, right of or above it, on whose j-side it lies for
    # d < 2; the run of the same edges on the other side is the
    # neighbour's side 3 - d.
    run_sub, run_side = np.nonzero(present[order])
    run_sub = order[run_sub]
    base = J * (2 * N - 1)
    side_iface = np.stack(
        [base - N + I, base + I - 1, base + I, base + N - 1 + I], axis=1)
    run_iface = side_iface[run_sub, run_side]
    other = run_sub + np.array([-N, -1, 1, N])[run_side]
    trace = TraceIndex(
        slot_iface=np.repeat(run_iface, r),
        slot_edge=fine[run_iface].ravel(),
        slot_side=np.repeat((run_side < 2).astype(np.int64), r),
        pair_perm=(side_start[other, 3 - run_side][:, None] + np.arange(r)).ravel(),
    )
    return SubdomainPartition(
        N=N,
        mesh=mesh,
        n_interfaces=n_if,
        trace=trace,
        interior=interior,
        slot_range=np.stack([first, first + counts], axis=1),
        side_start=side_start,
        classes=classes,
        class_start=class_start,
    )


def template_edges(r: int) -> np.ndarray:
    """The one template of every subdomain's local dofs: edge ids of the
    r x r mesh, subdomain 0 taken as a mesh of its own.

    Its interior edges come first, by increasing id, then the r edges of
    its bottom, left, right and top sides, each in geometric order, so
    that the template keeps every side, whether or not a side lies on
    the domain boundary.

    Subdomain s = J N + I is subdomain 0 moved by (rI, rJ) cells, and the
    index arithmetic of `partition` and `mesh` writes its tables as that
    translate: behind its template dofs lie [interior_of(s), its four
    sides' edges], as the r-mesh's and the m-mesh's ids order the
    interior alike.  Its Robin problem keeps the interior and the sides
    that are interfaces (bottom if J > 0, left if I > 0, right if I < N-1,
    top if J < N-1), whose slots are slots_of(s) in that order.
    """
    # Doubled midpoints (x2, y2) of the sides' edges, (4, r).
    along = 2 * np.arange(r) + 1
    sides = edge_id(r, np.stack(np.broadcast_arrays(along, 0, 2 * r, along)),
                    np.stack(np.broadcast_arrays(0, along, along, 2 * r))).ravel()
    interior = np.ones(Mesh(r).n_edges, dtype=bool)
    interior[sides] = False
    return np.concatenate([np.flatnonzero(interior), sides])


def build_constraint(part: SubdomainPartition) -> sp.csr_matrix:
    """Edge-average constraint matrix: one row per coarse interface.

    Row k integrates the two-sided jump over interface k: +h on the
    i-side slot of each fine edge, -h on the j-side slot, as every
    interface edge lies on a grid line and has length h.  B g = 0 says
    every coarse interface carries matching side averages.  The rows come
    from `slot_iface`; the i-side is a subdomain's right or top side.
    The local solver reads its per-class blocks from B.
    """
    trace = part.trace
    n = trace.n_slots
    data = part.mesh.h * (1 - 2 * trace.slot_side)
    B = sp.csr_matrix(
        (data, (trace.slot_iface, np.arange(n))),
        shape=(part.n_interfaces, n),
    )
    return B


def template_symmetry_maps(part: SubdomainPartition):
    """Signed maps of the template's interior dofs under the half-turn and
    the reflection x <-> y of the template square, in the order of
    SYMMETRY_NAMES.

    Returns (perm, sign), each of shape (2, nI): interior dof i, in the
    order of `template_edges`, moves to interior dof perm[k, i], and its
    edge normal onto sign[k, i] times that dof's normal.  In the r x r
    mesh of the template the edge at doubled midpoint (x2, y2) moves to
    (2r - x2, 2r - y2) under the half-turn, which negates every normal,
    and to (y2, x2) under the reflection, which swaps a normal's
    components.  Each image is found by a sorted-key lookup of its edge
    id among the interior's.  Raises AssertionError unless each map is a
    bijection of the interior that carries normals onto normals.
    """
    r = part.mesh.m // part.N
    keys = template_edges(r)[:-4 * r]
    x2, y2 = edge_mid2(r, keys)
    normal = NORMALS[edge_kind(x2, y2)]
    # Row k of each: the images under SYMMETRY_NAMES[k].
    img_x2, img_y2 = np.stack([2 * r - x2, y2]), np.stack([2 * r - y2, x2])
    img_normal = np.stack([-normal, normal[:, ::-1]])
    wanted = edge_id(r, img_x2, img_y2)
    perm = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    target = NORMALS[edge_kind(img_x2, img_y2)]
    sign = np.where((img_normal == target).all(axis=2), 1.0, -1.0)
    ok = ((keys[perm] == wanted).all(axis=1)
          & (np.sort(perm, axis=1) == np.arange(keys.size)).all(axis=1)
          & (img_normal == sign[:, :, None] * target).all(axis=(1, 2)))
    if not ok.all():
        raise AssertionError(
            f"the {SYMMETRY_NAMES[np.argmin(ok)]} does not map the template's "
            "interior dofs onto themselves")
    return perm, sign
