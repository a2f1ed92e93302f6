"""Robin problems per subdomain shape and the constrained Robin-to-trace map.

Each subdomain carries the bilinear form restricted to its own triangles
plus a Robin term gamma*M on its interface rows.  The N x N subdomains are
translates of at most nine shapes, so the matrix is assembled once per
congruence class.  Every subdomain has the same interior edges, in the
same order, and each of its sides (bottom, left, right, top, where it
has one) couples to them through the same columns.  So every class's
Robin matrix is

    H_c = [[A_II, A_IG[:, cols_c]], [A_GI_c, A_GG_c + gamma M_c]],

with one interior block A_II and one side block A_IG (r columns per
side) shared by all classes, each class keeping the columns cols_c of
its own sides.  A_II is factorized once, and every class's matrix is
checked against both shared blocks exactly.  The edge-average continuity
constraint B u = 0 is enforced with a Lagrange multiplier; eliminating
the (block-diagonal) Robin matrix leaves a sparse Schur complement
S = B H^-1 B^T, one row per coarse interface.  A_II and S are factorized
the same way, by `_factor`.

Each subdomain's local dof order, and its dof tables, are the partition's
(`partition.local_dofs`, `interior`, `slots`); this module takes them as
given and checks them congruent across each class.  The loads need no
per-member triangle table: `local_loads` scatters all triangles once.

Setup condenses each class onto its interface (static condensation).
W = A_II^-1 A_IG is solved once, one side (r columns) at a time into one
row-major array, and class c's Robin-to-trace map is the inverse of its
Schur block, Z_c = (A_GG_c - A_GI_c W_c + gamma M_c)^-1, W_c = W[:, cols_c],
at most 4r x 4r and taken through its Cholesky factor.  The constrained
resolvent is one `matmul` per class, Z_c on the (n_own, members x
columns) block of its members' right-hand sides, and one sparse coarse
solve; `solve` adds one interior solve for all members' loads and
recovers all members' interiors in one product with W.  Each Z_c is held
to a bound on its backward error against the class's own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh
from .partition import SubdomainPartition, local_dofs

__all__ = [
    "InteriorBlock",
    "RobinClass",
    "ConstrainedRobinSolver",
    "build_local_systems",
    "local_loads",
]

# Largest relative backward error accepted for a Robin-to-trace map.
TRACE_MAP_TOL = 1e-12

# Refusal of a class whose Robin matrix, or its interior block, has no
# positive definite factorization.
NOT_SPD = ("subdomain {}: Robin matrix not positive definite (assembly bug or "
           "invalid parameters)")

# Columns of one block of unit columns in `spectrum.assemble_Q`, which
# keeps its temporaries to a few n_slots x COLUMN_BLOCK arrays.
COLUMN_BLOCK = 256


@dataclass(eq=False)
class InteriorBlock:
    """The interior rows that every class's Robin matrix shares, and one
    factor.

    `rows` = [A_II, A_IG].  A_II couples the interior dofs, local dofs
    0 .. nI-1 of every subdomain.  A_IG couples them to the slots of every
    side that some class has, r columns per side, in the order bottom,
    left, right, top, and along each side in the order of
    `partition.slots`.  `r` is that side width, and `_lu` is A_II's
    factor.
    """

    rows: sp.csr_matrix
    r: int
    _lu: spla.SuperLU

    @property
    def A_II(self) -> sp.csr_matrix:
        return self.rows[:, :self.rows.shape[0]]

    @property
    def A_IG(self) -> sp.csr_matrix:
        return self.rows[:, self.rows.shape[0]:]


@dataclass(eq=False)
class RobinClass:
    """The Robin problem of congruent subdomains.

    Local dof order is that of `partition.local_dofs`: member
    s = members[i] has the global edges interior[i] = part.interior_of(s),
    then the trace slots slots[i] = part.slots_of(s), both increasing.
    `A` holds the class's own plain bilinear blocks
    without the Robin term, H = A + gamma * diag(m_diag) on the interface
    rows.  Its interior rows are meant to be those of `shared`,
    A[:nI] = [A_II, A_IG[:, cols]], with cols the columns of the class's
    own sides in the shared side block; `ConstrainedRobinSolver` refuses
    the class unless they are, exactly.
    """

    members: np.ndarray
    interior: np.ndarray
    slots: np.ndarray
    A: sp.csr_matrix
    m_diag: np.ndarray
    gamma: float
    cols: np.ndarray
    shared: InteriorBlock

    @property
    def n_interior(self) -> int:
        return self.interior.shape[1]

    @property
    def n_local(self) -> int:
        return self.interior.shape[1] + self.slots.shape[1]


def _rows(start: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Positions start[s] .. of each member s's group, as many per member
    as the first member's group holds."""
    size = start[members[0] + 1] - start[members[0]]
    return start[members][:, None] + np.arange(size)


def _congruence_classes(N: int, starts: np.ndarray):
    """(members, rows) per subdomain shape, members in increasing order.

    Subdomain s = J*N + I is a translate of every subdomain with the same
    key (I == 0, I == N-1, J == 0, J == N-1).  rows[i] holds the
    positions of member i's triangles in the order of `local_dofs`,
    as many as the first member has.
    """
    J, I = np.divmod(np.arange(N * N), N)
    key = 8 * (I == 0) + 4 * (I == N - 1) + 2 * (J == 0) + (J == N - 1)
    order = np.argsort(key, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        yield members, _rows(starts, members)


def _check_congruent(members: np.ndarray, what: str, table) -> None:
    """Raise unless every member's row of `table` equals the first one's."""
    table = np.asarray(table).reshape(members.size, -1)
    same = (table == table[:1]).all(axis=1)
    if not same.all():
        raise ValueError(
            f"subdomain {members[np.argmin(same)]} is not a translate of "
            f"subdomain {members[0]}: its {what} differs"
        )


def _plus_diagonal(A: sp.spmatrix, diag) -> sp.csc_matrix:
    """A + diag(diag) in CSC, for SuperLU.  On a Robin block this costs a
    quarter of `(A + sp.diags(diag)).tocsc()`."""
    H = A.tocsc(copy=True)
    H.setdiag(H.diagonal() + diag)
    return H


def _factor(A: sp.spmatrix, diag, not_spd: str) -> spla.SuperLU:
    """Sparse LDL^T factorization of H = A + diag(diag), which must be SPD.

    SuperLU runs in symmetric mode (diagonal pivots, minimum degree on
    A + A^T), so the U diagonal holds the pivots of the LDL^T
    factorization: all of them are positive exactly when H is positive
    definite.  Otherwise raises ValueError(not_spd).
    """
    try:
        lu = spla.splu(
            _plus_diagonal(A, diag),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:  # an exactly zero pivot
        raise ValueError(not_spd) from err
    if np.any(lu.U.diagonal() <= 0.0):
        raise ValueError(not_spd)
    return lu


def _solve(lu: spla.SuperLU, rhs: np.ndarray, what: str) -> np.ndarray:
    """lu.solve(rhs) for a finite rhs; the factor was checked when made."""
    if not np.isfinite(rhs).all():
        raise ValueError(f"non-finite right-hand side for {what}")
    return lu.solve(rhs)


def _spd_inverse(S: np.ndarray, not_spd: str) -> np.ndarray:
    """S^-1 for a dense symmetric S, from its Cholesky factor (LAPACK
    potrf, then potri).  Raises ValueError(not_spd) unless S is finite and
    positive definite."""
    if not np.isfinite(S).all():
        raise ValueError(not_spd)
    if not S.size:  # a class without slots
        return np.zeros_like(S)
    factor, info = la.lapack.dpotrf(S)
    if info:
        raise ValueError(not_spd)
    upper, _ = la.lapack.dpotri(factor)
    return np.triu(upper) + np.triu(upper, 1).T


def _entries(A: sp.csr_matrix, lo: int, hi: int):
    """(row, col, data) of rows lo .. hi-1 of a CSR matrix, rows counted
    from lo, as views of its arrays where they can be."""
    a, b = A.indptr[lo], A.indptr[hi]
    row = np.repeat(np.arange(hi - lo), np.diff(A.indptr[lo:hi + 1]))
    return row, A.indices[a:b], A.data[a:b]


def _to_shared(n_interior: int, cols: np.ndarray) -> np.ndarray:
    """The column in `InteriorBlock.rows` of each local dof of a class
    with n_interior interior dofs and side columns cols."""
    return np.concatenate([np.arange(n_interior), n_interior + cols])


def _check_shared(cls: RobinClass, shared: InteriorBlock) -> None:
    """Raise ValueError unless the class's interior rows are exactly the
    shared rows on its own columns, [A_II, A_IG[:, cols]], entry for entry.

    Both are canonical CSR and the map of columns is increasing, so the
    class's entries must be those of the shared rows on its columns, in
    the same order."""
    nI = cls.n_interior
    if nI == shared.rows.shape[0]:
        row, col, data = _entries(cls.A, 0, nI)
        to_shared = _to_shared(nI, cls.cols)
        own = np.zeros(shared.rows.shape[1], dtype=bool)
        own[to_shared] = True
        s_row, s_col, s_data = _entries(shared.rows, 0, nI)
        keep = own[s_col]
        if (np.array_equal(row, s_row[keep])
                and np.array_equal(to_shared[col], s_col[keep])
                and np.array_equal(data, s_data[keep])):
            return
    raise ValueError(
        f"subdomain {cls.members[0]}: its interior rows are not exactly "
        "the shared interior block and its sides' columns"
    )


def build_local_systems(
    part: SubdomainPartition, mesh: Mesh, beta: float, gamma: float
) -> list:
    """Assemble one Robin matrix per congruence class, from its first
    member's triangles, and factorize the interior block they share once.

    Every other member must match its class's first member exactly in
    local dofs; its interior and slots are read from `part.interior` and
    `part.slots` by their offsets.  That the members' triangles are
    translates, vertices and edge orientations, is part of the check of
    every triangle against its shape that `fem` runs once per mesh, on
    the first class's `element_matrices`.
    The shared blocks are read off the classes' own matrices: A_II from
    the first class's, and each side's columns of A_IG from the first
    class that has that side (at N=2 no class has all four, at N=1 none
    has any).  `ConstrainedRobinSolver` checks every class against them.
    """
    fem.check_positive("Robin parameter", gamma)
    fem.check_positive("beta", beta)
    N = part.N
    r = mesh.m // N
    tri_ids, starts, loc = local_dofs(part)
    own, sides = [], []
    for members, rows in _congruence_classes(N, starts):
        _check_congruent(members, "local dof table", np.take(loc, rows, axis=0))

        dofs = loc[rows[0]]
        interior = np.take(part.interior, _rows(part.interior_start, members))
        slots = np.take(part.slots, _rows(part.slot_start, members))
        n_local = interior.shape[1] + slots.shape[1]

        divdiv, mass = fem.element_matrices(mesh, tri_ids[rows[0]])
        own.append(dict(
            members=members, interior=interior, slots=slots,
            A=fem.assemble_matrix(divdiv + beta * mass, dofs, n_local),
            m_diag=part.trace.m_diag[slots[0]], gamma=gamma,
        ))
        # Its sides, bottom, left, right and top, in slot order.
        J, I = divmod(int(members[0]), N)
        sides.append([J > 0, I > 0, I < N - 1, J < N - 1])

    # Side d takes columns start[d] .. start[d] + r - 1 of A_IG, if some
    # class has it.  Each column is taken from the first class with it.
    has = np.any(sides, axis=0)
    start = r * (np.cumsum(has) - has)
    nI = own[0]["interior"].shape[1]
    taken = np.zeros(nI + r * np.count_nonzero(has), dtype=bool)
    entries = []
    for fields, present in zip(own, sides):
        fields["cols"] = (start[present][:, None] + np.arange(r)).ravel()
        to_shared = _to_shared(nI, fields["cols"])
        row, col, data = _entries(fields["A"], 0, nI)
        col = to_shared[col]
        keep = ~taken[col]
        taken[to_shared] = True
        entries.append((data[keep], row[keep], col[keep]))
    data, row, col = (np.concatenate(e) for e in zip(*entries))
    interior_rows = sp.csr_matrix((data, (row, col)), shape=(nI, taken.size))
    interior_rows.sum_duplicates()  # canonical, as `_check_shared` reads it
    shared = InteriorBlock(rows=interior_rows, r=r, _lu=_factor(
        interior_rows[:, :nI], 0.0, NOT_SPD.format(own[0]["members"][0])))
    return [RobinClass(**fields, shared=shared) for fields in own]


def local_loads(classes: list, part: SubdomainPartition, field) -> list:
    """Load vectors per congruence class, as (n_local, k) matrices whose
    columns are the members' loads in local dof order.

    One bincount sums the contributions into two rows per edge, row 0
    from the triangle where `tri_signs` is +1, row 1 where it is -1.  An
    interior edge's load is row 0 + row 1, a slot's is row slot_side (the
    side rule of `partition.local_dofs`): at most two terms each.
    """
    mesh, trace = part.mesh, part.trace
    side = mesh.tri_signs < 0.0
    rows = np.bincount(
        (mesh.tri_edges + mesh.n_edges * side).ravel(),
        fem.element_loads(mesh, field).ravel(), minlength=2 * mesh.n_edges,
    ).reshape(2, mesh.n_edges)
    interior = rows[0] + rows[1]
    slot_load = rows[trace.slot_side, trace.slot_edge]
    return [
        np.concatenate((interior[cls.interior], slot_load[cls.slots]), axis=1).T
        for cls in classes
    ]


def _trace_map_error(cls: RobinClass, schur: np.ndarray, Z: np.ndarray,
                     side_residual: float) -> float:
    """Upper bound of the backward error of X = H^-1 E, E the identity on
    the interface rows, from its blocks X[nI:] = Z and X[:nI] = -W_c Z.

    The backward error is |H X - E| / (|H|_1 |X| + |E|), with Frobenius
    norms for the blocks.  H X - E has the interior rows R_W Z, where
    R_W = A_IG[:, cols] - A_II W_c is the residual of the side solve, of
    norm `side_residual`, and the interface rows schur Z - I, schur the
    Robin Schur block.  As |R_W Z| <= |R_W| |Z|_2, with
    |Z|_2 <= sqrt(|Z|_1 |Z|_inf), and |X| >= |Z|, the value is at least
    the backward error.
    """
    A = cls.A
    nI = cls.n_interior
    robin = cls.gamma * cls.m_diag
    R = schur @ Z
    R[np.diag_indices_from(R)] -= 1.0
    z_2 = np.sqrt(np.linalg.norm(Z, 1) * np.linalg.norm(Z, np.inf))
    # Column sums of |H| from those of |A| and its diagonal.
    col_abs = np.bincount(A.indices, np.abs(A.data), minlength=cls.n_local)
    a_diag = A.diagonal()[nI:]
    col_abs[nI:] += np.abs(a_diag + robin) - np.abs(a_diag)
    scale = col_abs.max() * np.linalg.norm(Z) + np.sqrt(Z.shape[1])
    return float((side_residual * z_2 + np.linalg.norm(R)) / scale)


def _side_solves(shared: InteriorBlock):
    """(W, side_sq): W = A_II^-1 A_IG, row-major, solved one side (r
    columns) at a time, and the squared norm of each column of the side
    solves' residual A_II W - A_IG.  Only one side's dense columns and
    residual are alive beside W."""
    A_II, A_IG = shared.A_II, shared.A_IG.tocsc()
    W = np.empty(A_IG.shape)
    side_sq = np.empty(A_IG.shape[1])
    for lo in range(0, A_IG.shape[1], shared.r):
        side = slice(lo, lo + shared.r)
        rhs = A_IG[:, side].toarray()
        W_side = _solve(shared._lu, rhs, "the side columns")
        W[:, side] = W_side
        R = A_II @ W_side
        R -= rhs
        side_sq[side] = np.einsum("ij,ij->j", R, R)
        del rhs, W_side, R  # before the next side's are made
    return W, side_sq


class ConstrainedRobinSolver:
    """The Robin solves with the edge-average constraint eliminated.

    Setup checks every class against the shared blocks of the first
    class's `shared` (`_check_shared`), solves W = A_II^-1 A_IG once, one
    side (r columns) at a time (`_side_solves`), and inverts each class's
    Schur block A_GG - A_GI W_c + gamma M through its Cholesky factor,
    W_c = W[:, cols].  Each inverse is held to `_trace_map_error`.  The
    solver keeps:

    - W, row-major and shared by every class: its rows -W_c Z are the
      interior rows of the class's solves against the identity on its
      interface;
    - per class Z, at most 4r x 4r, the Robin-to-trace map of every
      member;
    - the sparse solved constraint columns Y_trace, Z B_s^T on the slots
      of each member s, where B_s (B on s's slots, at most one entry per
      slot) must be the same for all members;
    - the sparse coarse Schur complement `S` = B Y_trace (None without
      constraint rows), factorized by `_factor` like A_II.

    `apply_resolvent` is one `matmul` per class, on a contiguous
    (n_own, members x columns) block gathered through one flat slot index
    per class, plus the coarse correction, in one body for a vector or a
    block of columns.  `solve` puts one A_II solve of every member's
    interior load before that body and one product of W with the
    members' interface solutions after it.  An empty (0 x n_slots)
    constraint gives the unconstrained solves.
    """

    def __init__(self, classes: list, B: sp.spmatrix):
        self.classes = classes
        self.B = B.tocsr()
        self.n_ifaces, self.n_slots = B.shape
        entry = B.tocoo(copy=True)
        entry.sum_duplicates()
        entry.eliminate_zeros()
        per_slot = np.bincount(entry.col, minlength=self.n_slots)
        if np.any(per_slot > 1):
            slot = int(np.argmax(per_slot > 1))
            raise ValueError(
                f"trace slot {slot} carries {per_slot[slot]} constraint "
                "entries; each slot belongs to at most one coarse interface"
            )
        # The interface and value of each slot's entry (-1 and 0 if none).
        slot_iface = np.full(self.n_slots, -1, dtype=np.int64)
        slot_iface[entry.col] = entry.row
        slot_value = np.zeros(self.n_slots)
        slot_value[entry.col] = entry.data

        shared = classes[0].shared
        for cls in classes:
            _check_shared(cls, shared)
        self._lu = shared._lu
        self._W, side_sq = _side_solves(shared)
        # Per class, its members' slots flat and own-slot-major: slot p of
        # member i at p * k + i, so that a gather reshapes to (n_own, k).
        self._flat = [cls.slots.T.ravel() for cls in classes]

        self._Z, self._A_GI = [], []
        y_rows, y_cols, y_vals = [], [], []
        for cls in classes:
            k, n_own = cls.slots.shape
            nI = cls.n_interior
            row, col, data = _entries(cls.A, nI, cls.n_local)
            side = col >= nI
            A_GI = sp.csr_matrix((data[~side], (row[~side], col[~side])),
                                 shape=(n_own, nI))
            schur = -(A_GI @ self._W)[:, cls.cols]
            schur[row[side], col[side] - nI] += data[side]
            schur[np.diag_indices(n_own)] += cls.gamma * cls.m_diag
            Z = _spd_inverse(schur, NOT_SPD.format(cls.members[0]))
            err = (_trace_map_error(cls, schur, Z, np.sqrt(side_sq[cls.cols].sum()))
                   if n_own else 0.0)
            if err > TRACE_MAP_TOL:
                raise RuntimeError(
                    f"subdomain {cls.members[0]}: Robin-to-trace map backward "
                    f"error {err:.3e}"
                )
            self._Z.append(Z)
            self._A_GI.append(A_GI)
            # Local constraint block: row q covers the slot positions with
            # label q; adj[i, q] is that row's interface for member i.
            iface = slot_iface[cls.slots]
            _, first, label = np.unique(iface[0], return_index=True,
                                        return_inverse=True)
            adj = iface[:, first]
            _check_congruent(cls.members, "constraint row pattern",
                             iface == adj[:, label])
            value = slot_value[cls.slots]
            _check_congruent(cls.members, "constraint values", value)
            # Z B_s^T, with B_s[q, p] = value[p] where label[p] == q.
            Y = (Z * value[0]) @ (label[:, None] == np.arange(first.size))
            shape = (k, n_own, first.size)
            cols = np.broadcast_to(adj[:, None, :], shape)
            keep = cols >= 0  # a label of slots without a constraint entry
            y_rows.append(np.broadcast_to(cls.slots[:, :, None], shape)[keep])
            y_cols.append(cols[keep])
            y_vals.append(np.broadcast_to(Y, shape)[keep])
        if self.n_ifaces:
            self._Y_trace = sp.csr_matrix(
                (np.concatenate(y_vals),
                 (np.concatenate(y_rows), np.concatenate(y_cols))),
                shape=(self.n_slots, self.n_ifaces),
            )
            # B Y_trace = sum_s B_s Y_s[interface], as B_s is B on s's slots.
            self.S = self.B @ self._Y_trace
            self._S_lu = _factor(self.S, 0.0, "coarse interface Schur "
                                 "complement not positive definite "
                                 "(constraint rows dependent or assembly bug)")
        else:
            self.S = None

    def _check_constraint(self, w: np.ndarray) -> None:
        jump = np.abs(self.B @ w).max()
        if jump > 1e-10 * max(np.abs(w).max(), 1.0):
            raise RuntimeError(
                f"edge-average constraint violated after solve: {jump:.3e}"
            )

    def solve(self, loads, g):
        """Constrained solve; returns (u_interior list, u_trace, mu).

        `loads` is the per-class list of `local_loads` (None for zero),
        `g` the two-sided Robin datum on trace slots.  Entry c of the
        returned list holds the interiors of class c's members as an
        (n_interior, k) matrix, a view of one array of all members.  With
        v = A_II^-1 f_I, one solve for all members, the interface takes
        f_G + M g - A_GI v through the constrained interface solve, and
        x_I = v - W_c x_G, one product with W for all members.
        """
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n_slots,):
            raise ValueError(
                f"trace datum has shape {g.shape}, expected ({self.n_slots},)"
            )
        if not np.isfinite(g).all():
            raise ValueError("non-finite right-hand side for the trace datum")
        nI = self._W.shape[0]
        sizes = [cls.members.size for cls in self.classes]
        if loads is None:
            v = np.zeros((nI, sum(sizes)))
        else:
            f_I = np.concatenate([f[:nI] for f in loads], axis=1)
            v = _solve(self._lu, f_I, "the interior loads")
        split = np.cumsum(sizes)[:-1]
        v_c = np.split(v, split, axis=1)
        rhs = np.empty(self.n_slots)
        for c, (cls, A_GI, flat) in enumerate(zip(self.classes, self._A_GI, self._flat)):
            rhs_c = cls.m_diag[:, None] * g[flat].reshape(-1, sizes[c])
            if loads is not None:
                rhs_c += loads[c][nI:] - A_GI @ v_c[c]
            rhs[flat] = rhs_c.ravel()
        w, mu = self._condensed(rhs)
        # x_I = v - W x_G for every member in one GEMM: X's column j holds
        # member j's interface solution in the rows of its class's sides.
        X = np.zeros((self._W.shape[1], v.shape[1]))
        for cls, flat, x in zip(self.classes, self._flat, np.split(X, split, axis=1)):
            x[cls.cols] = w[flat].reshape(-1, x.shape[1])
        v -= self._W @ X
        return v_c, w, mu

    def _condensed(self, rhs):
        """(w, mu) of the constrained interface solve of `rhs`: one product
        per class, then the coarse correction."""
        w = np.empty_like(rhs)
        columns = rhs.shape[1] if rhs.ndim == 2 else 1
        for cls, Z, flat in zip(self.classes, self._Z, self._flat):
            # One GEMM: (n_own, n_own) by (n_own, members x columns).  The
            # width is explicit: a class without slots (N=1) has n_own = 0.
            x = rhs[flat].reshape(Z.shape[0], cls.members.size * columns)
            w[flat] = (Z @ x).reshape(flat.size, *rhs.shape[1:])
        mu = np.zeros(0)
        if self.S is not None:
            mu = _solve(self._S_lu, self.B @ w, "the coarse solve")
            w -= self._Y_trace @ mu
            self._check_constraint(w)
        return w, mu

    def apply_resolvent(self, rhs):
        """Interface trace of the constrained solve with interior load
        zero and raw interface right-hand side `rhs` (no mass weighting).

        Accepts a vector or a matrix of columns.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_slots:
            raise ValueError(
                f"trace vector has {rhs.shape[0]} rows, expected {self.n_slots}"
            )
        return self._condensed(rhs)[0]
