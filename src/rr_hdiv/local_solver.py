"""Robin problems per subdomain shape and the constrained Robin-to-trace map.

Each subdomain carries the bilinear form restricted to its own triangles
plus a Robin term gamma*M on its interface rows.  The N x N subdomains are
translates of one square, and their Robin problems differ only in which
sides are interfaces: on the domain boundary the normal trace is
eliminated.  So one template matrix T is assembled, from subdomain 0's
triangles, on the local dofs [interior, bottom, left, right, top] of
`partition.local_dofs`, with every side kept.  Class c keeps the
interior and its own sides, and its Robin matrix is a principal
submatrix of T plus the Robin term:

    H_c = T[keep_c, keep_c] + gamma M_c on its interface rows.

A_II = T[:nI, :nI] is factorized once.  The edge-average continuity
constraint B u = 0 is enforced with a Lagrange multiplier; eliminating
the (block-diagonal) Robin matrix leaves a sparse Schur complement
S = B H^-1 B^T, one row per coarse interface.  A_II and S are factorized
the same way, by `_factor`.

Each subdomain's local dof order, and its dof tables, are the
partition's (`partition.local_dofs`, `interior`, `slots`); `local_dofs`
checks every subdomain against the template.  The loads need no
per-member triangle table: `local_loads` scatters all triangles once.

Setup condenses each class onto its interface (static condensation).
W = A_II^-1 A_IG is solved once, one side (r columns) at a time into one
row-major array, and the template's Schur complement S_t = A_GG - A_GI W,
at most 4r x 4r, is formed once.  Class c's Robin-to-trace map is
the inverse of a principal submatrix of it plus the Robin term,
Z_c = (S_t[cols_c, cols_c] + gamma M_c)^-1, taken through its Cholesky
factor.  The constrained resolvent is one `matmul` per class, Z_c on the
(n_own, members x columns) block of its members' right-hand sides, and
one sparse coarse solve; `solve` adds one interior solve and one product
with A_GI for all members' loads, and recovers all members' interiors in
one product with W.  Each Z_c is held to a bound on its backward error
against the class's own matrix.
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
    "RobinTemplate",
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
class RobinTemplate:
    """The one template Robin matrix that every class's is cut from, and
    one factor.

    `A` is the plain bilinear form (no Robin term) of subdomain 0's
    triangles on the local dofs of `partition.local_dofs`: the nI interior
    dofs, then r dofs on each side, in the order bottom, left, right, top,
    whether or not the side lies on the domain boundary.  `r` is that side
    width, and `_lu` is A_II's factor.
    """

    A: sp.csr_matrix
    r: int
    _lu: spla.SuperLU

    @property
    def n_interior(self) -> int:
        return self.A.shape[0] - 4 * self.r

    @property
    def A_II(self) -> sp.csr_matrix:
        nI = self.n_interior
        return self.A[:nI, :nI]


@dataclass(eq=False)
class RobinClass:
    """The Robin problem of congruent subdomains.

    Local dof order is that of `partition.local_dofs`: member
    s = members[i] has the global edges interior[i] = part.interior_of(s),
    then the trace slots slots[i] = part.slots_of(s), both increasing.
    `cols` are the template's side dofs, counted from nI, of the class's
    own sides, and `A` is the template's principal submatrix on
    [interior, nI + cols]: the class's plain bilinear blocks without the
    Robin term, H = A + gamma * diag(m_diag) on the interface rows.
    """

    members: np.ndarray
    interior: np.ndarray
    slots: np.ndarray
    A: sp.csr_matrix
    m_diag: np.ndarray
    gamma: float
    cols: np.ndarray
    template: RobinTemplate

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


def _congruence_classes(N: int):
    """Members of each subdomain shape, in increasing order.

    Subdomain s = J*N + I is a translate of every subdomain with the same
    key (I == 0, I == N-1, J == 0, J == N-1).
    """
    J, I = np.divmod(np.arange(N * N), N)
    key = 8 * (I == 0) + 4 * (I == N - 1) + 2 * (J == 0) + (J == N - 1)
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


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


def build_local_systems(
    part: SubdomainPartition, mesh: Mesh, beta: float, gamma: float
) -> list:
    """Assemble the one template matrix, from subdomain 0's triangles, cut
    each congruence class's matrix from it, and factorize A_II once.

    Class c keeps the interior dofs and the r side dofs of each of its
    own sides (bottom if J > 0, left if I > 0, right if I < N-1, top if
    J < N-1, for its members (J, I)); its members' interiors and slots
    are read from `part.interior` and `part.slots` by their offsets.
    `partition.local_dofs` checks every subdomain's triangles and slots
    against the template's dofs.  That the triangles are translates,
    vertices and edge orientations, is part of the check of every
    triangle against its shape that `fem` runs once per mesh, on the
    template's `element_matrices`.
    """
    fem.check_positive("Robin parameter", gamma)
    fem.check_positive("beta", beta)
    N = part.N
    r = mesh.m // N
    tri_ids, loc = local_dofs(part)
    divdiv, mass = fem.element_matrices(mesh, tri_ids)
    nI = int(part.interior_start[1])
    A = fem.assemble_matrix(divdiv + beta * mass, loc, nI + 4 * r)
    own = []
    for members in _congruence_classes(N):
        J, I = divmod(int(members[0]), N)
        sides = np.flatnonzero([J > 0, I > 0, I < N - 1, J < N - 1])
        cols = (r * sides[:, None] + np.arange(r)).ravel()
        keep = np.concatenate([np.arange(nI), nI + cols])
        slots = np.take(part.slots, _rows(part.slot_start, members))
        own.append(dict(
            members=members,
            interior=np.take(part.interior, _rows(part.interior_start, members)),
            slots=slots, A=A[keep][:, keep], m_diag=part.trace.m_diag[slots[0]],
            gamma=gamma, cols=cols,
        ))
    template = RobinTemplate(A=A, r=r, _lu=_factor(
        A[:nI, :nI], 0.0, NOT_SPD.format(own[0]["members"][0])))
    return [RobinClass(**fields, template=template) for fields in own]


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


def _side_solves(template: RobinTemplate, width: int):
    """(W, side_sq): W = A_II^-1 A_IG on the template's first `width` side
    columns, row-major, solved one side (r columns) at a time, and the
    squared norm of each column of the side solves' residual
    A_II W - A_IG.  Only one side's dense columns and residual are alive
    beside W."""
    nI, r = template.n_interior, template.r
    A_II = template.A_II
    A_IG = template.A[:nI, nI:nI + width].tocsc()
    W = np.empty((nI, width))
    side_sq = np.empty(width)
    for lo in range(0, width, r):
        side = slice(lo, lo + r)
        rhs = A_IG[:, side].toarray()
        W_side = _solve(template._lu, rhs, "the side columns")
        W[:, side] = W_side
        R = A_II @ W_side
        R -= rhs
        side_sq[side] = np.einsum("ij,ij->j", R, R)
        del rhs, W_side, R  # before the next side's are made
    return W, side_sq


class ConstrainedRobinSolver:
    """The Robin solves with the edge-average constraint eliminated.

    Setup solves W = A_II^-1 A_IG once on the template's sides, one side
    (r columns) at a time (`_side_solves`), forms the template's Schur
    complement S_t = A_GG - A_GI W once, and inverts each class's Schur
    block S_t[cols, cols] + gamma M through its Cholesky factor.  Each
    inverse is held to `_trace_map_error`.  W and S_t cover all four
    sides when some class has a side, as every side is some class's for
    N > 1, and none for N = 1.  The solver keeps:

    - W, row-major and shared by every class: its rows -W[:, cols] Z are
      the interior rows of the class's solves against the identity on its
      interface;
    - A_GI, the template's interface-to-interior block, for the loads;
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
    interior load, and one product of A_GI with those solutions, before
    that body and one product of W with the members' interface solutions
    after it.  An empty (0 x n_slots) constraint gives the unconstrained
    solves.
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

        template = classes[0].template
        self._lu = template._lu
        width = 4 * template.r if any(cls.cols.size for cls in classes) else 0
        self._W, side_sq = _side_solves(template, width)
        # Per class, its members' slots flat and own-slot-major: slot p of
        # member i at p * k + i, so that a gather reshapes to (n_own, k).
        self._flat = [cls.slots.T.ravel() for cls in classes]

        nI = template.n_interior
        sides = slice(nI, nI + width)
        self._A_GI = template.A[sides, :nI]
        schur_t = -(self._A_GI @ self._W)
        A_GG = template.A[sides, sides].tocoo()
        schur_t[A_GG.row, A_GG.col] += A_GG.data

        self._Z = []
        y_rows, y_cols, y_vals = [], [], []
        for cls in classes:
            k, n_own = cls.slots.shape
            schur = schur_t[np.ix_(cls.cols, cls.cols)]
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
        if loads is not None:
            A_GI_v = np.split(self._A_GI @ v, split, axis=1)
        rhs = np.empty(self.n_slots)
        for c, (cls, flat) in enumerate(zip(self.classes, self._flat)):
            rhs_c = cls.m_diag[:, None] * g[flat].reshape(-1, sizes[c])
            if loads is not None:
                rhs_c += loads[c][nI:] - A_GI_v[c][cls.cols]
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
