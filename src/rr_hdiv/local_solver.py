"""Robin problems per subdomain shape and the constrained Robin-to-trace map.

Each subdomain carries the bilinear form restricted to its own triangles
plus a Robin term gamma*M on its interface rows.  The N x N subdomains are
translates of at most nine shapes, so the matrix is assembled once per
congruence class.  The half-turn and the reflection x <-> y of the mesh
carry the nine classes onto four orbits, {interior}, {T, B, L, R},
{TR, BL} and {BR, TL} (two at N=2, one at N=1), and each class's matrix
is exactly a signed permutation of its orbit representative's
(`partition.symmetry_maps`).  So only the representatives are
factorized; every other class is checked exactly against its
representative and back-substitutes through that factor.  The
edge-average continuity constraint B u = 0 is enforced with a Lagrange
multiplier; eliminating the (block-diagonal) Robin matrix leaves a sparse
Schur complement S = B H^-1 B^T, one row per coarse interface.  Every one
of these SPD matrices is factorized the same way, by `_factor`.

Each subdomain's local dof order, and its dof tables, are the partition's
(`partition.local_dofs`, `interior`, `slots`); this module takes them as
given and checks them congruent across each class.  The loads need no
per-member triangle table: `local_loads` scatters all triangles once.

Setup also solves each class's Robin problem against the identity on its
interface rows: the interface block of that solve is the Robin-to-trace
map of every member, so the constrained resolvent takes one product per
class and one sparse coarse solve, with no back-substitution.  The group
acts on the (class, slot position) pairs with orbits of four, so one
column per orbit is back-substituted (192 of 768 at N=4, r=32) and the
signed maps fill in the rest.  Each class's full map is then held to a
backward error against its own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh
from .partition import SubdomainPartition, local_dofs, symmetry_maps

__all__ = [
    "RobinClass",
    "ConstrainedRobinSolver",
    "build_local_systems",
    "local_loads",
]

# Largest relative backward error accepted for a Robin-to-trace map.
TRACE_MAP_TOL = 1e-12

# Columns of one block of unit columns in `spectrum.assemble_Q`, which
# keeps its temporaries to a few n_slots x COLUMN_BLOCK arrays.
COLUMN_BLOCK = 256


@dataclass(eq=False)
class RobinClass:
    """The Robin problem of congruent subdomains, sharing one factor per
    symmetry orbit of classes.

    Local dof order is that of `partition.local_dofs`: member
    s = members[i] has the global edges interior[i] = part.interior_of(s),
    then the trace slots slots[i] = part.slots_of(s), both increasing.
    `A` holds the class's own plain bilinear blocks
    without the Robin term, H = A + gamma * diag(m_diag) on the interface
    rows.

    `rep` is the first member of the class's representative: the first
    class of its orbit under the half-turn and the reflection, the only
    one factorized.  Row j of (perm, sign) is the map of one group element
    carrying the representative onto this class, local dof i to local dof
    perm[j, i] with sign sign[j, i] (`partition.symmetry_maps`); A and
    m_diag were checked to be exactly their images under every row.  A
    representative's row 0 is the identity, and its further rows, if any,
    are the elements that fix its class.  `_lu` is the representative's
    factor, and `backsolve` solves H = P S H_rep S P^T through it, with P
    and S the permutation and signs of row 0 (on a representative, the
    identity).
    """

    members: np.ndarray
    interior: np.ndarray
    slots: np.ndarray
    A: sp.csr_matrix
    m_diag: np.ndarray
    gamma: float
    rep: int
    perm: np.ndarray
    sign: np.ndarray
    _lu: spla.SuperLU

    @property
    def n_interior(self) -> int:
        return self.interior.shape[1]

    @property
    def n_local(self) -> int:
        return self.interior.shape[1] + self.slots.shape[1]

    def backsolve(self, rhs: np.ndarray) -> np.ndarray:
        """H^-1 rhs for a block of columns, rhs of shape (n_local, k)."""
        perm, sign = self.perm[0], self.sign[0][:, None]
        x = _solve(self._lu, sign * rhs[perm],
                   f"the class of subdomain {self.members[0]}")
        out = np.empty_like(x)
        out[perm] = sign * x
        return out


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


def _is_signed_image(B: sp.csr_matrix, A: sp.csr_matrix, perm: np.ndarray,
                     sign: np.ndarray) -> bool:
    """Whether B = P S A S P^T exactly: entry (i, j) of A, times
    sign[i] sign[j], sits at (perm[i], perm[j]) of B, and B has no other
    entries.  Both must be in canonical CSR (sorted indices, no
    duplicates), as `fem.assemble_matrix` builds them, so that B's entries are
    sorted by row * n + column."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    key = perm[rows] * n + perm[A.indices]
    key_B = np.repeat(np.arange(n) * n, np.diff(B.indptr)) + B.indices
    pos = np.searchsorted(key_B, key)
    return (A.nnz == B.nnz
            and np.array_equal(key_B.take(pos, mode="clip"), key)
            and np.array_equal(B.data[pos], sign[rows] * sign[A.indices] * A.data))


def build_local_systems(
    part: SubdomainPartition, mesh: Mesh, beta: float, gamma: float
) -> list:
    """Assemble one Robin matrix per congruence class, from its first
    member's triangles, and factorize one per symmetry orbit of classes.

    Every other member must match its class's first member exactly in
    local dofs; its interior and slots are read from `part.interior` and
    `part.slots` by their offsets.  That the members' triangles are
    translates, vertices and edge orientations, is part of the check of
    every triangle against its shape that `fem` runs once per mesh, on
    the first class's `element_matrices`.
    The half-turn and the reflection x <-> y carry classes onto classes;
    the first class of each orbit is its representative.  A class shares
    the representative's factor only once its own A and m_diag are exactly
    the signed images of the representative's under every group element
    that carries one onto the other; otherwise ValueError names both.
    """
    fem.check_positive("Robin parameter", gamma)
    fem.check_positive("beta", beta)
    N = part.N
    tri_ids, starts, loc = local_dofs(part)
    class_of = np.empty(N * N, dtype=np.int64)
    own = []
    for members, rows in _congruence_classes(N, starts):
        _check_congruent(members, "local dof table", np.take(loc, rows, axis=0))

        dofs = loc[rows[0]]
        interior = np.take(part.interior, _rows(part.interior_start, members))
        slots = np.take(part.slots, _rows(part.slot_start, members))
        n_local = interior.shape[1] + slots.shape[1]

        divdiv, mass = fem.element_matrices(mesh, tri_ids[rows[0]])
        class_of[members] = len(own)
        own.append(dict(
            members=members, interior=interior, slots=slots,
            A=fem.assemble_matrix(divdiv + beta * mass, dofs, n_local),
            m_diag=part.trace.m_diag[slots[0]], gamma=gamma,
        ))

    # Group element k carries the representative onto class class_of[images[k]].
    maps = [[] for _ in own]
    rep_of = np.full(len(own), -1)
    for c in range(len(own)):
        if rep_of[c] < 0:
            images, perm, sign = symmetry_maps(part, own[c]["members"][0])
            for k, image in enumerate(class_of[images]):
                rep_of[image] = c
                maps[image].append((perm[k], sign[k]))

    classes = []
    for c, fields in enumerate(own):
        perm, sign = (np.array(rows) for rows in zip(*maps[c]))
        source = own[rep_of[c]]
        sub, rep = fields["members"][0], source["members"][0]
        nI = fields["interior"].shape[1]
        # A representative's row 0, the identity, needs no check.
        first_map = int(rep_of[c] == c)
        for p, s in zip(perm[first_map:], sign[first_map:]):
            if not _is_signed_image(fields["A"], source["A"], p, s):
                what = "Robin matrix"
            elif not np.array_equal(fields["m_diag"][p[nI:] - nI], source["m_diag"]):
                what = "interface mass"
            else:
                continue
            raise ValueError(
                f"subdomain {sub}: its {what} is not the signed symmetry "
                f"image of that of subdomain {rep}, its representative"
            )
        if rep_of[c] == c:
            diag = np.zeros(perm.shape[1])
            diag[nI:] = gamma * fields["m_diag"]
            lu = _factor(fields["A"], diag, f"subdomain {sub}: Robin matrix not "
                         "positive definite (assembly bug or invalid parameters)")
        else:
            lu = classes[rep_of[c]]._lu
        classes.append(RobinClass(**fields, rep=rep, perm=perm, sign=sign, _lu=lu))
    return classes


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


def _trace_map_error(cls: RobinClass, X: np.ndarray) -> float:
    """Backward error of X = H^-1 E, E the identity on the interface rows.

    |H X - E| / (|H|_1 |X| + |E|), with Frobenius norms for the blocks.
    """
    A = cls.A
    nI = cls.n_interior
    robin = cls.gamma * cls.m_diag
    R = A @ X
    R[nI:] += robin[:, None] * X[nI:]
    R[nI:] -= np.eye(X.shape[1])
    # Column sums of |H| from those of |A| and its diagonal.
    col_abs = np.bincount(A.indices, np.abs(A.data), minlength=cls.n_local)
    a_diag = A.diagonal()[nI:]
    col_abs[nI:] += np.abs(a_diag + robin) - np.abs(a_diag)
    scale = col_abs.max() * np.linalg.norm(X) + np.sqrt(X.shape[1])
    return float(np.linalg.norm(R) / scale)


def _place_columns(X: np.ndarray, cols: np.ndarray, W: np.ndarray) -> None:
    """X[:, cols] = W for distinct cols, one block copy per run of cols
    with step +1 or -1 (a signed map keeps the fine edges of an interface
    in order or reverses them, so the runs are few and long)."""
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.abs(np.diff(cols)) != 1) + 1, [cols.size])
    )
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = cols[a], cols[b - 1]
        if lo <= hi:
            X[:, lo:hi + 1] = W[:, a:b]
        else:
            X[:, hi:lo + 1] = W[:, a:b][:, ::-1]


class ConstrainedRobinSolver:
    """The Robin solves with the edge-average constraint eliminated.

    Setup builds X = H^-1 E per congruence class, E the identity on the
    class's interface rows.  The symmetry group acts on the pairs (class,
    slot position) with orbits of four: no group element fixes a side of
    a subdomain, so none fixes a slot position.  Each representative
    back-substitutes one column per orbit, the least position of each
    orbit of its stabilizer, in one multi-column solve, and the signed
    maps of `RobinClass` carry those columns onto every class of its
    orbit.  Each class's full X is then checked by `_trace_map_error`
    against its own A.  The solver keeps:

    - X, whose interface block Z (at most 4r x 4r) is the Robin-to-trace
      map of every member;
    - the sparse solved constraint columns Y_trace, Z B_s^T on the slots
      of each member s, where B_s (B on s's slots, at most one entry per
      slot) must be the same for all members;
    - the sparse coarse Schur complement `S` = B Y_trace (None without
      constraint rows), factorized by `_factor` like the class blocks.

    `apply_resolvent` is one product per class plus the coarse
    correction, in one body for a vector or a block of columns.  `solve` takes loads and returns interiors with one
    multi-column back-substitution per class; it is the reference the
    resolvent is checked against.  An empty (0 x n_slots) constraint
    gives the unconstrained solves.
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

        # hits counts how often each column of each X is written.
        self._X = [np.empty((cls.n_local, cls.slots.shape[1])) for cls in classes]
        hits = [np.zeros(cls.slots.shape[1], dtype=np.int64) for cls in classes]
        for rep in classes:
            nI, n_own = rep.n_interior, rep.slots.shape[1]
            if rep.rep != rep.members[0] or not n_own:
                continue
            # The least slot position of each orbit of the representative's
            # stabilizer, whose maps are its own rows of perm.
            chosen = np.flatnonzero(
                (rep.perm[:, nI:] - nI >= np.arange(n_own)).all(axis=0)
            )
            E = np.zeros((rep.n_local, chosen.size))
            E[nI + chosen, np.arange(chosen.size)] = 1.0
            X_rep = rep.backsolve(E)
            for cls, X, hit in zip(classes, self._X, hits):
                if cls.rep != rep.members[0]:
                    continue
                # X[perm[i], perm[nI + a] - nI] = sign[i] sign[nI + a] X_rep[i, a]
                for perm, sign in zip(cls.perm, cls.sign):
                    inv = np.empty_like(perm)
                    inv[perm] = np.arange(perm.size)
                    image = np.take(X_rep, inv, axis=0)
                    image *= sign[inv][:, None]
                    image *= sign[nI + chosen]
                    cols = perm[nI + chosen] - nI
                    _place_columns(X, cols, image)
                    hit[cols] += 1
        y_rows, y_cols, y_vals = [], [], []
        for cls, X, hit in zip(classes, self._X, hits):
            k, n_own = cls.slots.shape
            nI = cls.n_interior
            if np.any(hit != 1):
                raise AssertionError(
                    f"subdomain {cls.members[0]}: the symmetry orbits do not "
                    "cover its trace-map columns once each"
                )
            err = _trace_map_error(cls, X) if n_own else 0.0
            if err > TRACE_MAP_TOL:
                raise RuntimeError(
                    f"subdomain {cls.members[0]}: Robin-to-trace map backward "
                    f"error {err:.3e}"
                )
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
            Y = (X[nI:] * value[0]) @ (label[:, None] == np.arange(first.size))
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
        (n_interior, k) matrix.
        """
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n_slots,):
            raise ValueError(
                f"trace datum has shape {g.shape}, expected ({self.n_slots},)"
            )
        u_int = []
        w = np.zeros(self.n_slots)
        for c, cls in enumerate(self.classes):
            nI = cls.n_interior
            rhs = np.zeros((cls.n_local, cls.members.size))
            rhs[nI:] = cls.m_diag[:, None] * g[cls.slots.T]
            if loads is not None:
                rhs += loads[c]
            x = cls.backsolve(rhs)
            u_int.append(x[:nI])
            w[cls.slots.T] = x[nI:]
        mu = np.zeros(0)
        if self.S is not None:
            mu = _solve(self._S_lu, self.B @ w, "the coarse solve")
            bt_mu = self.B.T @ mu
            for cls, X, u_i in zip(self.classes, self._X, u_int):
                corr = X @ bt_mu[cls.slots.T]
                u_i -= corr[:cls.n_interior]
                w[cls.slots.T] -= corr[cls.n_interior:]
            self._check_constraint(w)
        return u_int, w, mu

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
        w = np.empty_like(rhs)
        for cls, X in zip(self.classes, self._X):
            # One GEMM: (n_own, n_own) by (n_own, members [x columns]).
            w[cls.slots.T] = np.tensordot(X[cls.n_interior:], rhs[cls.slots.T], 1)
        if self.S is not None:
            w -= self._Y_trace @ _solve(self._S_lu, self.B @ w, "the coarse solve")
            self._check_constraint(w)
        return w
