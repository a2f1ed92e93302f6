"""Robin problems per subdomain shape and the constrained Robin-to-trace map.

Each subdomain carries the bilinear form restricted to its own triangles
plus a Robin term gamma*M on its interface rows, M = h I the interface
mass: every interface edge lies on a grid line and has length h.  The
N x N subdomains are translates of one square, and their Robin problems
differ only in which sides are interfaces: on the domain boundary the
normal trace is eliminated.  So one template matrix T is assembled, from
subdomain 0's triangles, on the local dofs [interior, bottom, left,
right, top] of `partition.local_dofs`, with every side kept.  Class c
keeps the interior and its own sides, and its Robin matrix is a
principal submatrix of T plus the Robin term:

    H_c = T[keep_c, keep_c] + gamma h on its interface rows.

A_II = T[:nI, :nI] is factorized once.  The edge-average continuity
constraint B u = 0 is enforced with a Lagrange multiplier; eliminating
the (block-diagonal) Robin matrix leaves a sparse Schur complement
S = B H^-1 B^T, one row per coarse interface.  A_II and S are factorized
the same way, by `_factor`.

Each subdomain's local dof order, and its dof tables, are the
partition's (`partition.local_dofs`, `interior`, `slot_range`), taken
as given: every subdomain is a translate of the template by the
partition's index arithmetic, which tests check against sort
references.  Each class reads its own sides from the partition's side
table (`side_start`).  Outside the trace everything is in subdomain
order, column s subdomain s: `local_loads` reads the slot loads and
every subdomain's interior loads, one (nI, N^2) array, off the two rows
per edge of `fem.element_loads`, with no per-triangle table.

Setup condenses each class onto its interface (static condensation).
W = A_II^-1 A_IG is formed once, in one row-major array: one side is
solved, and the template's half-turn and reflection x <-> y
(`partition.template_symmetry_maps`), which keep A, map it onto the
other three, with every side's residual checked.  The template's Schur
complement S_t = A_GG - A_GI W, at most 4r x 4r, is formed once.  Class
c's Robin-to-trace map is the inverse of a principal submatrix of it
plus the Robin term,
Z_c = (S_t[cols_c, cols_c] + gamma h I)^-1, taken through its Cholesky
factor.  Each Z_c is held to a bound on its backward error against the
class's own matrix.

The trace slots are class-major (`partition`), so class c's part of a
trace vector is one contiguous (members, own slots) block, and of a
column block one (members, own slots, columns) block.  The constrained
resolvent is one in-place `matmul` with the symmetric Z_c on that block,
one sparse coarse solve, and the correction by the class's dense solved
constraint columns Y_c = Z_c B_s^T (at most 4).  B_s, the constraint on
one member's slots, comes from the layout, as
`partition.build_constraint` writes B: one row per own side, at the
interface the class's `ifaces` names for that member, -h on a bottom
or left side and +h on a right or top one.  Neighbouring classes of
one shape (the four edge classes, the four corners) are stacked, so one
`matmul` serves each group of them.  The loads are condensed once
(`condense`): one interior solve for all subdomains gives
v = A_II^-1 f_I and the trace load f_G - A_GI v; `solve` recovers all
subdomains' interiors from it as v - W x_G, in one product with W, as
one (nI, N^2) array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .partition import SubdomainPartition, local_dofs, template_symmetry_maps

__all__ = [
    "RobinTemplate",
    "RobinClass",
    "LocalLoads",
    "CondensedLoads",
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


@dataclass(eq=False)
class RobinTemplate:
    """The one template Robin matrix that every class's is cut from, and
    one factor.

    `A` is the plain bilinear form (no Robin term) of subdomain 0's
    triangles on the local dofs of `partition.local_dofs`: the nI interior
    dofs, then r dofs on each side, in the order bottom, left, right, top,
    whether or not the side lies on the domain boundary.  `r` is that side
    width, `h` the length of every side edge, so that the interface mass
    is h I, `gamma` the Robin parameter, so that the Robin term is
    gamma h on every interface row, `symmetry` the (perm, sign) of
    `partition.template_symmetry_maps`, the half-turn's and the
    reflection's signed maps of the interior dofs, and `_lu` is A_II's
    factor.
    """

    A: sp.csr_matrix
    r: int
    h: float
    gamma: float
    symmetry: tuple
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
    s = members[i] has the global edges part.interior_of(s), then the
    trace slots slots[i] = part.slots_of(s), the i-th n_own of the
    class's range of slots from `first_slot` on.  `cols` are the
    template's side dofs, counted from nI, of the class's own sides, and
    `A` is the template's principal submatrix on [interior, nI + cols]:
    the class's plain bilinear blocks without the Robin term,
    H = A + gamma h on the interface rows.  `ifaces`,
    shape (members, own sides), holds the coarse interface of each
    member's own sides, in the order of `cols`.
    """

    members: np.ndarray
    first_slot: int
    A: sp.csr_matrix
    cols: np.ndarray
    ifaces: np.ndarray
    template: RobinTemplate

    @property
    def n_interior(self) -> int:
        return self.template.n_interior

    @property
    def n_local(self) -> int:
        return self.template.n_interior + self.cols.size

    @property
    def slots(self) -> np.ndarray:
        """The members' trace slots, one row per member."""
        k = self.members.size
        return self.first_slot + np.arange(k * self.cols.size).reshape(k, -1)

    def trace_block(self, x: np.ndarray) -> np.ndarray:
        """The class's rows of a trace vector or (n_slots, columns) block x,
        shaped (members, own slots[, columns]): a view of contiguous x."""
        k = self.members.size
        lo = self.first_slot
        return x[lo:lo + k * self.cols.size].reshape(k, self.cols.size, *x.shape[1:])


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


def build_local_systems(part: SubdomainPartition, beta: float, gamma: float) -> list:
    """Assemble the one template matrix, from subdomain 0's triangles, cut
    each congruence class's matrix from it, and factorize A_II once.

    Class c keeps the interior dofs and the r side dofs of each of its
    own sides, those whose `part.side_start` entry is a slot; its slots
    are the class's range of the partition's class-major layout, and its
    `ifaces` the `slot_iface` of each member's own sides' first slots:
    one interface per member and own side.  That every member is a
    translate of the template, in its triangles, vertices, edge
    orientations, interior edges and slots, is the index arithmetic of
    `mesh` and `partition`.
    """
    fem.check_positive("Robin parameter", gamma)
    fem.check_positive("beta", beta)
    mesh = part.mesh
    r = mesh.m // part.N
    tri_ids, loc = local_dofs(part)
    divdiv, mass = fem.element_matrices(mesh, tri_ids)
    nI = part.interior.shape[1]
    A = fem.assemble_matrix(divdiv + beta * mass, loc, nI + 4 * r)
    template = RobinTemplate(
        A=A, r=r, h=mesh.h, gamma=gamma, symmetry=template_symmetry_maps(part),
        _lu=_factor(A[:nI, :nI], 0.0, NOT_SPD.format(part.classes[0][0])))
    classes = []
    for members, start in zip(part.classes, part.class_start):
        sides = np.flatnonzero(part.side_start[members[0]] >= 0)
        cols = (r * sides[:, None] + np.arange(r)).ravel()
        keep = np.concatenate([np.arange(nI), nI + cols])
        classes.append(RobinClass(
            members=members, first_slot=int(start), A=A[keep][:, keep], cols=cols,
            ifaces=part.trace.slot_iface[part.side_start[members][:, sides]],
            template=template,
        ))
    return classes


@dataclass(eq=False)
class LocalLoads:
    """The loads of every subdomain in subdomain order: f_I, shape
    (nI, N^2), column s subdomain s's interior loads in the order of
    `part.interior`, and f_G the load of each trace slot."""

    f_I: np.ndarray
    f_G: np.ndarray


def local_loads(part: SubdomainPartition, field) -> LocalLoads:
    """Every subdomain's interior and trace loads (`LocalLoads`).

    `fem.element_loads` gives two rows per edge, one per orientation of
    the edge in its triangles.  A slot's load is row slot_side (the side
    rule of `partition.local_dofs`), an interior edge's is row 0 + row 1:
    at most two terms each.
    """
    rows = fem.element_loads(part.mesh, field)
    f_G = rows[part.trace.slot_side, part.trace.slot_edge]
    rows[0] += rows[1]
    return LocalLoads(rows[0][part.interior.T], f_G)


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
    the backward error.  The Robin term gamma h is one scalar on every
    interface row.
    """
    A = cls.A
    nI = cls.n_interior
    robin = cls.template.gamma * cls.template.h
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
    columns (0 or all 4r), row-major, and the squared norm of each column
    of the residual A_II W - A_IG.

    Only the bottom side's r columns are back-substituted.  A signed
    permutation of the dofs that keeps A keeps W: row i, column j moves
    to row perm(i), column perm(j), times both signs.  So the reflection
    x <-> y of `template.symmetry` maps bottom column t onto left column
    t (side normals onto side normals), and the half-turn maps bottom and
    left column t onto top and right column r-1-t (side normals negated).
    The residual is formed for every side, solved or mapped, one side at
    a time, so `_trace_map_error` holds the mapped columns to the same
    bound.  Only one side's dense columns and residual are alive beside
    W."""
    nI, r = template.n_interior, template.r
    A_II = template.A_II
    A_IG = template.A[:nI, nI:nI + width].tocsc()
    W = np.empty((nI, width))
    side_sq = np.empty(width)
    if not width:
        return W, side_sq
    bottom, left, right, top = (W[:, d * r:(d + 1) * r] for d in range(4))
    bottom[...] = _solve(template._lu, A_IG[:, :r].toarray(), "the side columns")
    (half, refl), (half_sign, refl_sign) = template.symmetry
    # W[perm(i), perm(j)] = sign(i) sign(j) W[i, j], in place.
    left[refl] = refl_sign[:, None] * bottom
    top[half] = -half_sign[:, None] * bottom[:, ::-1]
    right[half] = -half_sign[:, None] * left[:, ::-1]
    for lo in range(0, width, r):
        side = slice(lo, lo + r)
        R = A_II @ W[:, side]
        R -= A_IG[:, side].toarray()
        side_sq[side] = np.einsum("ij,ij->j", R, R)
        del R  # before the next side's is made
    return W, side_sq


@dataclass(eq=False)
class _Group:
    """Classes next to each other in the trace slots with one member count
    k, one own slot count n_own and one label count, g of them: their
    slots are the rows `rows`, shaped (g, k, n_own), their Z and Y^T are
    stacked as (g, n_own, n_own) and (g, labels, n_own), and `adj`
    (g, k, labels) holds each member's interface of each label.  One
    matmul serves them all."""

    rows: slice
    shape: tuple
    Z: np.ndarray
    Yt: np.ndarray
    adj: np.ndarray


def _stack_groups(classes: list, Zs: list, Yts: list, adjs: list) -> list:
    """The classes, in order, cut into `_Group`s: runs of neighbours with
    one member count and one own slot count, and so one shape of Y^T and
    `adj`.  Class slots follow each other in class order (`partition`),
    so a run's slots are one range.  With `partition`'s class order the
    groups are the interior class, the four edge classes and the four
    corners."""
    groups = []
    for _, run in itertools.groupby(
            range(len(classes)),
            key=lambda c: (classes[c].members.size, classes[c].cols.size)):
        run = list(run)
        first = classes[run[0]]
        k, n_own = first.members.size, first.cols.size
        groups.append(_Group(
            rows=slice(first.first_slot, first.first_slot + len(run) * k * n_own),
            shape=(len(run), k, n_own), Z=np.stack([Zs[c] for c in run]),
            Yt=np.stack([Yts[c] for c in run]), adj=np.stack([adjs[c] for c in run]),
        ))
    return groups


@dataclass(eq=False)
class CondensedLoads:
    """Loads condensed onto the trace: v = A_II^-1 f_I, the interior
    solves of every subdomain as (nI, N^2) columns, column s subdomain
    s's, and f = f_G - A_GI v, the trace load."""

    v: np.ndarray
    f: np.ndarray


class ConstrainedRobinSolver:
    """The Robin solves with the edge-average constraint eliminated.

    Setup forms W = A_II^-1 A_IG once on the template's sides
    (`_side_solves`): one side's r columns are solved and mapped onto the
    other three by the template's symmetries, and the residual of every
    side is formed.  It forms the template's Schur complement
    S_t = A_GG - A_GI W once, and inverts each class's Schur block
    S_t[cols, cols] + gamma h I through its Cholesky factor.  Each
    inverse is held to `_trace_map_error`, which takes the residual of
    its solved and mapped columns alike.  W and S_t cover all four
    sides when some class has a side, as every side is some class's for
    N > 1, and none for N = 1.  The solver keeps:

    - W, row-major and shared by every class: its rows -W[:, cols] Z are
      the interior rows of the class's solves against the identity on its
      interface;
    - A_GI, the template's interface-to-interior block, for the loads;
    - per class Z, at most 4r x 4r, the Robin-to-trace map of every
      member;
    - per class the dense solved constraint columns Y = Z B_s^T, one per
      own side of a member (at most 4), and `adj`, the class's `ifaces`:
      the interface of each column for each member.  B_s, B on one
      member's slots, is built from the layout (module docstring), the
      same for every member, not read from B;
    - the sparse coarse Schur complement `S` = B Z B^T (None without
      constraint rows), summed from the blocks B_s Y of all members and
      factorized by `_factor` like A_II.

    B itself is the operator of the coarse right-hand side B w and of
    the constraint check after every solve.  It must be the
    `partition.build_constraint` of the classes' partition, or have no
    rows: an empty (0 x n_slots) constraint gives the unconstrained
    solves, with no Y.

    `apply_resolvent` is, per group of classes (`_Group`), one in-place
    `matmul` with the stacked Z on the group's contiguous block of the
    trace slots, then the coarse solve and per group the correction by
    the stacked Y, in one body for a vector or a block of columns.
    `condense` solves A_II once for every subdomain's interior load;
    `solve` puts the condensed loads through the same body and recovers
    every subdomain's interior in one product with W after it.
    """

    def __init__(self, classes: list, B: sp.spmatrix):
        # In slot order, whatever order they come in: a `_Group` is a run
        # of neighbours in the trace slots.
        classes = sorted(classes, key=lambda cls: cls.first_slot)
        self.classes = classes
        self.B = B.tocsr()
        self.n_ifaces, self.n_slots = B.shape
        template = classes[0].template
        r, h = template.r, template.h
        self._h, self._lu = h, template._lu
        width = 4 * r if any(cls.cols.size for cls in classes) else 0
        self._W, side_sq = _side_solves(template, width)

        nI = template.n_interior
        sides = slice(nI, nI + width)
        self._A_GI = template.A[sides, :nI]
        schur_t = -(self._A_GI @ self._W)
        A_GG = template.A[sides, sides].tocoo()
        schur_t[A_GG.row, A_GG.col] += A_GG.data

        Zs, Yts, adjs = [], [], []
        s_rows, s_cols, s_vals = [], [], []
        for cls in classes:
            k, n_own = cls.members.size, cls.cols.size
            schur = schur_t[np.ix_(cls.cols, cls.cols)]
            schur[np.diag_indices(n_own)] += template.gamma * h
            Z = _spd_inverse(schur, NOT_SPD.format(cls.members[0]))
            err = (_trace_map_error(cls, schur, Z, np.sqrt(side_sq[cls.cols].sum()))
                   if n_own else 0.0)
            if err > TRACE_MAP_TOL:
                raise RuntimeError(
                    f"subdomain {cls.members[0]}: Robin-to-trace map backward "
                    f"error {err:.3e}"
                )
            Zs.append(Z)
            # B_s, B on a member's slots: row q is its q-th own side's
            # interface, adj[i, q] for member i, with -h on a bottom or
            # left side and +h on a right or top one (`build_constraint`).
            adj = cls.ifaces if self.n_ifaces else cls.ifaces[:, :0]
            sign = np.where(cls.cols // r < 2, -1.0, 1.0)
            B_s = (np.arange(adj.shape[1])[:, None] == np.arange(n_own) // r) * (
                sign * h)
            Y = Z @ B_s.T
            Yts.append(Y.T)
            adjs.append(adj)
            # Member i adds B_s Y at (adj[i], adj[i]) of S.
            shape = (k, Y.shape[1], Y.shape[1])
            s_rows.append(np.broadcast_to(adj[:, :, None], shape).ravel())
            s_cols.append(np.broadcast_to(adj[:, None, :], shape).ravel())
            s_vals.append(np.broadcast_to(B_s @ Y, shape).ravel())
        self._groups = _stack_groups(classes, Zs, Yts, adjs)
        if self.n_ifaces:
            self.S = sp.csr_matrix(
                (np.concatenate(s_vals),
                 (np.concatenate(s_rows), np.concatenate(s_cols))),
                shape=(self.n_ifaces, self.n_ifaces),
            )
            self._S_lu = _factor(self.S, 0.0, "coarse interface Schur "
                                 "complement not positive definite "
                                 "(constraint rows dependent or assembly bug)")
        else:
            self.S = None

    def _check_constraint(self, w: np.ndarray) -> None:
        jump = np.abs(self.B @ w).max()
        if jump > 1e-10 * max(w.max(), -w.min(), 1.0):
            raise RuntimeError(
                f"edge-average constraint violated after solve: {jump:.3e}"
            )

    def condense(self, loads: LocalLoads) -> CondensedLoads:
        """The loads of `local_loads` condensed onto the trace, with one
        A_II solve for every subdomain's interior."""
        v = _solve(self._lu, loads.f_I, "the interior loads")
        A_GI_v = self._A_GI @ v
        f = loads.f_G.copy()
        for cls in self.classes:
            cls.trace_block(f)[...] -= A_GI_v[cls.cols[:, None], cls.members].T
        return CondensedLoads(v, f)

    def solve(self, loads, g):
        """Constrained solve; returns (u_interior, u_trace, mu).

        `loads` is the `CondensedLoads` of `condense`.  `g` is the
        two-sided Robin datum on trace slots.  u_interior, shape
        (n_interior, N^2), holds subdomain s's interior in column s, in
        the order of `part.interior`.  The interface takes f + h g
        (M = h I) through the constrained interface solve, and
        x_I = v - W_c x_G, one product with W for all subdomains.
        """
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n_slots,):
            raise ValueError(
                f"trace datum has shape {g.shape}, expected ({self.n_slots},)"
            )
        if not np.isfinite(g).all():
            raise ValueError("non-finite right-hand side for the trace datum")
        w, mu = self._condensed(loads.f + self._h * g)
        # x_I = v - W x_G for every subdomain in one GEMM: row s of X^T
        # holds subdomain s's interface solution in the columns of its
        # sides, written row by row.  v comes Fortran-ordered from
        # SuperLU, and (X^T W^T)^T is too, so the subtraction runs in one
        # memory order, into the product: the cached v is never written.
        Xt = np.zeros((loads.v.shape[1], self._W.shape[1]))
        for cls in self.classes:
            Xt[cls.members[:, None], cls.cols] = cls.trace_block(w)
        P = (Xt @ self._W.T).T
        return np.subtract(loads.v, P, out=P), w, mu

    def _condensed(self, rhs):
        """(w, mu) of the constrained interface solve of `rhs`: one product
        per group of classes on its block, written in place into w, then
        the coarse correction w_c -= Y_c mu[adj_c], again per group."""
        w = np.empty(rhs.shape)
        cols = rhs.shape[1:]
        for group in self._groups:
            shape = (*group.shape, *cols)
            x, out = rhs[group.rows].reshape(shape), w[group.rows].reshape(shape)
            # Z is symmetric: a member's row of a vector's block times Z is
            # Z times its column.
            if cols:
                np.matmul(group.Z[:, None], x, out=out)
            else:
                np.matmul(x, group.Z, out=out)
        mu = np.zeros(0)
        if self.S is not None:
            mu = _solve(self._S_lu, self.B @ w, "the coarse solve")
            for group in self._groups:
                out = w[group.rows].reshape(*group.shape, *cols)
                m = mu[group.adj]
                if cols:
                    out -= np.swapaxes(group.Yt, 1, 2)[:, None] @ m
                else:
                    out -= m @ group.Yt
            self._check_constraint(w)
        return w, mu

    def apply_resolvent(self, rhs):
        """Interface trace of the constrained solve with interior load
        zero and raw interface right-hand side `rhs` (no mass weighting).

        Accepts a vector or a matrix of columns, and refuses a non-finite
        one, with or without a constraint.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n_slots:
            raise ValueError(
                f"trace vector has {rhs.shape[0]} rows, expected {self.n_slots}"
            )
        if not np.isfinite(rhs).all():
            raise ValueError("non-finite right-hand side for the resolvent")
        return self._condensed(rhs)[0]
