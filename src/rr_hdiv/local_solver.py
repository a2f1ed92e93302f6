"""Per-subdomain Robin problems and the constrained Robin-to-trace map.

Each subdomain carries the bilinear form restricted to its own triangles
plus a Robin term gamma*M on its interface rows, factorized once.  The
edge-average continuity constraint B u = 0 is enforced with a Lagrange
multiplier; eliminating the (block-diagonal) Robin matrix leaves a sparse
Schur complement S = B H^-1 B^T, one row per coarse interface.  Every one
of these SPD matrices is factorized the same way, by `_factor`.

Setup also solves each subdomain's Robin problem once against the
identity on its interface rows.  The interface block of that solve is the
subdomain's dense Robin-to-trace map, so applying the constrained
resolvent to trace data afterwards takes batched products of those maps
and one sparse coarse solve, with no back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh
from .partition import SubdomainPartition

__all__ = [
    "LocalRobinSystem",
    "CoarseSchur",
    "ConstrainedRobinSolver",
    "build_local_systems",
    "solve_local",
]

# Largest relative backward error accepted for a Robin-to-trace map.
TRACE_MAP_TOL = 1e-12

# Columns of a many-column resolvent application handled at a time, which
# keeps its temporaries to a few n_slots x COLUMN_BLOCK arrays.
COLUMN_BLOCK = 256


@dataclass(eq=False)
class LocalRobinSystem:
    """One subdomain's Robin problem, factorized.

    Local dof order is [interior edges (sorted), interface slots (trace
    order)].  `A` holds the plain bilinear blocks without the Robin term;
    the factorization is of A plus gamma * diag(m_diag) on the interface
    rows.
    """

    sid: int
    interior_edges: np.ndarray
    slots: np.ndarray
    local_edges: np.ndarray
    n_interior: int
    A: sp.csr_matrix
    m_diag: np.ndarray
    gamma: float
    _lu: spla.SuperLU

    @property
    def n_local(self) -> int:
        return int(self.local_edges.size)

    def robin_matrix(self) -> sp.csc_matrix:
        """The factorized matrix, reassembled (small instances, tests)."""
        diag = np.zeros(self.n_local)
        diag[self.n_interior:] = self.gamma * self.m_diag
        return _plus_diagonal(self.A, diag)

    def backsolve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve(self._lu, rhs, f"subdomain {self.sid}")


@dataclass(eq=False)
class CoarseSchur:
    """Sparse SPD interface Schur complement and its factorization."""

    S: sp.csr_matrix
    _lu: spla.SuperLU

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve(self._lu, rhs, "the coarse solve")


def _rank_in_group(groups: list, size: int) -> np.ndarray:
    """Position of each index in 0..size-1 within its group, -1 if none."""
    counts = np.array([g.size for g in groups], dtype=np.int64)
    rank = np.full(size, -1, dtype=np.int64)
    rank[np.concatenate(groups)] = np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return rank


def _subdomain_dofs(part: SubdomainPartition, mesh: Mesh):
    """Triangles grouped by subdomain, with the local dofs of their edges.

    Returns (tri_ids, starts, loc): triangles tri_ids[starts[s]:starts[s+1]]
    are subdomain s's, in increasing order, and loc[k] holds the local dof
    of each edge of triangle tri_ids[k] in its subdomain (-1 on the
    boundary).
    """
    trace = part.trace
    tri_ids = np.argsort(part.tri_sub, kind="stable")
    starts = np.concatenate(
        [[0], np.cumsum(np.bincount(part.tri_sub, minlength=part.n_subdomains))]
    )
    edges = mesh.tri_edges[tri_ids]
    loc = _rank_in_group(part.interior_edges, mesh.n_edges)[edges]
    if trace.n_slots:
        n_interior = np.array([e.size for e in part.interior_edges])
        slot_rank = _rank_in_group(part.sub_slots, trace.n_slots)
        first_slot = np.full(mesh.n_edges, -1, dtype=np.int64)
        first_slot[trace.slot_edge[::2]] = np.arange(0, trace.n_slots, 2)
        slot = first_slot[edges]
        on_gamma = slot >= 0
        # Each interface edge has its i-side slot first, then its j-side.
        sub = part.tri_sub[tri_ids][:, None]
        slot = np.where(on_gamma, slot + (trace.slot_sub[slot] != sub), 0)
        loc = np.where(on_gamma, n_interior[sub] + slot_rank[slot], loc)
    return tri_ids, starts, loc


def _local_matrix(elem: np.ndarray, dofs: np.ndarray, n_local: int):
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (elem.ravel()[keep], (rows[keep], cols[keep])),
        shape=(n_local, n_local),
    ).tocsr()


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


def build_local_systems(
    part: SubdomainPartition, mesh: Mesh, beta: float, gamma: float
) -> list:
    """Assemble and factorize every subdomain's Robin matrix."""
    if gamma <= 0.0:
        raise ValueError(f"Robin parameter must be positive, got {gamma}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    trace = part.trace
    tri_ids, starts, loc = _subdomain_dofs(part, mesh)
    divdiv, mass = fem.element_matrices(mesh, tri_ids)
    elem = divdiv + beta * mass
    systems = []
    for s in range(part.n_subdomains):
        slots = part.slots_of(s)
        interior = part.interior_edges[s]
        local_edges = np.concatenate([interior, trace.slot_edge[slots]])
        n_interior = interior.size
        n_local = local_edges.size
        block = slice(starts[s], starts[s + 1])
        A = _local_matrix(elem[block], loc[block], n_local)

        m_diag = trace.m_diag[slots]
        diag = np.zeros(n_local)
        diag[n_interior:] = gamma * m_diag
        lu = _factor(A, diag, f"subdomain {s}: Robin matrix not positive "
                     "definite (assembly bug or invalid parameters)")
        systems.append(
            LocalRobinSystem(
                sid=s,
                interior_edges=interior,
                slots=slots,
                local_edges=local_edges,
                n_interior=n_interior,
                A=A,
                m_diag=m_diag,
                gamma=gamma,
                _lu=lu,
            )
        )
    return systems


def local_loads(part: SubdomainPartition, mesh: Mesh, field) -> list:
    """Per-subdomain load vectors in local dof order."""
    tri_ids, starts, loc = _subdomain_dofs(part, mesh)
    contrib = fem.element_loads(mesh, field)[tri_ids]
    loads = []
    for s in range(part.n_subdomains):
        n_local = part.interior_edges[s].size + part.slots_of(s).size
        dofs = loc[starts[s]:starts[s + 1]].ravel()
        vals = contrib[starts[s]:starts[s + 1]].ravel()
        keep = dofs >= 0
        loads.append(np.bincount(dofs[keep], vals[keep], minlength=n_local))
    return loads


def solve_local(system: LocalRobinSystem, f_i, g_i):
    """One unconstrained Robin solve; returns (u_interior, u_interface).

    The interface datum enters the right-hand side as m_diag * g_i, the
    edge-length weighting of the Robin boundary term.
    """
    n = system.n_local
    nI = system.n_interior
    f_i = np.zeros(n) if f_i is None else np.asarray(f_i, dtype=float)
    g_i = np.asarray(g_i, dtype=float)
    if f_i.shape[0] != n or g_i.shape[0] != n - nI:
        raise ValueError(
            f"subdomain {system.sid}: rhs sizes {f_i.shape[0]}/{g_i.shape[0]} "
            f"do not match {n} local dofs with {n - nI} on the interface"
        )
    rhs = f_i.copy()
    rhs[nI:] += system.m_diag * g_i
    x = system.backsolve(rhs)
    r = system.A @ x - rhs
    r[nI:] += system.gamma * system.m_diag * x[nI:]
    scale = spla.norm(system.A, 1) * np.linalg.norm(x) + np.linalg.norm(rhs)
    if scale > 0 and np.linalg.norm(r) / scale > 1e-12:
        raise RuntimeError(
            f"subdomain {system.sid}: backward error "
            f"{np.linalg.norm(r) / scale:.3e} after back-substitution"
        )
    return x[:nI], x[nI:]


def _trace_map_error(system: LocalRobinSystem, X: np.ndarray) -> float:
    """Backward error of X = H^-1 E, E the identity on the interface rows.

    |H X - E| / (|H|_1 |X| + |E|), with Frobenius norms for the blocks.
    """
    A = system.A
    nI = system.n_interior
    robin = system.gamma * system.m_diag
    R = A @ X
    R[nI:] += robin[:, None] * X[nI:]
    R[nI:] -= np.eye(X.shape[1])
    # Column sums of |H| from those of |A| and its diagonal.
    col_abs = np.bincount(A.indices, np.abs(A.data), minlength=system.n_local)
    a_diag = A.diagonal()[nI:]
    col_abs[nI:] += np.abs(a_diag + robin) - np.abs(a_diag)
    scale = col_abs.max() * np.linalg.norm(X) + np.sqrt(X.shape[1])
    return float(np.linalg.norm(R) / scale)


class ConstrainedRobinSolver:
    """The Robin solves with the edge-average constraint eliminated.

    Setup does one back-substitution per subdomain, X_s = H_s^-1 E_s with
    E_s the identity on the subdomain's interface rows, and keeps:

    - the Robin-to-trace block Z_s = X_s[interface] (at most 4r x 4r),
      stacked with the other blocks of the same size;
    - the solved constraint columns Y_s = X_s B_s^T;
    - the sparse coarse Schur complement S = sum_s B_s Y_s[interface],
      factorized by `_factor` like the subdomain blocks.

    `apply_resolvent` is then one batched product per block size plus the
    coarse correction.  `solve` takes loads and returns interiors, so it
    still does one back-substitution per subdomain; it is the reference
    the resolvent is checked against.  An empty (0 x n_slots) constraint
    gives the unconstrained solves.
    """

    def __init__(self, systems: list, B: sp.spmatrix):
        self.systems = systems
        self.B = B.tocsr()
        self.n_ifaces, self.n_slots = B.shape
        self._adj = []
        self._Y = []
        Bcsc = B.tocsc(copy=True)
        Bcsc.sum_duplicates()
        Bcsc.eliminate_zeros()
        by_size = {}
        y_rows, y_cols, y_vals = [], [], []
        for system in systems:
            nI = system.n_interior
            n_own = system.slots.size
            E = np.zeros((system.n_local, n_own))
            E[nI:] = np.eye(n_own)
            X = np.ascontiguousarray(system.backsolve(E)) if n_own else E
            err = _trace_map_error(system, X) if n_own else 0.0
            if err > TRACE_MAP_TOL:
                raise RuntimeError(
                    f"subdomain {system.sid}: Robin-to-trace map backward "
                    f"error {err:.3e}"
                )
            # B_s: the constraint rows that touch the subdomain's slots,
            # gathered from the CSC entries of its slot columns.
            start = Bcsc.indptr[system.slots]
            count = Bcsc.indptr[system.slots + 1] - start
            gathered = np.cumsum(count) - count
            entry = np.arange(count.sum()) + np.repeat(start - gathered, count)
            adj, row = np.unique(Bcsc.indices[entry], return_inverse=True)
            B_s = np.zeros((adj.size, n_own))
            B_s[row, np.repeat(np.arange(n_own), count)] = Bcsc.data[entry]
            Y = X @ B_s.T
            self._adj.append(adj)
            self._Y.append(Y)
            if adj.size:
                y_rows.append(np.repeat(system.slots, adj.size))
                y_cols.append(np.tile(adj, n_own))
                y_vals.append(Y[nI:].ravel())
            if n_own:
                slots, blocks = by_size.setdefault(n_own, ([], []))
                slots.append(system.slots)
                blocks.append(X[nI:].copy())  # a view would keep all of X
        self._blocks = [
            (np.array(slots), np.array(blocks)) for slots, blocks in by_size.values()
        ]
        if self.n_ifaces:
            self._Y_trace = sp.csr_matrix(
                (np.concatenate(y_vals),
                 (np.concatenate(y_rows), np.concatenate(y_cols))),
                shape=(self.n_slots, self.n_ifaces),
            )
            # B Y_trace = sum_s B_s Y_s[interface], as B_s is B on s's slots.
            S = self.B @ self._Y_trace
            lu = _factor(S, 0.0, "coarse interface Schur complement not "
                         "positive definite (constraint rows dependent or "
                         "assembly bug)")
            self.schur = CoarseSchur(S=S, _lu=lu)
        else:
            self.schur = None

    def _check_constraint(self, w: np.ndarray) -> None:
        jump = np.abs(self.B @ w).max()
        if jump > 1e-10 * max(np.abs(w).max(), 1.0):
            raise RuntimeError(
                f"edge-average constraint violated after solve: {jump:.3e}"
            )

    def solve(self, loads, g):
        """Constrained solve; returns (u_interior list, u_trace, mu).

        `loads` is a per-subdomain list of local load vectors (None for
        zero), `g` the two-sided Robin datum on trace slots.  `g` may be a
        matrix whose columns are independent data; results then carry a
        matching trailing axis.
        """
        g = np.asarray(g, dtype=float)
        many = g.ndim == 2
        if g.shape[0] != self.n_slots:
            raise ValueError(
                f"trace datum has {g.shape[0]} rows, expected {self.n_slots}"
            )
        width = g.shape[1] if many else 1
        v_int = []
        w = np.zeros((self.n_slots, width))
        for k, system in enumerate(self.systems):
            nI = system.n_interior
            rhs = np.zeros((system.n_local, width))
            gs = g[system.slots]
            rhs[nI:] = system.m_diag[:, None] * (gs[:, None] if not many else gs)
            if loads is not None and loads[system.sid] is not None:
                rhs += np.asarray(loads[system.sid], dtype=float)[:, None]
            x = system.backsolve(rhs)
            v_int.append(x[:nI])
            w[system.slots] = x[nI:]
        if self.schur is not None:
            mu = self.schur.solve(self.B @ w)
            for k, system in enumerate(self.systems):
                adj = self._adj[k]
                if adj.size:
                    corr = self._Y[k] @ mu[adj]
                    v_int[k] -= corr[: system.n_interior]
                    w[system.slots] -= corr[system.n_interior:]
            self._check_constraint(w)
        else:
            mu = np.zeros((0, width))
        if not many:
            return [v[:, 0] for v in v_int], w[:, 0], mu[:, 0]
        return v_int, w, mu

    def apply_resolvent(self, rhs):
        """Interface trace of the constrained solve with interior load
        zero and raw interface right-hand side `rhs` (no mass weighting).

        Accepts a vector or a matrix of columns.
        """
        rhs = np.asarray(rhs, dtype=float)
        many = rhs.ndim == 2
        cols = rhs if many else rhs[:, None]
        if cols.shape[0] != self.n_slots:
            raise ValueError(
                f"trace vector has {cols.shape[0]} rows, expected {self.n_slots}"
            )
        w = np.empty_like(cols)
        for j in range(0, cols.shape[1], COLUMN_BLOCK):
            block = slice(j, j + COLUMN_BLOCK)
            w[:, block] = self._resolve(cols[:, block])
        return w if many else w[:, 0]

    def _resolve(self, cols: np.ndarray) -> np.ndarray:
        w = np.empty_like(cols)
        for slots, Z in self._blocks:
            w[slots] = np.matmul(Z, cols[slots])
        if self.schur is not None:
            w -= self._Y_trace @ self.schur.solve(self.B @ w)
            self._check_constraint(w)
        return w
