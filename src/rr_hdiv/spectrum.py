"""Contraction modulus of the Richardson iteration map, by Arnoldi on ker B.

The Robin exchange is one affine map g -> E g + c on the two-sided trace
vector, E g = T(2 gamma R M g - g) with M = h I the interface mass (see
`iteration`).  Richardson relaxes it, MINRES solves G g = f_g with
G = h T (I - E) and f_g = h T c, and here the homogeneous relaxed step
Q = theta E + (1 - theta) I is applied matrix-free, through
`RobinProblem.step`.  Q thus shares every code path with the actual
iteration, and no n x n array of it is ever formed.

The edge-average constraint B fixes the unit eigenvalues of Q exactly.
The side swap negates B (B T = -B) and every constrained solve lies in
ker B (B R = 0), so B Q = B; Robin data along a constraint direction
is taken up by the constraint's multiplier and leaves no solution
(R B^T = 0), so Q B^T = B^T.  Both unit eigenspaces of Q are
thus span(B^T), one vector per coarse interface, and ker B, its
orthogonal complement, is invariant under Q and holds every other
eigenvalue.  `eigenvalues` checks both identities on seeded random
vectors, refusing a Q that breaks them, and then runs ARPACK's implicitly
restarted Arnoldi method (Lehoucq, Sorensen & Yang, "ARPACK Users'
Guide", SIAM 1998; `scipy.sparse.linalg.eigs`) on P Q P, P the
orthogonal projector onto ker B, for its eigenvalue of largest modulus.
The rows of B have disjoint supports, so B B^T is the diagonal d of
their squared norms and P v = v - B^T((B v) / d) costs one sparse
product each way.  The solve holds a few dozen trace vectors, so its
size is bounded only by the resolvent's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from . import iteration

__all__ = ["IterationOperator", "SpectrumReport", "assemble_Q", "eigenvalues"]

# Arnoldi basis size and relative residual tolerance of the eigs call.
# With these the modulus matched the dense eigensolve to 1.6e-11 at
# N = 4, 6, 8, 12 and theta = 1/2, 2/3, 1.
NCV = 40
TOL = 1e-8

# Seed of the random start vector and of the invariance check's vectors,
# and the number of each that the check applies Q to.
SEED = 20260821
CHECK_COLUMNS = 3

# Largest relative defect of Q B^T x = B^T x and B Q v = B v accepted.
INVARIANCE_TOL = 1e-10


@dataclass(eq=False)
class IterationOperator:
    """Iteration map Q of `config` with its constraint matrix B.

    Q is anything that `@` applies to a trace vector and to an (n, k)
    column block: the matrix-free LinearOperator of `assemble_Q`, or a
    dense array.  B is sparse, one row per coarse interface.
    """

    Q: object
    config: iteration.IterationConfig
    B: object

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass(eq=False)
class SpectrumReport:
    """Dominant eigenvalue of the iteration map of `config` off its exact
    unit eigenspace span(B^T), of dimension unit_count."""

    config: iteration.IterationConfig
    dim: int
    unit_count: int
    eigenvalues: np.ndarray  # the dominant Ritz value(s) of Q on ker B

    def contraction_modulus(self) -> float:
        """Largest modulus over eigenvalues away from the exact unit ones."""
        return float(np.abs(self.eigenvalues).max(initial=0.0))


def assemble_Q(config: iteration.IterationConfig) -> IterationOperator:
    """The iteration map Q = theta E + (1 - theta) I of one configuration,
    matrix-free.

    Q is a LinearOperator applying theta `RobinProblem.step` +
    (1 - theta) I of the zero-load problem to a trace vector or to
    columns.  Refuses the unconstrained config.

    The function assembles nothing; it keeps its name because the
    benchmark in `solvebench` calls it and wraps it by name, and the name
    changes with that benchmark (ROADMAP items 2(c) and 8).
    """
    if not config.constrained:
        raise ValueError("the iteration operator is the constrained map")
    problem = iteration.build_problem(config, lambda x, y: (0.0 * x, 0.0 * y))
    n = problem.partition.trace.n_slots
    theta = config.theta

    def relaxed_step(V):
        out = problem.step(V)
        if theta != 1.0:  # theta = 1 is the unrelaxed step
            out *= theta
            out += (1.0 - theta) * V
        return out

    return IterationOperator(
        Q=LinearOperator((n, n), matvec=relaxed_step, matmat=relaxed_step,
                         dtype=float),
        config=config,
        B=problem.B,
    )


def _check_invariance(op: IterationOperator, rng) -> None:
    """Refuse Q unless Q B^T x = B^T x and B Q v = B v, column by column
    to INVARIANCE_TOL relative, for CHECK_COLUMNS random x and v; a NaN
    fails too.  One block of 2 CHECK_COLUMNS columns goes through Q."""
    B, config = op.B, op.config
    U = B.T @ rng.standard_normal((B.shape[0], CHECK_COLUMNS))
    V = rng.standard_normal((op.dim, CHECK_COLUMNS))
    QU, QV = np.hsplit(op.Q @ np.hstack([U, V]), 2)
    BV = B @ V
    for what, defect, scale in (
        ("Q B^T x = B^T x", QU - U, U),
        ("B Q v = B v", B @ QV - BV, BV),
    ):
        rel = np.linalg.norm(defect, axis=0) / np.linalg.norm(scale, axis=0)
        if not np.all(rel <= INVARIANCE_TOL):  # NaN fails too
            raise RuntimeError(
                f"iteration map for N={config.N} r={config.ratio} breaks "
                f"{what}: relative defect {np.max(rel):.3e} > {INVARIANCE_TOL:.0e}"
            )


def eigenvalues(op: IterationOperator) -> SpectrumReport:
    """The dominant eigenvalue of Q on ker B, by Arnoldi on P Q P.

    The unit count is B's row count, exact once `_check_invariance`
    passes.  A Q of dimension 0 (N=1) has modulus 0.  Raises RuntimeError
    if Q breaks the invariance or the Arnoldi iteration does not converge.
    """
    config, B, n = op.config, op.B, op.dim
    report = SpectrumReport(config=config, dim=n, unit_count=B.shape[0],
                            eigenvalues=np.zeros(0, dtype=complex))
    if n == 0:
        return report
    rng = np.random.default_rng(SEED)
    _check_invariance(op, rng)
    d = np.asarray(B.multiply(B).sum(axis=1)).ravel()

    def project(v):
        return v - B.T @ ((B @ v) / d)

    PQP = LinearOperator((n, n), matvec=lambda v: project(op.Q @ project(v)),
                         dtype=float)
    try:
        report.eigenvalues = eigs(
            PQP, k=1, which="LM", ncv=min(NCV, n), tol=TOL,
            v0=project(rng.standard_normal(n)), return_eigenvectors=False,
        )
    except ArpackNoConvergence as err:
        raise RuntimeError(
            f"Arnoldi did not converge for N={config.N} r={config.ratio} "
            f"gamma={config.gamma_rule} theta={config.theta}"
        ) from err
    return report
