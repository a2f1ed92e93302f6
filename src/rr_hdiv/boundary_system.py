"""Symmetric interface system for the Robin datum and its MINRES solver.

The Robin exchange is one affine map g -> E g + c on the two-sided trace
vector, E g = T(2 gamma R M g - g) and c = 2 gamma T u_load (see
`iteration`; M = h I is the interface mass, every interface edge having
length h, T the side swap, R the constrained Robin resolvent).
Multiplying its fixed point by M T = h T gives the symmetric system
G g = f_g:

    G   = h T (I - E) = h (T + I) - 2 gamma h^2 R,
    f_g = h T c       = 2 gamma h u_load.

Richardson relaxes the same map and `spectrum` assembles
Q = theta E + (1 - theta) I.  G is applied matrix-free through
`RobinProblem.step`, and the system is solved by a Lanczos/Givens
minimum-residual recurrence implemented here; G carries a known
nullspace (the per-interface constant jump directions), against which
f_g is automatically consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import iteration
from .iteration import RobinProblem, check_case

__all__ = [
    "InterfaceOperator",
    "KrylovReport",
    "solve_minres",
    "run_minres",
]

BREAKDOWN_FLOOR = 1e-14


class InterfaceOperator:
    """Matrix-free G bound to one assembled Robin problem."""

    def __init__(self, problem: RobinProblem):
        if not problem.config.constrained and problem.partition.trace.n_slots:
            raise ValueError("interface operator needs the constrained solver")
        self.problem = problem
        self.trace = problem.partition.trace
        self.n = self.trace.n_slots
        self.h = problem.mesh.h

    def apply(self, g: np.ndarray) -> np.ndarray:
        """G g = h T (g - E g); accepts a vector or columns."""
        g = np.asarray(g, dtype=float)
        if g.shape[0] != self.n:
            raise ValueError(f"trace vector has {g.shape[0]} rows, expected {self.n}")
        return self.h * (g - self.problem.step(g))[self.trace.pair_perm]

    def load(self) -> np.ndarray:
        """f_g = h T c = 2 gamma h u_load, via one loaded zero-datum
        constrained solve."""
        return self.h * (2.0 * self.problem.gamma * self.problem.load_trace())


@dataclass(eq=False)
class KrylovReport:
    """Outcome of a minimum-residual solve of G g = f_g."""

    iterations: int
    converged: bool
    breakdown: bool
    residual_history: np.ndarray
    final_residual: float
    g: np.ndarray = field(repr=False, default=None)
    u_h: np.ndarray = field(repr=False, default=None)
    l2_error: float = float("nan")
    hdiv_error: float = float("nan")


def _minres(matvec, b: np.ndarray, tol: float, max_iter: int):
    """Minimum-residual recurrence for a symmetric operator.

    Lanczos tridiagonalization with on-the-fly Givens QR; the recurrence
    residual estimate is monotone and drives the stopping test.  Returns
    (x, history, converged, breakdown).
    """
    n = b.size
    x = np.zeros(n)
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0 or n == 0:
        return x, [], True, False
    y = b.copy()
    r1 = b.copy()
    r2 = b.copy()
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    history = []
    converged = False
    breakdown = False
    for _ in range(max_iter):
        v = y / beta
        y = matvec(v)
        if oldb > 0.0:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        oldb = beta
        beta = float(np.linalg.norm(y))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = float(np.hypot(gbar, beta))
        if gamma <= BREAKDOWN_FLOOR * beta1:
            breakdown = True
            history.append(phibar / beta1)
            break
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w

        history.append(phibar / beta1)
        if phibar / beta1 < tol:
            converged = True
            break
        if beta <= BREAKDOWN_FLOOR * beta1:
            # Krylov space exhausted: the recurrence solution is exact.
            converged = phibar / beta1 < tol
            breakdown = not converged
            break
    return x, history, converged, breakdown


def solve_minres(
    operator: InterfaceOperator,
    f_g: np.ndarray,
    tol: float | None = None,
    max_iter: int | None = None,
    case=None,
) -> KrylovReport:
    """Solve G g = f_g to a relative l2 residual below tol, in at most
    max_iter steps; each defaults to the problem config's value.

    The returned report carries the recovered global field (one
    constrained solve with the final datum) and, when a manufactured case
    is supplied, its errors.  A case made for another beta than the
    problem's is refused before G is applied.
    """
    config = operator.problem.config
    check_case(config, case)
    f_g = np.asarray(f_g, dtype=float)
    g, history, converged, breakdown = _minres(
        operator.apply, f_g,
        config.tol if tol is None else tol,
        config.max_iter if max_iter is None else max_iter,
    )
    scale = float(np.linalg.norm(f_g))
    if scale > 0.0:
        final = float(np.linalg.norm(operator.apply(g) - f_g)) / scale
    else:
        final = 0.0
    u_h, l2, hdiv = operator.problem.recover(g, case)
    return KrylovReport(
        iterations=len(history),
        converged=converged,
        breakdown=breakdown,
        residual_history=np.array(history),
        final_residual=final,
        g=g,
        u_h=u_h,
        l2_error=l2,
        hdiv_error=hdiv,
    )


def run_minres(config: iteration.IterationConfig, case) -> KrylovReport:
    """MINRES on the interface system of `config`, from g = 0, on a
    manufactured case, to `config.tol` in at most `config.max_iter` steps.

    The report carries the case's discretization errors.  A run that
    exhausts max_iter is returned with converged=False, not raised.  A
    case made for another beta than the config's is refused before any
    setup.
    """
    check_case(config, case)
    op = InterfaceOperator(iteration.build_problem(config, case.load))
    return solve_minres(op, op.load(), case=case)
