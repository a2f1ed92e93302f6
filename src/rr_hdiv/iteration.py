"""Robin-Robin Richardson iteration on the two-sided interface datum.

The method is one affine map on the two-sided trace vector g.  A round of
Robin solves with datum g has trace u_trace = R(M g) + u_load (R the
precomputed Robin-to-trace map, M = h I the interface mass, as every
interface edge has length h, u_load the trace of one loaded zero-datum
solve), and the side swap T gives

    E g + c = T(2 gamma u_trace - g),   E g = T(2 gamma h R g - g),

written once: `RobinProblem.step` is the one place that puts the mass,
the resolvent and the exchange T(2 gamma u - g) together, E g + c given
u_load and E g without.  Richardson (here) steps
g <- theta (E g + c) + (1 - theta) g until the sup-norm of the datum
increment is below tol; MINRES (`boundary_system`) solves G g = f_g with
G = h T (I - E) and f_g = h T c; the spectrum (`spectrum`) assembles
Q = theta E + (1 - theta) I.  The steps do no subdomain solves; the field
is recovered once, from the datum of the last step.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, local_solver, verify
from .mesh import Mesh, build_unit_square_mesh
from .partition import SubdomainPartition, build_constraint, partition

__all__ = [
    "IterationConfig",
    "SolveReport",
    "RobinProblem",
    "resolve_gamma",
    "build_problem",
    "check_case",
    "run_richardson",
    "fixed_point_check",
    "assemble_solution",
]


def resolve_gamma(rule, m: int, N: int) -> float:
    """Robin parameter from a rule: "h" -> 1/m, "H" -> 1/N, or a value."""
    if rule == "h":
        return 1.0 / m
    if rule == "H":
        return 1.0 / N
    return fem.check_positive("gamma_rule", float(rule))


@dataclass(frozen=True)
class IterationConfig:
    """Parameters of one Robin-Robin run.  Every default and every range
    check of a run parameter is stated here, once; an out-of-range value
    raises a ValueError that names its field.

    `constrained=False` drops the edge-average constraint: the
    unconstrained baseline, whose subdomain solves are independent.
    """

    N: int
    ratio: int
    beta: float = 1.0
    gamma_rule: object = "h"
    theta: float = 0.5
    tol: float = 1e-6
    max_iter: int = 10000
    constrained: bool = True

    def __post_init__(self):
        for name in ("N", "ratio", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {getattr(self, name)}")
        fem.check_positive("beta", self.beta)
        if not 0.0 < self.theta <= 1.0:  # NaN too
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        fem.check_positive("tol", self.tol)
        self.gamma  # refuses an invalid gamma_rule

    @property
    def m(self) -> int:
        return self.N * self.ratio

    @property
    def gamma(self) -> float:
        """The Robin parameter that `gamma_rule` gives on this mesh."""
        return resolve_gamma(self.gamma_rule, self.m, self.N)


@dataclass(eq=False)
class RobinProblem:
    """Mesh, decomposition, factorized subdomain classes, and loads."""

    config: IterationConfig
    mesh: Mesh
    partition: SubdomainPartition
    classes: list
    local_loads: local_solver.LocalLoads
    B: sp.csr_matrix
    solver: local_solver.ConstrainedRobinSolver

    @functools.cached_property
    def gamma(self) -> float:
        return self.config.gamma

    @functools.cached_property
    def condensed_loads(self):
        """The loads condensed onto the trace (`solver.condense`), once
        per problem, on first use: setup does not pay for them."""
        return self.solver.condense(self.local_loads)

    def solve_once(self, g: np.ndarray):
        """One round of Robin solves with datum g; returns (u_int, u_trace)."""
        u_int, u_trace, _ = self.solver.solve(self.condensed_loads, g)
        return u_int, u_trace

    def exchange(self, g, u_trace):
        """T(2 gamma u_trace - g): the datum each side hands the other.

        g and u_trace are trace vectors or (n_slots, k) column blocks.
        """
        return (2.0 * self.gamma * u_trace - g)[self.partition.trace.pair_perm]

    def step(self, g: np.ndarray, u_load=None) -> np.ndarray:
        """T(2 gamma (R M g + u_load) - g), u_load zero if None: E g, or
        E g + c given the load trace.  g is a trace vector or an
        (n_slots, k) column block, and M g = h g."""
        u = self.solver.apply_resolvent(self.mesh.h * g)
        if u_load is not None:
            u += u_load
        # `exchange` in place on the u this step owns.
        u *= 2.0 * self.gamma
        u -= g
        return u[self.partition.trace.pair_perm]

    def load_trace(self) -> np.ndarray:
        """Trace u_load of the loaded zero-datum solve: the resolvent of
        the condensed trace load, with no interior formed."""
        return self.solver.apply_resolvent(self.condensed_loads.f)

    def recover(self, g, case=None):
        """Global field of datum g -> (u_h, l2, hdiv); the errors are NaN
        unless a manufactured case with exact fields is given.  A case
        made for another beta than the config's is refused."""
        check_case(self.config, case)
        u_int, u_trace = self.solve_once(np.asarray(g, dtype=float))
        u_h = assemble_solution(self, u_int, u_trace)
        l2 = hdiv = float("nan")
        if case is not None:
            l2, hdiv = fem.error_norms(self.mesh, u_h, case.u, case.div_u)
        return u_h, l2, hdiv


@dataclass(eq=False)
class SolveReport:
    """Outcome of a Richardson run."""

    config: IterationConfig
    iterations: int
    converged: bool
    increment_history: np.ndarray
    u_h: np.ndarray
    l2_error: float
    hdiv_error: float
    wall_time: float  # the steps and the load solve, without recovery
    g: np.ndarray = field(repr=False, default=None)


def check_case(config: IterationConfig, case) -> None:
    """Refuse a manufactured case made for another beta than the
    config's: its exact fields would not solve the config's problem."""
    if case is not None and case.beta != config.beta:
        raise ValueError(f"the case is made for beta={case.beta}, "
                         f"the config has beta={config.beta}")


def build_problem(config: IterationConfig, load) -> RobinProblem:
    """Assemble mesh, partition, and the factorized subdomain classes."""
    mesh = build_unit_square_mesh(config.m)
    part = partition(mesh, config.N)
    classes = local_solver.build_local_systems(part, config.beta, config.gamma)
    loads = local_solver.local_loads(part, load)
    if config.constrained:
        B = build_constraint(part)
    else:
        B = sp.csr_matrix((0, part.trace.n_slots))
    return RobinProblem(
        config=config,
        mesh=mesh,
        partition=part,
        classes=classes,
        local_loads=loads,
        B=B,
        solver=local_solver.ConstrainedRobinSolver(classes, B),
    )


def assemble_solution(problem: RobinProblem, u_int, u_trace) -> np.ndarray:
    """Global dof vector from the (nI, N^2) interiors and the trace;
    interface edges take the mean of both sides."""
    part = problem.partition
    u = np.zeros(problem.mesh.n_edges)
    u[part.interior] = u_int.T
    trace = part.trace
    u[trace.slot_edge] = 0.5 * (u_trace + u_trace[trace.pair_perm])
    return u


def _run(problem: RobinProblem, case) -> SolveReport:
    config = problem.config
    history = []
    converged = False
    iterations = 0
    start = time.perf_counter()
    u_load = problem.load_trace()
    g = np.zeros(u_load.size)
    # The run's two workspaces: the increment and the relaxation's
    # (1 - theta) g.
    diff, kept = np.empty_like(g), np.empty_like(g)
    for _ in range(config.max_iter):
        g_tilde = problem.step(g, u_load)
        # The stopping test reads the raw datum change of the exchange;
        # relaxation only damps the step taken.
        np.subtract(g_tilde, g, out=diff)
        inc = float(np.abs(diff, out=diff).max()) if g.size else 0.0
        history.append(inc)
        # g <- theta g_tilde + (1 - theta) g, in the step's own array.
        g_step = g
        g_tilde *= config.theta
        g = np.add(g_tilde, np.multiply(g, 1.0 - config.theta, out=kept), out=g_tilde)
        iterations += 1
        if inc < config.tol:
            converged = True
            break
        if not np.isfinite(inc):
            break
    wall = time.perf_counter() - start
    # Recovering from the relaxed g instead would move the field by the
    # last relaxed step, far above round-off.
    u_h, l2, hdiv = problem.recover(g_step, case)
    return SolveReport(
        config=config,
        iterations=iterations,
        converged=converged,
        increment_history=np.array(history),
        u_h=u_h,
        l2_error=l2,
        hdiv_error=hdiv,
        wall_time=wall,
        g=g,
    )


def run_richardson(config: IterationConfig, case) -> SolveReport:
    """The Robin-Robin iteration that `config` names, from g = 0, on a
    manufactured case: constrained, or the unconstrained baseline with
    `constrained=False`.

    The report carries the case's discretization errors.  A run that
    exhausts max_iter is returned with converged=False, not raised.  A
    case made for another beta than the config's is refused before any
    setup.
    """
    check_case(config, case)
    return _run(build_problem(config, case.load), case)


def fixed_point_check(problem: RobinProblem, u_global: np.ndarray) -> float:
    """Sup-norm defect of one unrelaxed exchange at a given global field.

    Builds the two-sided Robin datum generated by u_global, runs one Robin
    solve round with it, applies the side exchange, and measures how far
    the datum moved.  Zero (to round-off) characterizes the discrete
    solution of the assembled problem.
    """
    g = verify.fixed_point_g(problem, u_global)
    _, u_trace = problem.solve_once(g)
    defect = problem.exchange(g, u_trace) - g
    return float(np.abs(defect).max()) if g.size else 0.0
