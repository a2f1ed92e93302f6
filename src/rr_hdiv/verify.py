"""Manufactured problem and direct-solve reference path.

The independent path against which the domain decomposition solvers are
checked: a one-shot sparse direct solve of the assembled problem, plus the
two-side Robin datum that the iterative methods must reproduce at their
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from . import fem
from .mesh import Mesh


def _u_quadratic(x, y):
    return x * (1.0 - x), y * (1.0 - y)


def _div_quadratic(x, y):
    return 2.0 - 2.0 * x - 2.0 * y


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, divergence and matching load for a given beta."""

    load: Callable
    u: Callable = field(default=_u_quadratic)
    div_u: Callable = field(default=_div_quadratic)
    beta: float = 1.0


def manufactured_case(beta: float = 1.0) -> ManufacturedCase:
    """The quadratic reference case u = (x(1-x), y(1-y)) with the load
    f = -grad(div u) + beta u = (2 + beta x(1-x), 2 + beta y(1-y))."""

    def load(x, y):
        return 2.0 + beta * x - beta * x * x, 2.0 + beta * y - beta * y * y

    return ManufacturedCase(load=load, beta=beta)


def solve_global(mesh: Mesh, beta: float, load) -> np.ndarray:
    """Direct sparse solve of the assembled problem.

    Returns dof values for every edge (zero on boundary edges). Raises if
    the factorization residual is not at direct-solver accuracy, which
    would signal an assembly bug. Meshes beyond 512x512 are refused: the
    oracle exists to cross-check the decomposition at study scale, not to
    be a production solver.
    """
    if mesh.m > 512:
        raise ValueError(f"oracle solve capped at m=512, got m={mesh.m}")
    system = fem.assemble_global(mesh, beta, load)
    lu = spla.splu(system.A.tocsc())
    x = lu.solve(system.load)
    resid = np.linalg.norm(system.A @ x - system.load)
    scale = spla.norm(system.A, 1) * np.linalg.norm(x) + np.linalg.norm(system.load)
    if scale > 0 and resid / scale > 1e-13:
        raise RuntimeError(
            f"direct solve backward error {resid / scale:.3e} above 1e-13"
        )
    u = np.zeros(mesh.n_edges)
    u[system.free_edges] = x
    return u


def fixed_point_g(problem, u: np.ndarray) -> np.ndarray:
    """Two-side Robin datum generated by a given discrete field.

    Per interface edge and side, gamma times the trace dof plus the natural
    (divergence-flux) datum of that side's subproblem, extracted exactly
    from the local blocks: g_s = gamma u_delta + M^-1 (A_s u|_s - f_s) on
    the interface rows, M = h I as every interface edge has length h.
    For the direct-solve field this is the fixed point of the Robin
    exchange and the solution of the interface system.
    """
    part = problem.partition
    trace = part.trace
    f_G = problem.local_loads.f_G
    g = np.zeros(trace.n_slots)
    for cls in problem.classes:
        u_delta = u[trace.slot_edge[cls.slots]]
        u_loc = np.concatenate([u[part.interior[cls.members]], u_delta], axis=1)
        A_delta = cls.template.A[cls.keep[cls.n_interior:]][:, cls.keep]
        r_delta = A_delta @ u_loc.T - cls.trace_block(f_G).T
        g[cls.slots] = problem.gamma * u_delta + (r_delta / problem.mesh.h).T
    return g

