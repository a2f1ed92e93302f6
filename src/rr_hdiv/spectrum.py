"""Dense assembly and eigenvalue study of the Richardson iteration map.

The homogeneous (zero-load) iteration step is linear in the Robin datum:
g -> Q_theta g with Q_theta = (1 - theta) I + theta T (2 gamma R M - I).
Columns of Q are obtained by applying the constrained solver's
Robin-to-trace map to the scaled unit vectors in one batch, so the matrix
shares every code path with the actual iteration.  The exchange symmetry
gives Q a known exact unit eigenvalue (the per-interface constant-jump
directions), harmless to the iteration; the contraction quality lives in
the rest of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import iteration

__all__ = [
    "IterationOperator",
    "SpectrumReport",
    "assemble_Q",
    "eigenvalues",
    "export_spectrum",
    "spectrum_filename",
    "SIZE_CAP",
]

# Largest trace dimension 4 N (N-1) r accepted for dense assembly; keeps
# the nonsymmetric eigensolve in the minutes range.
SIZE_CAP = 4500

UNIT_TOL = 1e-6


@dataclass(eq=False)
class IterationOperator:
    """Dense iteration matrix with its parameters."""

    Q: np.ndarray
    N: int
    ratio: int
    gamma_rule: object
    gamma: float
    theta: float

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass(eq=False)
class SpectrumReport:
    """Full eigenvalue set of one iteration operator."""

    eigenvalues: np.ndarray
    N: int
    ratio: int
    gamma_rule: object
    gamma: float
    theta: float
    max_real: float
    max_nonreal_modulus: float
    unit_count: int

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def contraction_modulus(self, tol: float = UNIT_TOL) -> float:
        """Largest modulus over eigenvalues away from the exact unit one."""
        away = self.eigenvalues[np.abs(self.eigenvalues - 1.0) > tol]
        return float(np.abs(away).max()) if away.size else 0.0

    def max_real_below_unit(self, tol: float = UNIT_TOL) -> float:
        """Largest real part among real eigenvalues away from 1."""
        eigs = self.eigenvalues
        real = eigs[(np.abs(eigs.imag) <= tol) & (np.abs(eigs - 1.0) > tol)]
        return float(real.real.max()) if real.size else float("-inf")


def assemble_Q(config: iteration.IterationConfig, problem=None) -> IterationOperator:
    """Build the dense iteration matrix for one configuration.

    Refuses dimensions beyond SIZE_CAP; the assembly cost is one
    multi-column resolvent application, the memory cost a few dense
    squares.
    """
    n = 4 * config.N * (config.N - 1) * config.ratio
    if n > SIZE_CAP:
        raise ValueError(
            f"trace dimension {n} exceeds the dense-assembly cap {SIZE_CAP}"
        )
    if problem is None:
        if not config.constrained:
            raise ValueError("the iteration operator is the constrained map")
        problem = iteration.build_problem(config, lambda x, y: (0.0 * x, 0.0 * y))
    trace = problem.partition.trace
    gamma = problem.gamma
    theta = config.theta
    if n == 0:
        return IterationOperator(
            Q=np.zeros((0, 0)),
            N=config.N,
            ratio=config.ratio,
            gamma_rule=config.gamma_rule,
            gamma=gamma,
            theta=theta,
        )
    U = problem.solver.apply_resolvent(np.diag(trace.m_diag))
    Q1 = 2.0 * gamma * U
    Q1[np.arange(n), np.arange(n)] -= 1.0
    Q1 = Q1[trace.pair_perm, :]
    Q = theta * Q1
    if theta != 1.0:
        Q[np.arange(n), np.arange(n)] += 1.0 - theta
    return IterationOperator(
        Q=Q,
        N=config.N,
        ratio=config.ratio,
        gamma_rule=config.gamma_rule,
        gamma=gamma,
        theta=theta,
    )


def eigenvalues(op: IterationOperator) -> SpectrumReport:
    """Full nonsymmetric eigenvalue set, sorted by (re, im)."""
    try:
        eigs = np.linalg.eigvals(op.Q) if op.dim else np.zeros(0, dtype=complex)
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigensolver failed for N={op.N} r={op.ratio} "
            f"gamma={op.gamma_rule} theta={op.theta}"
        ) from err
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    nonreal = eigs[np.abs(eigs.imag) > UNIT_TOL]
    return SpectrumReport(
        eigenvalues=eigs,
        N=op.N,
        ratio=op.ratio,
        gamma_rule=op.gamma_rule,
        gamma=op.gamma,
        theta=op.theta,
        max_real=float(eigs.real.max()) if eigs.size else float("-inf"),
        max_nonreal_modulus=float(np.abs(nonreal).max()) if nonreal.size else 0.0,
        unit_count=int(np.count_nonzero(np.abs(eigs - 1.0) < UNIT_TOL)),
    )


def spectrum_filename(report: SpectrumReport) -> str:
    rule = report.gamma_rule
    rule_txt = rule if isinstance(rule, str) else f"{float(rule):g}"
    return (
        f"spectrum_N{report.N}_r{report.ratio}"
        f"_gamma{rule_txt}_theta{report.theta:g}.csv"
    )


def export_spectrum(report: SpectrumReport, path) -> None:
    """Write the eigenvalues as a two-column CSV (re, im)."""
    lines = [
        f"# spectrum N={report.N} r={report.ratio} "
        f"gamma={report.gamma_rule} theta={report.theta:g} dim={report.dim}",
        "re,im",
    ]
    for lam in report.eigenvalues:
        lines.append(f"{lam.real:.16e},{lam.imag:.16e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
