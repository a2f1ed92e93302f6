"""Dense assembly and eigenvalue study of the Richardson iteration map.

The Robin exchange is one affine map g -> E g + c on the two-sided trace
vector, E g = T(2 gamma R M g - g) with M = h I the interface mass (see
`iteration`).  Richardson relaxes it, MINRES solves G g = f_g with
G = h T (I - E) and f_g = h T c, and here the homogeneous relaxed step
is assembled, Q = theta E + (1 - theta) I, COLUMN_BLOCK unit columns at
a time through `RobinProblem.step`.  Q thus shares every code path with
the actual iteration, and assembly holds no dense square but Q.  The
exchange symmetry gives Q a known exact unit eigenvalue (the
per-interface constant-jump directions), harmless to the iteration; the
contraction quality lives in the rest of the spectrum.

The mesh and the partition keep the half-turn about (1/2, 1/2) and the
reflection x <-> y, which permute the trace slots (see
`partition.symmetry_generators`).  Q commutes with both, so the Klein
four-group they generate splits it into four blocks of a quarter of its
dimension, one per character chi of the group: B_chi = V_chi^T Q V_chi
with V_chi the orthonormal chi-symmetric combinations of the slots of
each orbit.  The eigenvalues of Q are those of the four blocks.  The
pass that gathers the blocks also checks, block by block, that Q is
invariant under every group element to SYMMETRY_TOL, and refuses it
otherwise; the dense eigensolve, cubic in the dimension, then costs
about a sixteenth of the one on Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from . import iteration, partition

__all__ = [
    "IterationOperator",
    "SpectrumReport",
    "assemble_Q",
    "eigenvalues",
    "export_spectrum",
    "spectrum_filename",
    "symmetry_blocks",
    "SIZE_CAP",
    "SizeCapError",
    "SYMMETRY_TOL",
]

# Columns of one block of unit columns in `assemble_Q`, which keeps its
# temporaries to a few n_slots x COLUMN_BLOCK arrays.
COLUMN_BLOCK = 256

# Largest trace dimension 4 N (N-1) r accepted for dense assembly.  At
# N=12, r=8 (dim 4224, the largest size under it) assembly takes 1.0 s
# and the invariance check, blocks and eigensolve 4.0 s (39.8 s as one
# dense eigensolve), CPU time on one BLAS thread of a 2-core x86_64.
# Assembly holds Q (136 MB there) and a few n x COLUMN_BLOCK blocks, a
# traced peak of 182 MB.
SIZE_CAP = 4500


class SizeCapError(ValueError):
    """A trace dimension beyond SIZE_CAP, refused before any assembly."""


UNIT_TOL = 1e-6

# Largest invariance defect accepted in `symmetry_blocks`, relative to
# max|Q|; round-off gives 4.3e-13 at N=8, r=8 and 9.8e-13 at N=12, r=8.
SYMMETRY_TOL = 1e-10


@dataclass(eq=False)
class IterationOperator:
    """Dense iteration matrix of `config` with its symmetry orbits.

    orbits is `partition.orbit_table` of the half-turn and the reflection:
    orbits[k, i] is the image of slot orbits[0, i] under group element k.
    The default, one row, is the trivial group, whose one block is Q.
    """

    Q: np.ndarray
    config: iteration.IterationConfig
    orbits: np.ndarray = None

    def __post_init__(self):
        if self.orbits is None:
            self.orbits = np.arange(self.dim)[None]
        if len(self.orbits) not in (1, 4) or self.orbits.size != self.dim:
            raise ValueError(
                f"orbit table of shape {self.orbits.shape} does not fit "
                f"dimension {self.dim} in 1 or 4 rows"
            )

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass(eq=False)
class SpectrumReport:
    """Full eigenvalue set of the iteration operator of `config`."""

    eigenvalues: np.ndarray
    config: iteration.IterationConfig
    max_nonreal_modulus: float
    unit_count: int
    blocks: tuple = ()

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

    Refuses dimensions beyond SIZE_CAP with SizeCapError; the assembly cost is one
    resolvent application per block of COLUMN_BLOCK columns, the memory
    cost Q and a few n x COLUMN_BLOCK blocks.  The operator carries the
    orbits of the partition's symmetry group, which `eigenvalues` splits
    Q by.
    """
    n = 4 * config.N * (config.N - 1) * config.ratio
    if n > SIZE_CAP:
        raise SizeCapError(
            f"trace dimension {n} exceeds the dense-assembly cap {SIZE_CAP}"
        )
    if problem is None:
        if not config.constrained:
            raise ValueError("the iteration operator is the constrained map")
        problem = iteration.build_problem(config, lambda x, y: (0.0 * x, 0.0 * y))
    theta = config.theta
    Q = np.empty((n, n))
    # Unit columns j .. j + k - 1 are written into the first k columns of
    # one zero buffer, then cleared.
    unit = np.zeros((n, min(COLUMN_BLOCK, n)))
    for j in range(0, n, COLUMN_BLOCK):
        k = min(COLUMN_BLOCK, n - j)
        rows, cols = j + np.arange(k), np.arange(k)
        E = unit[:, :k]
        E[rows, cols] = 1.0
        # theta E + (1 - theta) I on these columns, written into Q.
        np.multiply(problem.step(E), theta, out=Q[:, j:j + k])
        E[rows, cols] = 0.0
        Q[rows, rows] += 1.0 - theta
    return IterationOperator(
        Q=Q,
        config=config,
        orbits=partition.orbit_table(
            partition.symmetry_generators(problem.partition)
        ),
    )


def symmetry_blocks(op: IterationOperator) -> np.ndarray:
    """The blocks V_chi^T Q V_chi, one per character chi, shape (g, k, k).

    Column i of V_chi is sum_a chi(a) e_{orbits[a, i]} / sqrt(g), so
    block chi is sum_c chi(c) S_c with S_c = mean_a Q[orbits[a], orbits[a ^ c]]
    (element a moves row c of the table to row a ^ c); the characters of
    the group are the rows of the Sylvester-Hadamard matrix.

    The gather is also the invariance check: Q commutes with element a
    exactly when its blocks Q[orbits[a], orbits[a ^ c]] equal those of
    row 0, so for a >= 1 each is compared with S_c / a, the mean of the
    earlier rows' blocks, before it is added.  A defect above
    SYMMETRY_TOL * max|Q|, or a NaN, raises RuntimeError naming element a.
    """
    orbits, config = op.orbits, op.config
    g, k = orbits.shape
    Q = op.Q
    bound = SYMMETRY_TOL * max(Q.max(), -Q.min()) if op.dim else 0.0
    S = np.zeros((g, k, k))
    for a in range(g):
        rows = Q[orbits[a]]
        defect = 0.0
        for c in range(g):
            block = np.take(rows, orbits[a ^ c], axis=1)
            if a:
                defect = np.max(np.abs(block - S[c] / a), initial=defect)
            S[c] += block
        if a and not defect <= bound:  # NaN fails too
            name = " times the ".join(
                n for i, n in enumerate(partition.SYMMETRY_NAMES) if a >> i & 1
            )
            raise RuntimeError(
                f"iteration map for N={config.N} r={config.ratio} is not invariant "
                f"under group element {a}, the {name}: max|block - mean of "
                f"earlier rows' blocks| = {defect:.3e} > {bound:.3e}"
            )
    S /= g
    return np.tensordot(hadamard(g), S, axes=1)


def eigenvalues(op: IterationOperator) -> SpectrumReport:
    """Full nonsymmetric eigenvalue set, sorted by (re, im).

    Solved one symmetry block at a time; `symmetry_blocks` refuses a Q
    that is not invariant under the group.
    """
    B = symmetry_blocks(op)
    config = op.config
    try:
        eigs = np.linalg.eigvals(B).ravel()
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigensolver failed for N={config.N} r={config.ratio} "
            f"gamma={config.gamma_rule} theta={config.theta}"
        ) from err
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    nonreal = eigs[np.abs(eigs.imag) > UNIT_TOL]
    return SpectrumReport(
        eigenvalues=eigs,
        config=config,
        max_nonreal_modulus=float(np.abs(nonreal).max()) if nonreal.size else 0.0,
        unit_count=int(np.count_nonzero(np.abs(eigs - 1.0) < UNIT_TOL)),
        blocks=(B.shape[1],) * B.shape[0],
    )


def spectrum_filename(report: SpectrumReport) -> str:
    config = report.config
    rule = config.gamma_rule
    rule_txt = rule if isinstance(rule, str) else f"{float(rule):g}"
    return (
        f"spectrum_N{config.N}_r{config.ratio}"
        f"_gamma{rule_txt}_theta{config.theta:g}.csv"
    )


def export_spectrum(report: SpectrumReport, path) -> None:
    """Write the eigenvalues as a two-column CSV (re, im)."""
    config = report.config
    lines = [
        f"# spectrum N={config.N} r={config.ratio} "
        f"gamma={config.gamma_rule} theta={config.theta:g} dim={report.dim}",
        "re,im",
    ]
    for lam in report.eigenvalues:
        lines.append(f"{lam.real:.16e},{lam.imag:.16e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
