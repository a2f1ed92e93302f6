"""Eigenvalue study of the Richardson iteration map, one symmetry block
at a time.

The Robin exchange is one affine map g -> E g + c on the two-sided trace
vector, E g = T(2 gamma R M g - g) with M = h I the interface mass (see
`iteration`).  Richardson relaxes it, MINRES solves G g = f_g with
G = h T (I - E) and f_g = h T c, and here the homogeneous relaxed step
Q = theta E + (1 - theta) I is applied matrix-free, through
`RobinProblem.step`.  Q thus shares every code path with the actual
iteration, and no n x n array of it is ever formed.  The exchange
symmetry gives Q a known exact unit eigenvalue (the per-interface
constant-jump directions), harmless to the iteration; the contraction
quality lives in the rest of the spectrum.

The mesh and the partition keep the half-turn about (1/2, 1/2) and the
reflection x <-> y, which permute the trace slots (see
`partition.symmetry_generators`).  Q commutes with both, so the Klein
four-group they generate splits it into four blocks of a quarter of its
dimension, one per character chi of the group: B_chi = V_chi^T Q V_chi
with V_chi the orthonormal chi-symmetric combinations of the slots of
each orbit.  The eigenvalues of Q are those of the four blocks.
`eigenvalues` applies Q to the columns of V_chi, COLUMN_BLOCK at a time,
and gathers the rows of each product by orbit into B_chi; the same
gather checks that Q is invariant under every group element to
SYMMETRY_TOL, and refuses it otherwise.  Each block is solved and
dropped before the next is built, so the spectrum holds one n/4 x n/4
block and a few n x COLUMN_BLOCK temporaries, and the dense eigensolve,
cubic in the dimension, costs about a sixteenth of the one on Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard
from scipy.sparse.linalg import LinearOperator

from . import iteration, partition

__all__ = [
    "IterationOperator",
    "SpectrumReport",
    "assemble_Q",
    "eigenvalues",
    "export_spectrum",
    "spectrum_filename",
    "SIZE_CAP",
    "SizeCapError",
    "SYMMETRY_TOL",
    "UNIT_TOL",
    "unit_tol",
]

# Columns of Q V_chi formed at once in `eigenvalues`, which keeps its
# temporaries to a few n_slots x COLUMN_BLOCK arrays.
COLUMN_BLOCK = 256

# Largest trace dimension 4 N (N-1) r accepted for a spectrum.  At N=12,
# r=8 (dim 4224, the largest size under it) the spectrum from the
# zero-load problem takes about 3 s CPU time on one BLAS thread of a
# 2-core x86_64 and peaks at 52 MiB traced: one 1056 x 1056 block with
# its eigensolve, and a few n x COLUMN_BLOCK blocks (a dense Q would be
# 136 MB).  The cap stays until a memory estimate from (N, r) replaces it.
SIZE_CAP = 4500


class SizeCapError(ValueError):
    """A trace dimension beyond SIZE_CAP, refused before any work."""


# Distance from 1, and imaginary part, below which an eigenvalue of the
# unrelaxed map E counts as unit, and as real.  Q = theta E + (1 - theta) I
# moves every eigenvalue to 1 - theta (1 - lambda_E), so on Q both tests
# read theta UNIT_TOL (`unit_tol`).
UNIT_TOL = 1e-6

# Largest invariance defect accepted in `eigenvalues`, relative to
# max|Q W| over one character's columns; round-off gives 4.0e-12 at
# N=8, r=8 and 1.5e-11 at N=12, r=8 (theta=1).
SYMMETRY_TOL = 1e-10


@dataclass(eq=False)
class IterationOperator:
    """Iteration map of `config` with its symmetry orbits.

    Q is anything that `@` applies to a trace vector and to an (n, k)
    column block: the matrix-free LinearOperator of `assemble_Q`, or a
    dense array.  orbits is `partition.orbit_table` of the half-turn and
    the reflection: orbits[k, i] is the image of slot orbits[0, i] under
    group element k.  The default, one row, is the trivial group, whose
    one block is Q.
    """

    Q: object
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

    def contraction_modulus(self) -> float:
        """Largest modulus over eigenvalues away from the exact unit one."""
        away = self.eigenvalues[np.abs(self.eigenvalues - 1.0) > unit_tol(self.config)]
        return float(np.abs(away).max()) if away.size else 0.0

    def max_real_below_unit(self) -> float:
        """Largest real part among real eigenvalues away from 1."""
        eigs, tol = self.eigenvalues, unit_tol(self.config)
        real = eigs[(np.abs(eigs.imag) <= tol) & (np.abs(eigs - 1.0) > tol)]
        return float(real.real.max()) if real.size else float("-inf")


def unit_tol(config: iteration.IterationConfig) -> float:
    """UNIT_TOL on the eigenvalues of E, as it reads on those of Q."""
    return config.theta * UNIT_TOL


def assemble_Q(config: iteration.IterationConfig, problem=None) -> IterationOperator:
    """The iteration map Q = theta E + (1 - theta) I of one configuration,
    matrix-free.

    Q is a LinearOperator applying theta `RobinProblem.step` +
    (1 - theta) I of the zero-load problem, built here unless given, to a
    trace vector or to columns; the operator carries the orbits of the
    partition's symmetry group, which `eigenvalues` splits Q by.  Refuses
    dimensions beyond SIZE_CAP with SizeCapError before any work, and the
    unconstrained config.

    The function assembles nothing; it keeps its name because the
    benchmark in `solvebench` calls it and wraps it by name, and the name
    changes with that benchmark (ROADMAP items 2(c) and 8).
    """
    n = 4 * config.N * (config.N - 1) * config.ratio
    if n > SIZE_CAP:
        raise SizeCapError(
            f"trace dimension {n} exceeds the spectrum cap {SIZE_CAP}"
        )
    if problem is None:
        if not config.constrained:
            raise ValueError("the iteration operator is the constrained map")
        problem = iteration.build_problem(config, lambda x, y: (0.0 * x, 0.0 * y))
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
        orbits=partition.orbit_table(
            partition.symmetry_generators(problem.partition)
        ),
    )


def _products(op: IterationOperator):
    """(chi, cols, Q W[:, cols]) for each character chi = (chi(a))_a and
    each block of COLUMN_BLOCK columns of W = sqrt(g) V_chi, in order.

    Column i of W holds chi(a) at slot orbits[a, i].  Each product is
    handed out only once the next one is formed, so that one product is
    held while Q is applied: the step's temporaries then reuse the memory
    that the previous step freed, instead of that memory going back to
    the system and being faulted in again.  At N=8, r=8 that cuts the
    spectrum's minor page faults from 18.8k to 7.4k and its CPU time by
    about 6%, for one more n x COLUMN_BLOCK block held.
    """
    orbits = op.orbits
    g, k = orbits.shape
    # Columns of W are written into the first columns of one zero buffer,
    # then cleared.
    W = np.zeros((op.dim, min(COLUMN_BLOCK, k)))
    held = None
    for chi in hadamard(g).astype(float):
        for j in range(0, k, COLUMN_BLOCK):
            cols = np.arange(j, min(j + COLUMN_BLOCK, k))
            slots = orbits[:, cols]
            W[slots, cols - j] = chi[:, None]
            product = op.Q @ W[:, :cols.size]
            W[slots, cols - j] = 0.0
            if held is not None:
                yield held
            held = chi, cols, product
    if held is not None:
        yield held


def _blocks(op: IterationOperator):
    """The blocks B_chi = V_chi^T Q V_chi, one per character, in order.

    Each is built from the products Q W of `_products`, W = sqrt(g) V_chi,
    whose rows are gathered by orbit, rows[a] = (Q W)[orbits[a]], so that
    B_chi = sum_a chi(a) rows[a] / g.

    The same rows check that Q is invariant under the group.  Q commutes
    with element a exactly when rows[a] = chi(a) rows[0] for every
    character, that is when Q[orbits[a], orbits[a ^ c]] =
    Q[orbits[0], orbits[c]] for every c; over all a this is Q W = W B_chi.
    A defect above SYMMETRY_TOL * max|Q W| over a character's columns, or
    a NaN, raises RuntimeError naming element a.
    """
    orbits, config = op.orbits, op.config
    g, k = orbits.shape
    for chi, cols, product in _products(op):
        if cols[0] == 0:
            B = np.empty((k, k))
            # Running max|Q W| and max|rows[a] - chi(a) rows[0]|, from
            # maxima and minima without an abs temporary; np.max keeps a
            # NaN.
            scale = 0.0
            defect = np.zeros(g)
        rows = product[orbits]
        del product  # `_products` holds it until the next is formed
        B[:, cols] = np.tensordot(chi, rows, axes=1) / g
        scale = np.max([scale, rows.max(), -rows.min()])
        for a in range(1, g):
            d = rows[a] - rows[0] if chi[a] > 0 else rows[a] + rows[0]
            defect[a] = np.max([defect[a], d.max(), -d.min()])
        del rows
        if cols[-1] < k - 1:
            continue
        bound = SYMMETRY_TOL * scale
        for a in range(1, g):
            if not defect[a] <= bound:  # NaN fails too
                name = " times the ".join(
                    n for i, n in enumerate(partition.SYMMETRY_NAMES) if a >> i & 1
                )
                raise RuntimeError(
                    f"iteration map for N={config.N} r={config.ratio} is not "
                    f"invariant under group element {a}, the {name}: "
                    f"max|(Q W)[orbits[{a}]] - chi({a}) (Q W)[orbits[0]]| = "
                    f"{defect[a]:.3e} > {bound:.3e}"
                )
        yield B
        del B  # before the next block is built


def eigenvalues(op: IterationOperator) -> SpectrumReport:
    """Full nonsymmetric eigenvalue set, sorted by (re, im).

    Solved one symmetry block at a time (`_blocks`), each block dropped
    before the next is built; a Q that is not invariant under the group
    is refused.
    """
    config = op.config
    g, k = op.orbits.shape
    parts = [np.zeros(0)]
    for B in _blocks(op):
        try:
            parts.append(np.linalg.eigvals(B))
        except np.linalg.LinAlgError as err:
            raise RuntimeError(
                f"eigensolver failed for N={config.N} r={config.ratio} "
                f"gamma={config.gamma_rule} theta={config.theta}"
            ) from err
        del B
    eigs = np.concatenate(parts)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    tol = unit_tol(config)
    nonreal = eigs[np.abs(eigs.imag) > tol]
    return SpectrumReport(
        eigenvalues=eigs,
        config=config,
        max_nonreal_modulus=float(np.abs(nonreal).max()) if nonreal.size else 0.0,
        unit_count=int(np.count_nonzero(np.abs(eigs - 1.0) < tol)),
        blocks=(k,) * g,
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
