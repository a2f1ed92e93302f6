"""The benchmark's workloads: what each one solves and how it is checked.

Every workload solves the manufactured quadratic case of
`verify.manufactured_case()` with gamma = h and tol = 1e-6, through the
entry points the `rr-hdiv` command line uses.  The inputs are fixed: the
pinned invariants below depend on this exact load, so the benchmark seed
selects nothing.

The pins were measured at the commit that added the benchmark.  Counts
and dimensions must match exactly; error norms to a relative 1e-6 (they
sit three orders of magnitude above the solver tolerance, so a change of
rounding order leaves them in place); the contraction modulus to 1e-6.
The oracle ceiling for a solved field, 3e-4 relative, is a tenth of the
relative L2 discretization error at m=256 (about 3.6e-3), so a solve that
passes is closer to the direct solution than to the exact one.  The
fixed-point defects and the spectrum's map check are round-off, so their
ceilings are 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rr_hdiv import boundary_system, iteration, spectrum, verify
from spans import clock

TOL = 1e-6
WARMUP = (4, 8)  # (N, ratio) of the untimed first solve in each process
ERROR_RTOL = 1e-6
MODULUS_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration with its pinned invariants."""

    name: str
    method: str  # "richardson", "minres" or "spectrum"
    N: int
    ratio: int
    theta: float
    pins: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # Setup dominates: per-subdomain scans over the whole mesh and Python
    # dispatch over 1024 small solves per step.
    Workload("richardson-n32-r8", "richardson", 32, 8, 0.5, pins=dict(
        iterations=32, n_slots=31744,
        l2_error=0.0009210537358337191, hdiv_error=0.006764502885006723,
        oracle_rel_err_max=3e-4, fixed_point_defect_max=1e-8,
    )),
    # Few large subdomains on the sparse-LU path: numeric back-substitution
    # over 118 steps, little setup.
    Workload("richardson-n4-r32", "richardson", 4, 32, 0.5, pins=dict(
        iterations=118, n_slots=1536,
        l2_error=0.0018415435754886955, hdiv_error=0.0067272914030066105,
        oracle_rel_err_max=3e-4, fixed_point_defect_max=1e-8,
    )),
    # The same local solver entered through apply_resolvent, one vector
    # per MINRES step.
    Workload("minres-n16-r8", "minres", 16, 8, 0.5, pins=dict(
        iterations=29, n_slots=7680,
        l2_error=0.0018414354091632465, hdiv_error=0.006640091702250581,
        oracle_rel_err_max=3e-4, fixed_point_defect_max=1e-8,
    )),
    # The resolvent on a 1792-column block, then a dense eigensolve.
    Workload("spectrum-n8-r8", "spectrum", 8, 8, 1.0, pins=dict(
        dim=1792, unit_count=112, contraction_modulus=0.9989860473607155,
        n_slots=1792, oracle_rel_err_max=1e-8, fixed_point_defect_max=1e-8,
    )),
)}


def config(w: Workload, N: int | None = None, ratio: int | None = None):
    return iteration.IterationConfig(
        N=w.N if N is None else N,
        ratio=w.ratio if ratio is None else ratio,
        theta=w.theta,
        tol=TOL,
    )


def solve(w: Workload, case, cfg):
    """The user-facing solve, from config to the checked quantities.

    Richardson and MINRES end at the recovered field with its error
    norms; the spectrum ends at the sorted eigenvalue set.
    """
    if w.method == "richardson":
        return iteration.run_richardson(cfg, case)
    if w.method == "minres":
        problem = iteration.build_problem(cfg, case.load)
        op = boundary_system.InterfaceOperator(problem)
        return boundary_system.solve_minres(op, op.load(), tol=TOL, case=case)
    op = spectrum.assemble_Q(cfg)
    return op, spectrum.eigenvalues(op)


def summarize(w: Workload, result, problem) -> dict:
    """The small part of a result that the checks read."""
    out = {"n_slots": problem.partition.trace.n_slots}
    if w.method == "spectrum":
        _, rep = result
        out.update(dim=rep.dim, unit_count=rep.unit_count,
                   contraction_modulus=rep.contraction_modulus())
        return out
    out.update(iterations=result.iterations, converged=bool(result.converged),
               l2_error=result.l2_error, hdiv_error=result.hdiv_error,
               u_h=result.u_h)
    if w.method == "richardson":
        out["loop_s"] = result.wall_time  # the report's own loop wall time
    return out


def pin_failures(w: Workload, summary: dict) -> list[str]:
    """Mismatches between one solve and the workload's pinned invariants."""
    pins = w.pins
    bad = []
    for key in ("iterations", "n_slots", "dim", "unit_count"):
        if key in pins and summary[key] != pins[key]:
            bad.append(f"{key} {summary[key]} != pinned {pins[key]}")
    if "converged" in summary and not summary["converged"]:
        bad.append("did not converge")
    for key in ("l2_error", "hdiv_error"):
        if key in pins and not np.isclose(summary[key], pins[key],
                                          rtol=ERROR_RTOL, atol=0.0):
            bad.append(f"{key} {summary[key]!r} != pinned {pins[key]!r}")
    if "contraction_modulus" in pins and abs(
        summary["contraction_modulus"] - pins["contraction_modulus"]
    ) > MODULUS_ATOL:
        bad.append(f"contraction modulus {summary['contraction_modulus']!r} "
                   f"!= pinned {pins['contraction_modulus']!r}")
    return bad


def relative_error(u_h: np.ndarray, u_star: np.ndarray) -> float:
    """Euclidean distance of the dof vectors, relative to the oracle."""
    return float(np.linalg.norm(u_h - u_star) / np.linalg.norm(u_star))


def spectrum_defect(w: Workload, case, op, u_star) -> tuple[float, float]:
    """Fixed-point checks of the assembled iteration map.

    With the manufactured load, one Richardson step is g -> Q g + c with
    c = 2 theta gamma T u_f, u_f the trace of the zero-datum solve.  The
    oracle's datum g* must be its fixed point.  Returns the sup-norm
    defect of `fixed_point_check` on the loaded problem and the relative
    defect |Q g* + c - g*| / |g*| of the assembled Q.
    """
    loaded = iteration.build_problem(config(w), case.load)
    g_star = verify.fixed_point_g(loaded, u_star)
    _, u_f = loaded.solve_once(np.zeros_like(g_star))
    perm = loaded.partition.trace.pair_perm
    c = 2.0 * w.theta * loaded.gamma * u_f[perm]
    resid = op.Q @ g_star + c - g_star
    rel = float(np.abs(resid).max() / np.abs(g_star).max())
    return iteration.fixed_point_check(loaded, u_star), rel


def check(w: Workload, case, summaries: list, problem, last):
    """Check every timed solve against the pins and the direct oracle.

    Runs outside every timed region, after the last timed solve: the
    oracle is solved once, on the mesh of `problem` (the problem the last
    solve built), and `last` is that solve's result.  Returns one list of
    failure messages per solve and the `verify.*` figures; for the
    spectrum, `verify.oracle_rel_err` is the relative defect of the
    assembled map at the oracle's datum (see `spectrum_defect`).
    """
    t0 = clock()
    u_star = verify.solve_global(problem.mesh, case.beta, case.load)
    oracle_s = clock() - t0
    failures = [pin_failures(w, s) for s in summaries]
    ceiling = w.pins["oracle_rel_err_max"]
    if w.method == "spectrum":
        defect, map_err = spectrum_defect(w, case, last[0], u_star)
        rel_errs = [map_err]
        if map_err > ceiling:
            failures[-1].append(f"iteration map misses the oracle datum by {map_err:.3e}")
    else:
        defect = iteration.fixed_point_check(problem, u_star)
        rel_errs = [relative_error(s["u_h"], u_star) for s in summaries]
        for bad, err in zip(failures, rel_errs):
            if err > ceiling:
                bad.append(f"oracle relative error {err:.3e}")
    if defect > w.pins["fixed_point_defect_max"]:
        failures[-1].append(f"fixed-point defect {defect:.3e}")
    return failures, {
        "verify.oracle_s": oracle_s,
        "verify.oracle_rel_err": max(rel_errs),
        "verify.fixed_point_defect": defect,
    }
