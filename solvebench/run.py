"""Solve benchmark for rr-hdiv: time to solution, setup time and memory.

    python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 solvebench/run.py                  # every workload, both modes

One process runs one workload as a closed loop: one solve at a time,
with BLAS on one thread.  Solves are timed in CPU seconds of the process:
on a shared machine the wall time of the same solve varies by 10-20%
from run to run while its CPU time varies by a few percent, and with one
BLAS thread the CPU time is what the solve takes on an idle core.  The
median wall time is reported as well, as `solve_wall_s`.

An untimed warm-up solve at N=4, r=8 comes first, so that lazy imports
and first-call costs do not land in the timed solves; its time is
`cold_start_s`.  Then the workload is solved repeatedly until `--seconds`
have passed, at least MIN_SOLVES times.  Every result is checked after
the last timed solve against the pinned invariants and the direct oracle.

With `--trace 0` the last line of output reports the end-to-end metrics:
median `solve_s`, median `setup_s` (time inside `iteration.build_problem`)
and the process's `peak_rss_mb` through its first timed solve.  With
`--trace 1` the solves alternate traced and untraced, starting traced,
and the last line reports the per-layer metrics (medians over the traced
solves after the first, which gives the RSS marks) and the tracing
overhead, the median traced `solve_s` minus the median untraced one.  Spans go to `.solvebench/` at the repository root.
Metric names and units are read from BENCHMARK.json.

Without `--workload`, every workload runs in its own process, untraced
and traced, and a table of all metrics is printed.  The exit status is
nonzero when any solve fails a check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".solvebench"
LAYERS = ("mesh", "partition", "fem", "local_solver", "iteration",
          "boundary_system", "spectrum")
BLAS_THREADS = 1
MIN_SOLVES = 3  # per run, even when one solve outlasts --seconds


def cap_blas_threads() -> None:
    """Run BLAS on BLAS_THREADS threads; must happen before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


class SetupClock:
    """Single timer on `iteration.build_problem`.

    Sums the time of every call since the last reset and keeps the
    problem built last, which the checks reuse.
    """

    def __init__(self, iteration, clock):
        original = iteration.build_problem

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                self.problem = original(*args, **kwargs)
                return self.problem
            finally:
                self.seconds += clock() - t0

        iteration.build_problem = timed
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0
        self.problem = None


def layer_metrics(w, tracer, solve) -> dict:
    """Per-layer figures of one traced solve."""
    import spans

    summary = tracer.summary(solve["trace_id"])
    out = {}
    covered = 0.0
    for key in dict.fromkeys(key for _, _, key in spans.POINTS):
        entry = summary.get(key, {"self_s": 0.0, "calls": 0, "cols": 0})
        out[f"{key}_s"] = entry["self_s"]
        covered += entry["self_s"]
        if key in spans.CALL_COUNTED:
            out[f"{key}_calls"] = entry["calls"]
        if key in spans.COLUMN_ARG:
            out[f"{key}_cols"] = entry["cols"]
    out["trace.solve_s"] = solve["solve_s"]
    out["trace.unaccounted_s"] = solve["solve_s"] - covered
    s = solve["summary"]
    out["partition.n_slots"] = s["n_slots"]
    out["spectrum.dim"] = s.get("dim", 0)
    out["iteration.iterations"] = 0
    out["iteration.step_ms"] = 0.0
    out["boundary_system.iterations"] = 0
    if w.method == "richardson":
        out["iteration.iterations"] = s["iterations"]
        out["iteration.step_ms"] = 1e3 * s["loop_s"] / s["iterations"]
    elif w.method == "minres":
        out["boundary_system.iterations"] = s["iterations"]
    return out


def run_workload(name: str, seconds: float, trace: bool, seed: int, spec: dict) -> int:
    if not (SRC / "rr_hdiv" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'rr_hdiv'} not found", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import rr_hdiv
    from rr_hdiv import _kernels, iteration, verify

    if Path(rr_hdiv.__file__).resolve().parent != SRC / "rr_hdiv":
        print(f"error: rr_hdiv imported from {rr_hdiv.__file__}", file=sys.stderr)
        return 2

    import spans
    import workloads as W

    if name not in W.WORKLOADS:
        print(f"error: unknown workload {name!r}", file=sys.stderr)
        return 2
    w = W.WORKLOADS[name]
    case = verify.manufactured_case()
    setup = SetupClock(iteration, spans.clock)

    t0 = spans.clock()
    W.solve(w, case, W.config(w, *W.WARMUP))
    cold_start_s = spans.clock() - t0

    # Solve 0 of a traced run is traced and gives the RSS marks; the
    # times come from the later traced solves, compared with the untraced
    # solves between them, so that neither side pays the first solve's
    # cost of growing the heap.
    tracer = spans.Tracer() if trace else None
    solves = []
    last = None
    start = time.perf_counter()
    while len(solves) < MIN_SOLVES or time.perf_counter() - start < seconds:
        traced = trace and len(solves) % 2 == 0
        last = None
        setup.reset()
        gc.collect()
        with tracer.installed() if traced else nullcontext():
            t0, wall0 = spans.clock(), time.perf_counter()
            last = W.solve(w, case, W.config(w))
            solve_s, wall_s = spans.clock() - t0, time.perf_counter() - wall0
        solves.append({
            "solve_s": solve_s, "wall_s": wall_s, "setup_s": setup.seconds,
            "traced": traced, "trace_id": tracer.solve if traced else None,
            "summary": W.summarize(w, last, setup.problem),
        })
        if len(solves) == 1:
            peak_rss_mb = spans.peak_rss_mb()

    failures, checks = W.check(w, case, [s["summary"] for s in solves],
                               setup.problem, last)
    for k, bad in enumerate(failures):
        for msg in bad:
            print(f"{name} solve {k}: {msg}", file=sys.stderr)
    failed = sum(1 for bad in failures if bad)

    untraced = [s for s in solves if not s["traced"]]
    values = {
        "solve_s": statistics.median(s["solve_s"] for s in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    wanted = spec["end_to_end"]
    if trace:
        per_solve = [layer_metrics(w, tracer, s) for s in solves[1:] if s["traced"]]
        values = {k: statistics.median(m[k] for m in per_solve) for k in per_solve[0]}
        marks = tracer.rss_marks.get(0, {})
        values.update({mark: marks.get(mark, 0.0) for mark in spans.RSS_MARKS.values()})
        values.update({
            "cold_start_s": cold_start_s,
            "solve_wall_s": statistics.median(s["wall_s"] for s in untraced),
            "trace.overhead_s": values["trace.solve_s"]
            - statistics.median(s["solve_s"] for s in untraced),
            **checks,
        })
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")

    print(json.dumps({
        "workload": name, "seed": seed, "trace": int(trace),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "kernels": _kernels.BACKEND,
            "arch": os.uname().machine,
        },
        "solve_s": [s["solve_s"] for s in solves],
        "wall_s": [s["wall_s"] for s in solves],
        "traced": [s["traced"] for s in solves],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if failed == 0 else 1


def run_all(seconds: float, seed: int, spec: dict) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    report = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
            if lines:
                report.setdefault(name, {})[trace] = json.loads(lines[-1])
                if trace == 0 and len(lines) > 1:
                    print(lines[-2])
    for name, runs in report.items():
        print(f"\n== {name}")
        for trace, result in sorted(runs.items()):
            print(f"  trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"    {metric:34s} {m['value']:>16.6g} {m['unit']}")
        if len(runs) == 2:
            layers = runs[1]["metrics"]
            self_s = sum(
                m["value"] for k, m in layers.items()
                if k.endswith("_s") and k.split(".")[0] in LAYERS
            )
            print(f"  layer self times {self_s:.4f} s + unaccounted "
                  f"{layers['trace.unaccounted_s']['value']:.4f} s = traced "
                  f"{layers['trace.solve_s']['value']:.4f} s; overhead "
                  f"{layers['trace.overhead_s']['value']:+.4f} s; untraced "
                  f"solve_s {runs[0]['metrics']['solve_s']['value']:.4f} s")
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seconds, args.seed, spec)
    return run_workload(args.workload, args.seconds, bool(args.trace), args.seed, spec)


if __name__ == "__main__":
    sys.exit(main())
