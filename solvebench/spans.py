"""Layer spans for the traced benchmark run.

While a `Tracer.installed()` block is open, each layer entry point listed
in `POINTS` is replaced, at its module or class attribute, by a wrapper
that records a span.  The package's own call paths (for instance
`build_problem` calling `partition`) are therefore timed without changing
the package.  Names that a module imported with `from x import f` are
replaced too, so a call through the importing module is seen as well.
Spans stay in memory and are written out once the run ends.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one solve add up to the time spent inside the
outermost spans.  Durations are CPU seconds of the process (`clock`),
the same clock the benchmark times whole solves with.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# (module, attribute, span key).  The key's prefix names the layer; a key
# used twice pools the self time of both entry points.
POINTS = (
    ("mesh", "build_unit_square_mesh", "mesh.build"),
    ("partition", "partition", "partition.partition"),
    ("partition", "build_constraint", "partition.constraint"),
    ("partition", "SubdomainPartition.slots_of", "partition.slots_of"),
    ("fem", "element_matrices", "fem.element_matrices"),
    ("fem", "element_loads", "fem.element_loads"),
    ("fem", "error_norms", "fem.error_norms"),
    ("local_solver", "build_local_systems", "local_solver.factor"),
    ("local_solver", "local_loads", "local_solver.loads"),
    ("local_solver", "ConstrainedRobinSolver.__init__", "local_solver.schur"),
    ("local_solver", "ConstrainedRobinSolver.solve", "local_solver.solve"),
    ("local_solver", "ConstrainedRobinSolver.apply_resolvent", "local_solver.resolvent"),
    ("iteration", "run_richardson", "iteration.self"),
    ("iteration", "build_problem", "iteration.self"),
    ("boundary_system", "InterfaceOperator.load", "boundary_system.load"),
    ("boundary_system", "InterfaceOperator.apply", "boundary_system.apply"),
    ("boundary_system", "solve_minres", "boundary_system.self"),
    ("spectrum", "assemble_Q", "spectrum.assemble"),
    ("spectrum", "eigenvalues", "spectrum.eig"),
)

# Keys whose call count is reported, and for some of those the position
# of the argument holding the trace block, whose column count is reported.
CALL_COUNTED = {
    "partition.slots_of", "fem.element_matrices", "local_solver.solve",
    "local_solver.resolvent", "boundary_system.apply",
}
COLUMN_ARG = {"local_solver.solve": 2, "local_solver.resolvent": 1}

# Process peak RSS when the first span of the key returns: the high-water
# mark once that step of setup is done.
RSS_MARKS = {
    "partition.partition": "partition.rss_high_mb",
    "local_solver.schur": "local_solver.rss_high_mb",
}

# CPU time of the whole process.  The benchmark runs BLAS on one thread,
# so this is the solve's own time, without the waits that other tenants
# of a shared machine add to wall time.
clock = time.process_time


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    """One call of an entry point; `start` and `end` are `clock` readings."""

    solve: int
    id: int
    parent: int | None
    key: str
    start: float
    end: float
    self_s: float
    cols: int


class Tracer:
    """Records spans of the layer entry points, one solve at a time."""

    def __init__(self):
        # Every loaded module of the package, so that names imported with
        # `from x import f` are found wherever they live.
        self.modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name.startswith("rr_hdiv.")
        }
        self.spans: list[Span] = []
        self.solve = -1
        self.rss_marks: dict[int, dict[str, float]] = {}
        self._stack: list[list] = []  # [id, key, start, child seconds]
        self._next_id = 0

    def _wrap(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [tracer._next_id, key, clock(), 0.0]
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                cols = 0
                if key in COLUMN_ARG:
                    block = args[COLUMN_ARG[key]]
                    cols = 1 if np.ndim(block) == 1 else np.shape(block)[1]
                tracer.spans.append(Span(
                    solve=tracer.solve, id=frame[0],
                    parent=None if parent is None else parent[0], key=key,
                    start=frame[2], end=end, self_s=duration - frame[3],
                    cols=cols,
                ))
                if key in RSS_MARKS:
                    marks = tracer.rss_marks.setdefault(tracer.solve, {})
                    marks.setdefault(RSS_MARKS[key], peak_rss_mb())

        return span

    def _targets(self):
        """(owner, name, original, key) for every attribute to replace."""
        for module_name, attr, key in POINTS:
            module = self.modules[module_name]
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
                yield owner, name, owner.__dict__[name], key
                continue
            original = getattr(module, attr)
            for other in self.modules.values():
                for name, value in list(vars(other).items()):
                    if value is original:
                        yield other, name, original, key

    @contextmanager
    def installed(self):
        """Trace one solve: wrap the entry points, restore them on exit."""
        self.solve += 1
        replaced = []
        try:
            wrappers = {}
            for owner, name, original, key in list(self._targets()):
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(key, original)
                setattr(owner, name, wrappers[id(original)])
                replaced.append((owner, name, original))
            yield
        finally:
            for owner, name, original in reversed(replaced):
                setattr(owner, name, original)
            self._stack.clear()

    def summary(self, solve: int) -> dict:
        """Self seconds, calls and columns per key."""
        out = {}
        for span in self.spans:
            if span.solve != solve:
                continue
            entry = out.setdefault(span.key, {"self_s": 0.0, "calls": 0, "cols": 0})
            entry["self_s"] += span.self_s
            entry["calls"] += 1
            entry["cols"] += span.cols
        return out

    def write(self, path) -> None:
        """All spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
