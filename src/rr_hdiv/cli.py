"""Experiment driver: iteration-count tables, contraction moduli, one-off solves.

Four canned experiments cover the study grids (two Richardson tables, the
MINRES table, the spectrum sweep). Each is one `TableSpec` in `EXPERIMENTS`:
rows x columns of IterationConfig cells, with the columns as dicts of
IterationConfig fields; `run_table` runs any of them. `solve` runs a
single configuration and can emit its per-iteration history.
Every CSV embeds the configuration of its run in a leading comment line,
and every JSON record holds it as `config`: for `solve`, the method and
the IterationConfig fields it reads (MINRES reads no theta); for an
experiment, the row grid under the axis name ("N" or "ratio"), the fixed
fields, `columns` (cell key -> its column's fields) and the run flags it
reads (the tables `--tol` and `--max-iter`, the spectrum `--gamma`).
The parser only reads numbers; IterationConfig holds every default and
range. A value out of range, or a flag the run does not read, is refused
(exit status 2) before any work. Otherwise the exit status is 0 only if
every run converged.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields

from . import __version__, boundary_system, iteration, spectrum, verify
from .mesh import build_unit_square_mesh, dump_mesh_csv

__all__ = [
    "ExperimentConfig",
    "EmptyGridError",
    "TableSpec",
    "EXPERIMENTS",
    "run_table",
    "run_spectrum",
    "write_table",
    "main",
]

TABLE1_HEADER = (
    "N",
    "gamma=h,theta=1/2",
    "gamma=h,theta=2/3",
    "gamma=H,theta=1/2",
    "gamma=H,theta=2/3",
    "L2-err",
    "Hdiv-err",
)
TABLE2_HEADER = (
    "H/h",
    "gamma=h,theta=1/2",
    "gamma=h,theta=2/3",
    "gamma=H,theta=1/2",
    "gamma=H,theta=2/3",
)
TABLE3_HEADER = (
    "N",
    "gamma=h,H/h=8",
    "gamma=h,H/h=16",
    "gamma=H,H/h=8",
    "gamma=H,H/h=16",
)
SPECTRUM_HEADER = (
    "N", "r", "gamma", "theta", "dim", "unit_count", "contraction_modulus",
)

TABLE1_N_DESK = (4, 8, 16)
TABLE1_N_FULL = (4, 8, 16, 24, 32, 40, 48, 64)
TABLE2_RATIOS = (4, 8, 16, 32)
TABLE3_N_DESK = (4, 8, 16)
TABLE3_N_FULL = (4, 8, 16, 24, 32, 40, 48)
SPECTRUM_N = (4, 8, 12)

RICHARDSON_COLUMNS = tuple({"gamma_rule": g, "theta": t} for g in "hH" for t in (0.5, 2 / 3))
MINRES_COLUMNS = tuple({"gamma_rule": g, "ratio": r} for g in "hH" for r in (8, 16))

# IterationConfig field -> its command-line flag.
FLAGS = {"N": "--n", "ratio": "--ratio", "beta": "--beta", "gamma_rule": "--gamma",
         "theta": "--theta", "tol": "--tol", "max_iter": "--max-iter"}
_DEFAULTS = {f.name: f.default for f in fields(iteration.IterationConfig)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Row grid, run flags and output settings of one canned experiment.

    A flag left at None takes IterationConfig's default; a flag that the
    experiment does not read (`TableSpec.reads`) is refused.
    """

    experiment: str
    rows: tuple = ()
    tol: float = None
    max_iter: int = None
    gamma_rule: object = None
    out_dir: str = "."
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.fmt not in {"csv", "json"}:
            raise ValueError(f"unknown format {self.fmt!r}")
        _refuse_unread(self.experiment, _given(self), self.spec.reads)

    @property
    def spec(self) -> TableSpec:
        return EXPERIMENTS[self.experiment]

    @property
    def flags(self) -> dict:
        """The flags the experiment reads, as given or by default."""
        return {name: _DEFAULTS[name] if getattr(self, name) is None
                else getattr(self, name) for name in self.spec.reads}

    def cells(self) -> list:
        """(row value, {cell key: IterationConfig}) for each row of the grid."""
        spec = self.spec
        if not self.rows:
            raise EmptyGridError(
                f"{self.experiment}: its grid {spec.axis}={self.rows} is empty")
        return [(value, {spec.key.format(**col): iteration.IterationConfig(
                    **{spec.axis: value}, **spec.fixed, **col, **self.flags)
                 for col in spec.columns})
                for value in self.rows]

    def as_dict(self) -> dict:
        """The record's config: every cell is its row value under the axis
        name, the fixed fields, its entry of `columns` and the flags."""
        spec = self.spec
        return {
            "experiment": self.experiment, spec.axis: list(self.rows),
            **spec.fixed,
            "columns": {spec.key.format(**col): dict(col) for col in spec.columns},
            **self.flags, "out_dir": self.out_dir, "fmt": self.fmt,
        }


class EmptyGridError(ValueError):
    """An experiment's row grid holds no row; nothing is run or written."""


def _given(obj) -> dict:
    """The IterationConfig fields that obj (parsed arguments or an
    ExperimentConfig) sets, i.e. does not leave at None."""
    return {name: getattr(obj, name) for name in FLAGS
            if getattr(obj, name, None) is not None}


def _refuse_unread(who, given: dict, reads) -> None:
    """ValueError naming each given field, with its flag, that `who`
    does not read."""
    unread = [f"{name} ({FLAGS[name]})" for name in given if name not in reads]
    if unread:
        raise ValueError(f"{who} does not read {', '.join(unread)}")


def _count_cell(report) -> str:
    n = report.iterations
    return str(n) if report.converged else f"{n}*"


def write_table(path, header, rows, config: dict) -> None:
    """CSV with a `# config:` comment line; deterministic bytes."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _record(config: dict, rows) -> dict:
    return {
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config,
        "rows": rows,
    }


def _write_record(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _emit(config: ExperimentConfig, name, header, csv_rows, json_rows):
    os.makedirs(config.out_dir, exist_ok=True)
    paths = []
    if config.fmt == "csv":
        csv_path = os.path.join(config.out_dir, f"{name}.csv")
        write_table(csv_path, header, csv_rows, config.as_dict())
        paths.append(csv_path)
    json_path = os.path.join(config.out_dir, f"{name}.json")
    _write_record(json_path, _record(config.as_dict(), json_rows))
    paths.append(json_path)
    return paths


@dataclass(frozen=True)
class Method:
    """How the cells of a table, or one `solve`, are solved and recorded."""

    solve: object        # (IterationConfig, case) -> report
    reads: tuple         # IterationConfig fields the solve reads
    record: tuple        # report attributes that make a JSON cell
    history: str         # report attribute written to `solve --out` as CSV
    column: str          # value column of that CSV
    detail: object       # report -> last item of the `solve` summary line

    def cell(self, report) -> dict:
        return {name: getattr(report, name) for name in self.record}


RICHARDSON = Method(iteration.run_richardson,
                    ("N", "ratio", "beta", "gamma_rule", "theta", "tol", "max_iter"),
                    ("iterations", "converged", "l2_error", "hdiv_error", "wall_time"),
                    "increment_history", "sup_increment",
                    lambda rep: f"{rep.wall_time:.2f}s")
MINRES = Method(boundary_system.run_minres,
                ("N", "ratio", "beta", "gamma_rule", "tol", "max_iter"),
                ("iterations", "converged", "breakdown", "final_residual",
                 "l2_error", "hdiv_error"),
                "residual_history", "relative_residual",
                lambda rep: f"final residual {rep.final_residual:.3e}")
# `solve --method`; the baseline is Richardson on a config without the
# constraint (`_solve_config`).
SOLVE_METHODS = {"richardson": RICHARDSON, "baseline": RICHARDSON, "minres": MINRES}


@dataclass(frozen=True)
class TableSpec:
    """One canned experiment: rows x columns of IterationConfig cells.

    Rows vary the IterationConfig field `axis` ("N" or "ratio"); each
    cell also takes the `fixed` fields, the fields of its column (a dict)
    and the run flags the experiment `reads`.  `key` formats a column's
    fields into its cell key; `errors` names the cell whose error norms
    each row carries.
    """

    header: tuple
    axis: str
    desk: tuple
    full: tuple
    columns: tuple
    key: str
    method: Method = None  # None: the spectrum (`run_spectrum`)
    fixed: dict = field(default_factory=dict)
    reads: tuple = ("tol", "max_iter")
    errors: str = None

    def grid(self, full=False, max_n=None) -> tuple:
        """Row values of the desk or full grid; max_n caps an N axis and
        is refused on any other."""
        rows = self.full if full else self.desk
        if max_n is None:
            return rows
        if self.axis != "N":
            raise ValueError(f"--max-n caps an N grid, not one of {self.axis} values")
        if max_n < 1:
            raise ValueError(f"--max-n must be a positive integer, got {max_n}")
        return tuple(v for v in rows if v <= max_n)


EXPERIMENTS = {
    "table1": TableSpec(TABLE1_HEADER, "N", TABLE1_N_DESK, TABLE1_N_FULL,
                        RICHARDSON_COLUMNS, "{gamma_rule},{theta:g}", RICHARDSON,
                        fixed={"ratio": 8}, errors="h,0.5"),
    "table2": TableSpec(TABLE2_HEADER, "ratio", TABLE2_RATIOS, TABLE2_RATIOS,
                        RICHARDSON_COLUMNS, "{gamma_rule},{theta:g}", RICHARDSON,
                        fixed={"N": 4}),
    "table3": TableSpec(TABLE3_HEADER, "N", TABLE3_N_DESK, TABLE3_N_FULL,
                        MINRES_COLUMNS, "{gamma_rule},r={ratio}", MINRES),
    "spectrum": TableSpec(SPECTRUM_HEADER, "N", SPECTRUM_N, SPECTRUM_N,
                          ({"ratio": 4}, {"ratio": 8}), "r={ratio}",
                          fixed={"theta": 1.0}, reads=("gamma_rule",)),
}


def run_table(config: ExperimentConfig):
    """Run the experiment `config` names; -> (rows, paths, all converged)."""
    spec = config.spec
    method = spec.method
    if method is None:
        return run_spectrum(config)
    rows, csv_rows, json_rows, ok = [], [], [], True
    for value, cfgs in config.cells():
        cells = {key: method.solve(cfg, verify.manufactured_case(cfg.beta))
                 for key, cfg in cfgs.items()}
        ok &= all(c.converged for c in cells.values())
        csv_row = [value] + [_count_cell(c) for c in cells.values()]
        json_row = {
            spec.axis: value,
            "counts": {key: method.cell(c) for key, c in cells.items()},
        }
        if spec.errors:
            errs = cells[spec.errors]
            csv_row += [f"{errs.l2_error:.3e}", f"{errs.hdiv_error:.3e}"]
            json_row.update(l2_error=errs.l2_error, hdiv_error=errs.hdiv_error)
        rows.append({spec.axis: value, "cells": cells})
        csv_rows.append(csv_row)
        json_rows.append(json_row)
    paths = _emit(config, config.experiment, spec.header, csv_rows, json_rows)
    return rows, paths, ok


def run_spectrum(config: ExperimentConfig):
    """The contraction modulus of each cell, as one summary row per cell;
    any error propagates.  -> (reports, paths, True)"""
    reports, csv_rows, json_rows = [], [], []
    for _, cfgs in config.cells():
        for cfg in cfgs.values():
            rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
            reports.append(rep)
            modulus = rep.contraction_modulus()
            csv_rows.append([cfg.N, cfg.ratio, cfg.gamma_rule, f"{cfg.theta:g}",
                             rep.dim, rep.unit_count, f"{modulus:.12e}"])
            json_rows.append({"N": cfg.N, "r": cfg.ratio, "gamma": cfg.gamma_rule,
                              "theta": cfg.theta, "dim": rep.dim,
                              "unit_count": rep.unit_count,
                              "contraction_modulus": modulus})
    paths = _emit(config, "spectrum_summary", SPECTRUM_HEADER, csv_rows, json_rows)
    return reports, paths, True


def _run_config(args) -> ExperimentConfig:
    spec = EXPERIMENTS[args.experiment]
    rows = spec.grid(args.full, args.max_n)
    if not rows:
        raise EmptyGridError(f"--max-n {args.max_n} leaves no row of the "
                             f"{args.experiment} grid {spec.grid(args.full)}")
    config = ExperimentConfig(args.experiment, rows, out_dir=args.out,
                              fmt=args.format, **_given(args))
    config.cells()  # each cell's IterationConfig refuses its bad values
    return config


def _cmd_run(args, config: ExperimentConfig) -> int:
    if not set(config.rows) <= set(config.spec.desk):
        m = max(cfg.m for _, cfgs in config.cells() for cfg in cfgs.values())
        print(f"full grid requested: its largest mesh has {m} x {m} cells",
              file=sys.stderr)
    _, paths, ok = run_table(config)
    for p in paths:
        print(p)
    if not ok:
        print("warning: at least one run did not converge", file=sys.stderr)
    return 0 if ok else 1


def _solve_config(args) -> iteration.IterationConfig:
    given = _given(args)
    _refuse_unread(args.method, given, SOLVE_METHODS[args.method].reads)
    return iteration.IterationConfig(**given, constrained=args.method != "baseline")


def _cmd_solve(args, cfg: iteration.IterationConfig) -> int:
    method = SOLVE_METHODS[args.method]
    # The config of both records: the method and the fields it reads.
    record = {"method": args.method, **{name: getattr(cfg, name) for name in method.reads}}
    if args.dump_mesh:
        os.makedirs(args.dump_mesh, exist_ok=True)
        dump_mesh_csv(build_unit_square_mesh(cfg.m), args.dump_mesh)
        print(f"mesh tables written to {args.dump_mesh}")
    rep = method.solve(cfg, verify.manufactured_case(cfg.beta))
    theta = f" theta={cfg.theta:g}" if "theta" in method.reads else ""
    print(
        f"{args.method} N={cfg.N} r={cfg.ratio} gamma={cfg.gamma_rule}{theta}: "
        f"{rep.iterations} iterations, converged={rep.converged}, "
        f"L2 {rep.l2_error:.3e}, Hdiv {rep.hdiv_error:.3e}, {method.detail(rep)}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        history = getattr(rep, method.history)
        write_table(os.path.join(args.out, f"{method.history}.csv"),
                    ("iteration", method.column),
                    [(k, f"{v:.16e}") for k, v in enumerate(history, start=1)],
                    record)
        _write_record(os.path.join(args.out, "solve.json"),
                      _record(record, [method.cell(rep)]))
    return 0 if rep.converged else 1


def _spectrum_config(args) -> iteration.IterationConfig:
    return iteration.IterationConfig(**{**EXPERIMENTS["spectrum"].fixed, **_given(args)})


def _cmd_spectrum(args, cfg: iteration.IterationConfig) -> int:
    rep = spectrum.eigenvalues(spectrum.assemble_Q(cfg))
    print(f"dim {rep.dim}: unit eigenvalues {rep.unit_count}, "
          f"contraction modulus {rep.contraction_modulus():.6f}")
    return 0


def _gamma_rule(text: str):
    """argparse type of --gamma: "h", "H", or a number."""
    return text if text in ("h", "H") else float(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rr-hdiv",
        description="Two-sided Robin-Robin decomposition solver "
                    "for the grad-div model problem",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag that sets an IterationConfig field is None when unset: the
    # config gives its default and refuses a value out of range.

    p_run = sub.add_parser("run", help="run a canned experiment grid")
    p_run.add_argument("--experiment", required=True,
                       choices=["table1", "table2", "table3", "spectrum"])
    p_run.add_argument("--max-n", type=int,
                       help="largest N of the table1, table3 and spectrum "
                            "grids (default: no cap)")
    p_run.add_argument("--full", action="store_true",
                       help="full study grid of table1 and table3 instead of "
                            "the desk-scale default")
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    # Each experiment reads only some of these (`TableSpec.reads`).
    p_run.add_argument("--gamma", dest="gamma_rule", type=_gamma_rule,
                       metavar="GAMMA",
                       help=f"spectrum Robin rule (default {_DEFAULTS['gamma_rule']}); "
                            "the tables fix theirs in their columns")
    p_run.add_argument("--tol", type=float,
                       help=f"table stopping tolerance (default {_DEFAULTS['tol']:g})")
    p_run.add_argument("--max-iter", type=int,
                       help=f"table iteration cap (default {_DEFAULTS['max_iter']})")
    p_run.set_defaults(config=_run_config, func=_cmd_run)

    p_solve = sub.add_parser("solve", help="run one configuration")
    p_solve.add_argument("--n", dest="N", type=int, required=True)
    p_solve.add_argument("--ratio", type=int, required=True)
    p_solve.add_argument("--gamma", dest="gamma_rule", type=_gamma_rule,
                         metavar="GAMMA", help='"h", "H", or a positive number')
    p_solve.add_argument("--theta", type=float)
    p_solve.add_argument("--beta", type=float,
                         help="reaction coefficient, of the manufactured load too")
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-iter", type=int)
    p_solve.add_argument("--method", default="richardson",
                         choices=["richardson", "minres", "baseline"])
    p_solve.add_argument("--out", default=None,
                         help="directory for history CSV and run record")
    p_solve.add_argument("--dump-mesh", default=None,
                         help="directory for mesh debug tables")
    p_solve.set_defaults(config=_solve_config, func=_cmd_solve)

    p_spec = sub.add_parser("spectrum", help="contraction modulus of one iteration map")
    p_spec.add_argument("--n", dest="N", type=int, required=True)
    p_spec.add_argument("--ratio", type=int, required=True)
    p_spec.add_argument("--gamma", dest="gamma_rule", type=_gamma_rule,
                        metavar="GAMMA")
    p_spec.add_argument("--theta", type=float)
    p_spec.set_defaults(config=_spectrum_config, func=_cmd_spectrum)

    args = parser.parse_args(argv)
    try:
        config = args.config(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
