"""Experiment driver: iteration-count tables, spectrum exports, one-off solves.

Four canned experiments cover the study grids (two Richardson tables, the
MINRES table, the spectrum sweep). Each is one `TableSpec` in `EXPERIMENTS`:
the row axis with its desk and full grids, the columns and the method that
solves a cell, and the CSV header; `run_table` runs any of them. `solve`
runs a single configuration and can emit its per-iteration history.
Every CSV embeds the configuration of its run in a leading comment line,
and every JSON record holds it as `config`: the experiment's for a table,
the command's flags for `solve`.
Exit status is 0 only if every run in the invocation converged.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import __version__, boundary_system, fem, iteration, spectrum, verify
from .mesh import build_unit_square_mesh, dump_mesh_csv

__all__ = [
    "ExperimentConfig",
    "EmptyGridError",
    "TableSpec",
    "EXPERIMENTS",
    "spectrum_runs",
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
    "N", "r", "gamma", "theta", "dim",
    "max_real_below_unit", "unit_count", "max_nonreal_modulus", "file",
)

TABLE1_N_DESK = (4, 8, 16)
TABLE1_N_FULL = (4, 8, 16, 24, 32, 40, 48, 64)
TABLE2_RATIOS = (4, 8, 16, 32)
TABLE3_N_DESK = (4, 8, 16)
TABLE3_N_FULL = (4, 8, 16, 24, 32, 40, 48)
SPECTRUM_N = (4, 8, 12)

RICHARDSON_COLUMNS = (("h", 0.5), ("h", 2.0 / 3.0), ("H", 0.5), ("H", 2.0 / 3.0))
MINRES_COLUMNS = (("h", 8), ("h", 16), ("H", 8), ("H", 16))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and output settings of one canned experiment."""

    experiment: str
    n_list: tuple = ()
    ratio_list: tuple = ()
    gamma_rules: tuple = ("h", "H")
    theta_list: tuple = (0.5, 2.0 / 3.0)
    tol: float = 1e-6
    max_iter: int = 10000
    out_dir: str = "."
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in {"table1", "table2", "table3", "spectrum"}:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.fmt not in {"csv", "json"}:
            raise ValueError(f"unknown format {self.fmt!r}")

    def as_dict(self) -> dict:
        d = asdict(self)
        for key in ("n_list", "ratio_list", "gamma_rules", "theta_list"):
            d[key] = list(d[key])
        return d


class EmptyGridError(ValueError):
    """An experiment's row grid holds no row; nothing is run or written."""


def _count_cell(report) -> str:
    n = report.iterations
    return str(n) if report.converged else f"{n}*"


def spectrum_runs(grid, gamma_rule="h", theta=1.0):
    """Spectrum reports over the (N, ratio) grid; entries over the size
    cap are skipped, and any other error propagates."""
    reports = []
    skipped = []
    for N, r in grid:
        cfg = iteration.IterationConfig(
            N=N, ratio=r, gamma_rule=gamma_rule, theta=theta
        )
        try:
            op = spectrum.assemble_Q(cfg)
        except spectrum.SizeCapError as err:
            skipped.append((N, r, str(err)))
            continue
        reports.append(spectrum.eigenvalues(op))
    return reports, skipped


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


def _report_json(rep: iteration.SolveReport) -> dict:
    return {
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "l2_error": rep.l2_error,
        "hdiv_error": rep.hdiv_error,
        "wall_time": rep.wall_time,
    }


def _krylov_json(rep: boundary_system.KrylovReport) -> dict:
    return {
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "breakdown": bool(rep.breakdown),
        "final_residual": rep.final_residual,
        "l2_error": rep.l2_error,
        "hdiv_error": rep.hdiv_error,
    }


def _solve_minres(cfg: iteration.IterationConfig, case):
    problem = iteration.build_problem(cfg, case.load)
    op = boundary_system.InterfaceOperator(problem)
    return boundary_system.solve_minres(
        op, op.load(), tol=cfg.tol, max_iter=cfg.max_iter, case=case
    )


@dataclass(frozen=True)
class Method:
    """How the cells of a table, or one `solve`, are solved and recorded."""

    solve: object        # (IterationConfig, case) -> report
    columns: tuple       # one pair per table column
    fields: tuple        # the IterationConfig fields a column pair sets
    key: str             # JSON key of a column, formatted from its pair
    record: object       # report -> JSON cell
    history: str         # report attribute written to `solve --out` as CSV
    column: str          # value column of that CSV
    detail: object       # report -> last item of the `solve` summary line


RICHARDSON = Method(iteration.run_richardson, RICHARDSON_COLUMNS,
                    ("gamma_rule", "theta"), "{},{:g}", _report_json,
                    "increment_history", "sup_increment",
                    lambda rep: f"{rep.wall_time:.2f}s")
MINRES = Method(_solve_minres, MINRES_COLUMNS,
                ("gamma_rule", "ratio"), "{},r={}", _krylov_json,
                "residual_history", "relative_residual",
                lambda rep: f"final residual {rep.final_residual:.3e}")
# `solve --method`; the baseline is Richardson on a config without the
# constraint (`_cmd_solve`).
SOLVE_METHODS = {"richardson": RICHARDSON, "baseline": RICHARDSON, "minres": MINRES}


@dataclass(frozen=True)
class TableSpec:
    """One canned experiment: its row grid, columns and output header.

    Rows vary the IterationConfig field `axis` ("N" or "ratio"); each
    cell also takes the `fixed` fields and the fields its column sets.
    `config` holds the ExperimentConfig fields the experiment records
    besides its row grid; they override the command-line values.
    """

    header: tuple
    axis: str
    desk: tuple
    full: tuple
    method: Method = None
    fixed: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    errors: bool = False  # rows carry the (h, 1/2) cell's error norms

    @property
    def grid_field(self) -> str:
        return {"N": "n_list", "ratio": "ratio_list"}[self.axis]

    def grid(self, full=False, max_n=None) -> tuple:
        """Row values of the desk or full grid; max_n caps an N axis."""
        rows = self.full if full else self.desk
        if max_n is not None and self.axis == "N":
            rows = tuple(v for v in rows if v <= max_n)
        return rows


# The tables' columns fix their Robin rules; only the spectrum takes --gamma.
_TABLE_RULES = {"gamma_rules": ("h", "H")}
EXPERIMENTS = {
    "table1": TableSpec(TABLE1_HEADER, "N", TABLE1_N_DESK, TABLE1_N_FULL,
                        RICHARDSON, fixed={"ratio": 8}, errors=True,
                        config={"ratio_list": (8,), **_TABLE_RULES}),
    "table2": TableSpec(TABLE2_HEADER, "ratio", TABLE2_RATIOS, TABLE2_RATIOS,
                        RICHARDSON, fixed={"N": 4},
                        config={"n_list": (4,), **_TABLE_RULES}),
    "table3": TableSpec(TABLE3_HEADER, "N", TABLE3_N_DESK, TABLE3_N_FULL,
                        MINRES, config={"ratio_list": (8, 16), **_TABLE_RULES}),
    "spectrum": TableSpec(SPECTRUM_HEADER, "N", SPECTRUM_N, SPECTRUM_N,
                          config={"ratio_list": (4, 8), "theta_list": (1.0,)}),
}


def run_table(config: ExperimentConfig):
    """Run the experiment `config` names; -> (rows, paths, all converged)."""
    spec = EXPERIMENTS[config.experiment]
    if spec.method is None:
        return run_spectrum(config)
    grid = getattr(config, spec.grid_field)
    if not grid:
        raise EmptyGridError(
            f"{config.experiment}: its grid {spec.grid_field}={grid} is empty")
    method = spec.method
    case = verify.manufactured_case()
    rows, csv_rows, json_rows, ok = [], [], [], True
    for value in grid:
        cells = {}
        for col in method.columns:
            cfg = iteration.IterationConfig(
                **{spec.axis: value}, **spec.fixed,
                **dict(zip(method.fields, col)),
                tol=config.tol, max_iter=config.max_iter,
            )
            cells[col] = method.solve(cfg, case)
        ok &= all(c.converged for c in cells.values())
        csv_row = [value] + [_count_cell(c) for c in cells.values()]
        json_row = {
            spec.axis: value,
            "counts": {method.key.format(*col): method.record(c)
                       for col, c in cells.items()},
        }
        if spec.errors:
            errs = cells[("h", 0.5)]
            csv_row += [f"{errs.l2_error:.3e}", f"{errs.hdiv_error:.3e}"]
            json_row.update(l2_error=errs.l2_error, hdiv_error=errs.hdiv_error)
        rows.append({spec.axis: value, "cells": cells})
        csv_rows.append(csv_row)
        json_rows.append(json_row)
    paths = _emit(config, config.experiment, spec.header, csv_rows, json_rows)
    return rows, paths, ok


def run_spectrum(config: ExperimentConfig):
    """Spectra over n_list x ratio_list; -> (reports, paths, True)."""
    grid = tuple((N, r) for N in config.n_list for r in config.ratio_list)
    if not grid:
        raise EmptyGridError(
            f"{config.experiment}: its grid n_list={config.n_list} x "
            f"ratio_list={config.ratio_list} is empty")
    reports, skipped = spectrum_runs(grid, gamma_rule=config.gamma_rules[0],
                                     theta=config.theta_list[0])
    os.makedirs(config.out_dir, exist_ok=True)
    csv_rows, json_rows = [], []
    paths = []
    for rep in reports:
        fname = spectrum.spectrum_filename(rep)
        fpath = os.path.join(config.out_dir, fname)
        spectrum.export_spectrum(rep, fpath)
        paths.append(fpath)
        cfg = rep.config
        csv_rows.append([
            cfg.N, cfg.ratio, cfg.gamma_rule, f"{cfg.theta:g}", rep.dim,
            f"{rep.max_real_below_unit():.12e}", rep.unit_count,
            f"{rep.max_nonreal_modulus:.12e}", fname,
        ])
        json_rows.append({
            "N": cfg.N, "r": cfg.ratio, "gamma": cfg.gamma_rule,
            "theta": cfg.theta, "dim": rep.dim,
            "max_real_below_unit": rep.max_real_below_unit(),
            "unit_count": rep.unit_count,
            "max_nonreal_modulus": rep.max_nonreal_modulus,
            "blocks": list(rep.blocks),
            "file": fname,
        })
    for N, r, why in skipped:
        print(f"spectrum N={N} r={r}: skipped ({why})", file=sys.stderr)
    paths += _emit(config, "spectrum_summary", SPECTRUM_HEADER, csv_rows, json_rows)
    return reports, paths, True


def _cmd_run(args) -> int:
    spec = EXPERIMENTS[args.experiment]
    config = ExperimentConfig(**{
        "experiment": args.experiment,
        spec.grid_field: spec.grid(args.full, args.max_n),
        "gamma_rules": (args.gamma,),
        "tol": args.tol, "max_iter": args.max_iter,
        "out_dir": args.out, "fmt": args.format,
        **spec.config,
    })
    if not set(getattr(config, spec.grid_field)) <= set(spec.desk):
        print("full grid requested: the largest rows solve meshes of up "
              "to 512 x 512 (table1) or 768 x 768 (table3) cells; table1 "
              "takes about 4 s and 250 MB, table3 about 5 s and 320 MB",
              file=sys.stderr)
    try:
        _, paths, ok = run_table(config)
    except EmptyGridError as err:
        print(f"error: --max-n {args.max_n} leaves no row of the "
              f"{args.experiment} grid {spec.grid(args.full)} ({err})",
              file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    if not ok:
        print("warning: at least one run did not converge", file=sys.stderr)
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    case = verify.manufactured_case()
    cfg = iteration.IterationConfig(
        N=args.n, ratio=args.ratio, beta=args.beta, gamma_rule=args.gamma,
        theta=args.theta, tol=args.tol, max_iter=args.max_iter,
        constrained=args.method != "baseline",
    )
    # The config of both records: the command's own flags.
    flags = {
        "N": args.n, "ratio": args.ratio, "gamma": args.gamma,
        "theta": args.theta, "tol": args.tol, "max_iter": args.max_iter,
        "method": args.method, "beta": args.beta,
    }
    if args.dump_mesh:
        os.makedirs(args.dump_mesh, exist_ok=True)
        dump_mesh_csv(build_unit_square_mesh(cfg.m), args.dump_mesh)
        print(f"mesh tables written to {args.dump_mesh}")
    method = SOLVE_METHODS[args.method]
    rep = method.solve(cfg, case)
    # Only Richardson relaxes; its columns are the ones that set theta.
    theta = f" theta={args.theta:g}" if "theta" in method.fields else ""
    print(
        f"{args.method} N={args.n} r={args.ratio} gamma={args.gamma}{theta}: "
        f"{rep.iterations} iterations, converged={rep.converged}, "
        f"L2 {rep.l2_error:.3e}, Hdiv {rep.hdiv_error:.3e}, {method.detail(rep)}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        history = getattr(rep, method.history)
        write_table(os.path.join(args.out, f"{method.history}.csv"),
                    ("iteration", method.column),
                    [(k, f"{v:.16e}") for k, v in enumerate(history, start=1)],
                    flags)
        _write_record(os.path.join(args.out, "solve.json"),
                      _record(flags, [method.record(rep)]))
    return 0 if rep.converged else 1


def _cmd_spectrum(args) -> int:
    cfg = iteration.IterationConfig(
        N=args.n, ratio=args.ratio, gamma_rule=args.gamma, theta=args.theta
    )
    try:
        op = spectrum.assemble_Q(cfg)
    except spectrum.SizeCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    rep = spectrum.eigenvalues(op)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, spectrum.spectrum_filename(rep))
    spectrum.export_spectrum(rep, path)
    g = len(rep.blocks)
    print(
        f"dim {rep.dim} in {g} block{'s' * (g != 1)} of {rep.blocks[0]}: "
        f"unit eigenvalues {rep.unit_count}, "
        f"max real below unit {rep.max_real_below_unit():.6f}, "
        f"max non-real modulus {rep.max_nonreal_modulus:.6f}"
    )
    print(path)
    return 0


def _positive(text: str) -> float:
    """argparse type of --tol and --beta: a positive finite number."""
    try:
        return fem.check_positive("value", float(text))
    except ValueError:
        msg = f"expected a positive finite number, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _positive_int(text: str) -> int:
    """argparse type of --n, --ratio, --max-iter and --max-n: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _theta(text: str) -> float:
    """argparse type of --theta: a relaxation weight in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:  # NaN too
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text!r}")
    return value


def _gamma_rule(text: str):
    """argparse type of --gamma: "h", "H", or a positive finite number."""
    return text if text in ("h", "H") else _positive(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rr-hdiv",
        description="Two-sided Robin-Robin decomposition solver "
                    "for the grad-div model problem",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a canned experiment grid")
    p_run.add_argument("--experiment", required=True,
                       choices=["table1", "table2", "table3", "spectrum"])
    p_run.add_argument("--max-n", type=_positive_int, default=None,
                       help="largest N of the table1, table3 and spectrum "
                            "grids (default: no cap)")
    p_run.add_argument("--full", action="store_true",
                       help="full study grid of table1 and table3 instead of "
                            "the desk-scale default")
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--format", choices=["csv", "json"], default="csv")
    p_run.add_argument("--gamma", type=_gamma_rule, default="h",
                       help="spectrum grid Robin rule")
    p_run.add_argument("--tol", type=_positive, default=1e-6)
    p_run.add_argument("--max-iter", type=_positive_int, default=10000)
    p_run.set_defaults(func=_cmd_run)

    p_solve = sub.add_parser("solve", help="run one configuration")
    p_solve.add_argument("--n", type=_positive_int, required=True)
    p_solve.add_argument("--ratio", type=_positive_int, required=True)
    p_solve.add_argument("--gamma", type=_gamma_rule, default="h",
                         help='"h", "H", or a positive number')
    p_solve.add_argument("--theta", type=_theta, default=0.5)
    p_solve.add_argument("--beta", type=_positive, default=1.0)
    p_solve.add_argument("--tol", type=_positive, default=1e-6)
    p_solve.add_argument("--max-iter", type=_positive_int, default=10000)
    p_solve.add_argument("--method", default="richardson",
                         choices=["richardson", "minres", "baseline"])
    p_solve.add_argument("--out", default=None,
                         help="directory for history CSV and run record")
    p_solve.add_argument("--dump-mesh", default=None,
                         help="directory for mesh debug tables")
    p_solve.set_defaults(func=_cmd_solve)

    p_spec = sub.add_parser("spectrum", help="export one spectrum")
    p_spec.add_argument("--n", type=_positive_int, required=True)
    p_spec.add_argument("--ratio", type=_positive_int, required=True)
    p_spec.add_argument("--gamma", type=_gamma_rule, default="h")
    p_spec.add_argument("--theta", type=_theta, default=1.0)
    p_spec.add_argument("--out", default="results")
    p_spec.set_defaults(func=_cmd_spectrum)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
