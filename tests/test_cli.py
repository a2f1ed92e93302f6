"""Tests for the command line interface and its table plumbing."""

import dataclasses
import json
import os
import re

import pytest

from helpers import l2_distance, parse_count, read_records, read_table
from rr_hdiv import cli, fem, iteration, verify
from rr_hdiv.mesh import build_unit_square_mesh


@pytest.mark.parametrize(
    "cell,expect",
    [("41", (41, True)), (" 41 ", (41, True)), ("118*", (118, False))],
)
def test_parse_count(cell, expect):
    assert parse_count(cell) == expect


def test_count_cell_round_trip():
    class Rep:
        iterations = 7
        converged = False

    cell = cli._count_cell(Rep())
    assert cell == "7*"
    assert parse_count(cell) == (7, False)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="experiment"):
        cli.ExperimentConfig(experiment="table9")
    with pytest.raises(ValueError, match="format"):
        cli.ExperimentConfig(experiment="table1", fmt="xml")
    cfg = cli.ExperimentConfig(experiment="table1", rows=(4, 8))
    d = cfg.as_dict()
    assert d["N"] == [4, 8] and d["ratio"] == 8
    assert d["columns"]["h,0.666667"] == {"gamma_rule": "h", "theta": 2.0 / 3.0}
    assert json.dumps(d)


def test_write_read_table_round_trip(tmp_path):
    cfg = cli.ExperimentConfig(experiment="table2", rows=(4, 8))
    path = tmp_path / "t.csv"
    header = ("a", "b")
    rows = [["1", "2"], ["3", "4*"]]
    cli.write_table(path, header, rows, cfg.as_dict())
    config, got_header, got_rows = read_table(path)
    assert config == cfg.as_dict()
    assert tuple(got_header) == header
    assert got_rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4*"}]


def test_read_table_requires_config_line(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="config"):
        read_table(path)


@pytest.fixture(scope="module")
def table1_n2(tmp_path_factory):
    out = tmp_path_factory.mktemp("t1")
    cfg = cli.ExperimentConfig(experiment="table1", rows=(2,), out_dir=str(out))
    rows, paths, ok = cli.run_table(cfg)
    return cfg, rows, paths, ok, out


def test_run_table1_outputs(table1_n2):
    cfg, rows, paths, ok, out = table1_n2
    assert ok
    assert len(rows) == 1
    csv_path = os.path.join(str(out), "table1.csv")
    json_path = os.path.join(str(out), "table1.json")
    assert paths == [csv_path, json_path]
    config, header, data = read_table(csv_path)
    assert tuple(header) == cli.TABLE1_HEADER
    assert len(data) == 1
    row = data[0]
    assert row["N"] == "2"
    for col in cli.TABLE1_HEADER[1:5]:
        count, converged = parse_count(row[col])
        assert converged and count >= 1
    l2 = float(row["L2-err"])
    hdiv = float(row["Hdiv-err"])
    assert 0 < l2 < hdiv < 1
    record = read_records(json_path)
    assert record["config"] == cfg.as_dict()
    assert record["rows"][0]["N"] == 2
    first = next(iter(record["rows"][0]["counts"].values()))
    assert first["converged"] is True


def test_run_table1_csv_deterministic(table1_n2, tmp_path):
    _, _, paths, _, out = table1_n2
    first = open(paths[0], "rb").read()
    cfg2 = cli.ExperimentConfig(experiment="table1", rows=(2,), out_dir=str(out))
    cli.run_table(cfg2)
    assert open(paths[0], "rb").read() == first


def test_run_table2_small(tmp_path):
    cfg = cli.ExperimentConfig(experiment="table2", rows=(2, 4), out_dir=str(tmp_path))
    rows, paths, ok = cli.run_table(cfg)
    assert ok
    _, header, data = read_table(paths[0])
    assert tuple(header) == cli.TABLE2_HEADER
    assert [r["H/h"] for r in data] == ["2", "4"]
    counts = [parse_count(r[cli.TABLE2_HEADER[1]])[0] for r in data]
    assert counts[0] < counts[1]


def test_run_table3_small(tmp_path):
    cfg = cli.ExperimentConfig(experiment="table3", rows=(2,), out_dir=str(tmp_path))
    rows, paths, ok = cli.run_table(cfg)
    assert ok
    _, header, data = read_table(paths[0])
    assert tuple(header) == cli.TABLE3_HEADER
    assert len(data) == 1
    for col in cli.TABLE3_HEADER[1:]:
        count, converged = parse_count(data[0][col])
        assert converged and count >= 1
    record = read_records(paths[1])
    cell = record["rows"][0]["counts"]["h,r=8"]
    assert cell["final_residual"] < 1e-6
    assert cell["breakdown"] is False


def test_run_spectrum_small(tmp_path):
    """One summary row per cell, with its contraction modulus, and no
    other file."""
    cfg = cli.ExperimentConfig(experiment="spectrum", rows=(2,), out_dir=str(tmp_path))
    reports, paths, ok = cli.run_spectrum(cfg)
    assert ok
    assert len(reports) == 2  # the ratio 4 and 8 columns
    assert reports[0].dim == 4 * 2 * 1 * 4
    assert reports[0].unit_count == 2 * 2 * 1
    assert sorted(os.listdir(tmp_path)) == ["spectrum_summary.csv",
                                            "spectrum_summary.json"]
    _, header, data = read_table(os.path.join(str(tmp_path),
                                              "spectrum_summary.csv"))
    assert tuple(header) == cli.SPECTRUM_HEADER
    assert int(data[0]["dim"]) == 32
    assert float(data[0]["contraction_modulus"]) == pytest.approx(
        reports[0].contraction_modulus(), rel=1e-11)
    record = read_records(paths[-1])
    assert record["rows"][1]["contraction_modulus"] == reports[1].contraction_modulus()
    assert set(record["rows"][0]) == set(cli.SPECTRUM_HEADER)


def test_spectrum_grid_propagates_other_errors(tmp_path, monkeypatch):
    """No spectrum error is skipped: with every assembled matrix negated,
    the Robin matrices' refusal propagates out of run_spectrum, which
    writes no summary, and out of main, which returns no status."""
    assemble = fem.assemble
    monkeypatch.setattr(fem, "assemble", lambda *args: -assemble(*args))
    cfg = cli.ExperimentConfig(experiment="spectrum", rows=(4,),
                               out_dir=str(tmp_path / "grid"))
    not_spd = "^subdomain 5: Robin matrix not positive definite"
    with pytest.raises(ValueError, match=not_spd):
        cli.run_spectrum(cfg)
    assert not (tmp_path / "grid" / "spectrum_summary.csv").exists()
    for argv in (["run", "--experiment", "spectrum", "--max-n", "4",
                  "--out", str(tmp_path / "main")],
                 ["spectrum", "--n", "4", "--ratio", "4"]):
        with pytest.raises(ValueError, match=not_spd):
            cli.main(argv)
    assert not (tmp_path / "main").exists()


def test_table_grid_honours_full_and_max_n():
    spec = cli.EXPERIMENTS["table1"]
    assert spec.grid(full=True) == cli.TABLE1_N_FULL
    assert spec.grid() == cli.TABLE1_N_DESK
    assert spec.grid(full=True, max_n=8) == (4, 8)


def test_table_grid_refuses_max_n_off_an_n_axis_and_below_one():
    with pytest.raises(ValueError, match="^--max-n caps an N grid, not one of ratio values$"):
        cli.EXPERIMENTS["table2"].grid(max_n=8)
    with pytest.raises(ValueError, match="^--max-n must be a positive integer, got 0$"):
        cli.EXPERIMENTS["table1"].grid(full=True, max_n=0)
    assert cli.EXPERIMENTS["table2"].grid(full=True) == cli.TABLE2_RATIOS


def test_main_run_spectrum_max_n(tmp_path, capsys):
    rc = cli.main([
        "run", "--experiment", "spectrum", "--max-n", "4",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    names = [os.path.basename(p) for p in capsys.readouterr().out.split()]
    assert names == ["spectrum_summary.csv", "spectrum_summary.json"]
    config, _, data = read_table(tmp_path / "spectrum_summary.csv")
    assert config["N"] == [4]
    assert [int(r["dim"]) for r in data] == [192, 384]


@pytest.mark.parametrize("experiment,max_n", [("spectrum", "2"), ("table1", "3")])
def test_main_run_refuses_an_emptied_grid(tmp_path, capsys, experiment, max_n):
    """A --max-n below every row of the grid is refused with exit 2 and
    writes nothing, instead of running the default grid (spectrum) or
    writing an empty table (table1)."""
    out = tmp_path / "out"
    rc = cli.main([
        "run", "--experiment", experiment, "--max-n", max_n, "--out", str(out),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-n {max_n} leaves no row of the {experiment} grid" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["table1", "spectrum"])
def test_empty_grid_raises_and_writes_nothing(tmp_path, experiment):
    """run_table and run_spectrum refuse a config whose grid fields are
    left at their default, naming the experiment and its grid, and write
    no file."""
    out = tmp_path / "out"
    config = cli.ExperimentConfig(experiment=experiment, out_dir=str(out))
    for run in (cli.run_table, cli.run_spectrum):
        with pytest.raises(ValueError, match=re.escape(
                f"{experiment}: its grid N=() is empty") + "$"):
            run(config)
    assert not out.exists()


def test_main_run_warns_only_beyond_the_desk_grid(tmp_path, capsys):
    """--full warns of the large meshes only when the capped grid keeps a
    row beyond the desk grid: not when --max-n empties it, nor when it
    leaves desk rows alone."""
    for max_n, rc in (("3", 2), ("4", 0)):
        assert cli.main(["run", "--experiment", "table1", "--full",
                         "--max-n", max_n, "--out", str(tmp_path)]) == rc
        assert "full grid requested" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,largest", [
    (["--experiment", "table1", "--full", "--max-n", "24"], 192),
    (["--experiment", "table1", "--full"], 512),
    (["--experiment", "table3", "--full"], 768),
])
def test_main_run_full_warning_names_the_largest_mesh(monkeypatch, capsys,
                                                      argv, largest):
    """The --full warning names the largest m = N ratio over the cells
    that will run, not a fixed figure."""
    monkeypatch.setattr(cli, "run_table", lambda config: ([], [], True))
    assert cli.main(["run", *argv]) == 0
    err = capsys.readouterr().err
    assert f"full grid requested: its largest mesh has {largest} x {largest} cells" in err


@pytest.mark.parametrize("experiment", ["table1", "table3"])
def test_record_rebuilds_every_cell(tmp_path, experiment):
    """Every cell's IterationConfig follows from the JSON record alone: the
    config's IterationConfig fields, the row's value on the axis (the one
    field the config lists) and the column's entry of `columns`.
    Re-running one cell from it gives the recorded count."""
    cfg = cli.ExperimentConfig(experiment=experiment, rows=(2,),
                               out_dir=str(tmp_path), fmt="json")
    cli.run_table(cfg)
    record = read_records(tmp_path / f"{experiment}.json")
    config = record["config"]
    names = {f.name for f in dataclasses.fields(iteration.IterationConfig)}
    shared = {k: v for k, v in config.items() if k in names}
    (axis,) = [k for k, v in shared.items() if isinstance(v, list)]
    rebuilt = []
    for row in record["rows"]:
        assert list(row["counts"]) == list(config["columns"])
        rebuilt.append((row[axis], {
            key: iteration.IterationConfig(**{**shared, axis: row[axis]}, **fields)
            for key, fields in config["columns"].items()
        }))
    assert rebuilt == cfg.cells()
    key, cell = list(rebuilt[0][1].items())[-1]
    rep = cli.EXPERIMENTS[experiment].method.solve(cell, verify.manufactured_case())
    assert rep.iterations == record["rows"][0]["counts"][key]["iterations"]


@pytest.mark.parametrize("experiment,keys", [
    ("table1", {"N", "ratio", "columns", "tol", "max_iter"}),
    ("table2", {"ratio", "N", "columns", "tol", "max_iter"}),
    ("table3", {"N", "columns", "tol", "max_iter"}),
    ("spectrum", {"N", "theta", "columns", "gamma_rule"}),
])
def test_records_hold_only_what_their_cells_read(experiment, keys):
    """A record's config holds the row grid, the fixed fields, the columns
    and the flags its cells read, besides the output settings: no theta
    for MINRES, no tol or max_iter for the spectrum."""
    config = cli.ExperimentConfig(experiment=experiment, rows=(2,)).as_dict()
    assert set(config) == keys | {"experiment", "out_dir", "fmt"}
    if experiment == "table3":
        assert config["columns"]["h,r=8"] == {"gamma_rule": "h", "ratio": 8}
    if experiment == "spectrum":
        assert config["theta"] == 1.0 and config["gamma_rule"] == "h"
        assert config["columns"] == {"r=4": {"ratio": 4}, "r=8": {"ratio": 8}}


def test_experiment_config_refuses_unread_flags():
    for experiment in ("table1", "table2", "table3"):
        with pytest.raises(ValueError, match=f"^{experiment} does not read "
                                             r"gamma_rule \(--gamma\)$"):
            cli.ExperimentConfig(experiment=experiment, gamma_rule="H")
    with pytest.raises(ValueError, match=r"^spectrum does not read tol \(--tol\), "
                                         r"max_iter \(--max-iter\)$"):
        cli.ExperimentConfig(experiment="spectrum", tol=1e-8, max_iter=3)


@pytest.mark.parametrize("argv,flag", [
    (["--experiment", "table1", "--gamma", "H"], "--gamma"),
    (["--experiment", "spectrum", "--tol", "1e-8"], "--tol"),
    (["--experiment", "spectrum", "--max-iter", "3"], "--max-iter"),
])
def test_main_run_refuses_flags_the_experiment_does_not_read(tmp_path, capsys,
                                                             argv, flag):
    """Refused with exit 2 before anything runs, naming the flag, instead of
    being dropped (table1) or recorded without being read (spectrum)."""
    out = tmp_path / "out"
    assert cli.main(["run", *argv, "--max-n", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"({flag})" in captured.err
    assert not out.exists()


def test_main_run_spectrum_reads_gamma(tmp_path, capsys):
    assert cli.main(["run", "--experiment", "spectrum", "--gamma", "H",
                     "--max-n", "4", "--out", str(tmp_path)]) == 0
    config, _, data = read_table(tmp_path / "spectrum_summary.csv")
    assert config["gamma_rule"] == "H"
    assert [r["gamma"] for r in data] == ["H", "H"]


def test_main_run_table1_exit_codes(tmp_path, capsys):
    rc = cli.main([
        "run", "--experiment", "table1", "--max-n", "4",
        "--out", str(tmp_path / "ok"),
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert any(p.endswith("table1.csv") for p in out)
    rc = cli.main([
        "run", "--experiment", "table1", "--max-n", "4",
        "--max-iter", "2", "--out", str(tmp_path / "bad"),
    ])
    assert rc == 1
    _, _, data = read_table(os.path.join(str(tmp_path / "bad"), "table1.csv"))
    cell = data[0][cli.TABLE1_HEADER[1]]
    assert cell.endswith("*")
    assert parse_count(cell) == (2, False)


def test_main_run_json_only(tmp_path):
    rc = cli.main([
        "run", "--experiment", "table1", "--max-n", "4",
        "--format", "json", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert not os.path.exists(tmp_path / "table1.csv")
    assert os.path.exists(tmp_path / "table1.json")


def test_main_solve_richardson(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "solve", "--n", "2", "--ratio", "2", "--out", str(out),
        "--dump-mesh", str(tmp_path / "mesh"),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "richardson N=2 r=2" in text
    assert "converged=True" in text
    for name in ("vertices.csv", "edges.csv", "triangles.csv"):
        assert os.path.exists(tmp_path / "mesh" / name)
    hist = (out / "increment_history.csv").read_text().splitlines()
    assert hist[0].startswith("# config: ")
    assert hist[1] == "iteration,sup_increment"
    assert len(hist) >= 3 and hist[2].startswith("1,")
    record = read_records(out / "solve.json")
    row = record["rows"][0]
    assert record["config"]["method"] == "richardson" and row["converged"] is True
    assert not set(row) & set(record["config"])
    assert float(hist[-1].split(",")[1]) < 1e-6


def test_main_solve_records_its_flags(tmp_path, capsys):
    """`solve --out` records the run's IterationConfig, under its field
    names, as the `config` of its run record and history CSV, and its
    row holds the results alone: no flag is repeated there."""
    out = tmp_path / "run"
    rc = cli.main([
        "solve", "--n", "2", "--ratio", "4", "--tol", "1e-8", "--gamma", "H",
        "--theta", "0.6", "--max-iter", "500", "--out", str(out),
    ])
    assert rc == 0
    flags = {"N": 2, "ratio": 4, "gamma_rule": "H", "theta": 0.6, "tol": 1e-8,
             "max_iter": 500, "method": "richardson", "beta": 1.0}
    record = read_records(out / "solve.json")
    assert record["config"] == flags
    row = record["rows"][0]
    assert not set(row) & set(flags)
    assert set(row) == {"iterations", "converged", "l2_error", "hdiv_error", "wall_time"}
    config, header, data = read_table(out / "increment_history.csv")
    assert config == flags
    assert header == ["iteration", "sup_increment"]
    assert len(data) == row["iterations"]
    assert float(data[-1]["sup_increment"]) < 1e-8 <= float(data[-2]["sup_increment"])
    assert "gamma=H theta=0.6" in capsys.readouterr().out


def test_main_solve_minres(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "solve", "--n", "2", "--ratio", "2", "--method", "minres",
        "--out", str(out),
    ])
    assert rc == 0
    assert "minres N=2 r=2" in capsys.readouterr().out
    hist = (out / "residual_history.csv").read_text().splitlines()
    assert hist[1] == "iteration,relative_residual"
    record = read_records(out / "solve.json")
    assert record["config"] == {"N": 2, "ratio": 2, "beta": 1.0, "gamma_rule": "h",
                                "tol": 1e-6, "max_iter": 10000, "method": "minres"}
    row = record["rows"][0]
    assert not set(row) & set(record["config"])
    assert row["final_residual"] < 1e-6


def test_main_solve_baseline(tmp_path, capsys):
    """The baseline is Richardson on the config without the constraint."""
    out = tmp_path / "base"
    rc = cli.main(["solve", "--n", "2", "--ratio", "2", "--method", "baseline",
                   "--out", str(out)])
    assert rc == 0
    assert "baseline N=2 r=2" in capsys.readouterr().out
    assert cli.SOLVE_METHODS["baseline"] is cli.RICHARDSON
    record = read_records(out / "solve.json")
    assert record["config"]["method"] == "baseline"
    cfg = iteration.IterationConfig(N=2, ratio=2, constrained=False)
    rep = iteration.run_richardson(cfg, verify.manufactured_case())
    assert record["rows"][0]["iterations"] == rep.iterations
    assert not set(record["rows"][0]) & set(record["config"])


def test_main_solve_numeric_gamma(capsys):
    rc = cli.main(["solve", "--n", "2", "--ratio", "2", "--gamma", "0.25"])
    assert rc == 0
    assert "gamma=0.25" in capsys.readouterr().out


def test_main_solve_nonconverged_exit(capsys):
    rc = cli.main(["solve", "--n", "2", "--ratio", "4", "--max-iter", "2"])
    assert rc == 1
    assert "converged=False" in capsys.readouterr().out


def test_main_spectrum(tmp_path, capsys, monkeypatch):
    """One line on stdout and no file; `--out` is not a flag of it."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["spectrum", "--n", "2", "--ratio", "4"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("dim 32: unit eigenvalues 4, contraction modulus 0.")
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--n", "2", "--ratio", "4", "--out", "spec"])
    assert exc.value.code == 2


@pytest.mark.parametrize("theta", ["0.5", "1e-7"])
def test_main_spectrum_unit_count_at_small_theta(capsys, theta):
    """The relaxed map moves every eigenvalue of E to 1 - theta (1 - lam),
    so at theta=1e-7 all 16 of N=2, r=2 lie within 2e-7 of 1.  The unit
    count is B's row count, not a distance from 1: it stays the four of
    N=2 (one pair per interface), as at theta=0.5."""
    assert cli.main(["spectrum", "--n", "2", "--ratio", "2", "--theta", theta]) == 0
    assert capsys.readouterr().out.startswith("dim 16: unit eigenvalues 4, ")


def test_main_spectrum_cap_exit(capsys):
    """N=16, r=8 (dim 7680): no size limit refuses it, and it exits 0
    with its modulus."""
    assert cli.main(["spectrum", "--n", "16", "--ratio", "8", "--theta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out == "dim 7680: unit eigenvalues 480, contraction modulus 0.799454\n"


def test_main_solve_refuses_theta_on_minres(tmp_path, capsys):
    """MINRES does not relax: `--theta` is refused rather than ignored
    and recorded, and the refusal names the flag."""
    out = tmp_path / "run"
    assert cli.main(["solve", "--n", "2", "--ratio", "2", "--method", "minres",
                     "--theta", "0.7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: minres does not read theta (--theta)\n"
    assert not out.exists()


def test_main_solve_beta_sets_the_load(tmp_path, capsys, monkeypatch):
    """`solve --beta 4` measures its errors against the load made for
    beta = 4: they match the direct solve's, and the field is the direct
    solve's to the tolerance of criterion 9."""
    reports = []

    def solve(cfg, case):
        reports.append(iteration.run_richardson(cfg, case))
        return reports[-1]

    monkeypatch.setitem(cli.SOLVE_METHODS, "richardson",
                        dataclasses.replace(cli.RICHARDSON, solve=solve))
    out = tmp_path / "run"
    assert cli.main(["solve", "--n", "4", "--ratio", "8", "--beta", "4",
                     "--out", str(out)]) == 0
    record = read_records(out / "solve.json")
    assert record["config"]["beta"] == 4.0
    row = record["rows"][0]
    case = verify.manufactured_case(4.0)
    mesh = build_unit_square_mesh(32)
    direct = verify.solve_global(mesh, 4.0, case.load)
    l2, hdiv = fem.error_norms(mesh, direct, case.u, case.div_u)
    assert row["l2_error"] == pytest.approx(l2, rel=0.01)
    assert row["hdiv_error"] == pytest.approx(hdiv, rel=0.01)
    assert l2_distance(mesh, reports[0].u_h, direct) < 1e-4


# Text that argparse cannot read as its flag's number type.
NOT_A_NUMBER = ("nope", "half", "2.5", "two")


def _refusal(argv, capsys, tmp_path, monkeypatch) -> str:
    """Run `argv`, with `--out DIR` on the commands that write files, and
    check that it is refused before any solve: exit status 2, nothing on
    stdout and no DIR.  Text in
    NOT_A_NUMBER must be an argparse usage error (SystemExit), anything
    else a returned status.  -> stderr."""

    def no_solve(*args):
        raise AssertionError("a refused command reached a solve")

    monkeypatch.setattr(iteration, "build_problem", no_solve)
    monkeypatch.setattr(cli.spectrum, "assemble_Q", no_solve)
    out = tmp_path / "out"
    if argv[0] != "spectrum":
        argv = [*argv, "--out", str(out)]
    usage = any(text in argv for text in NOT_A_NUMBER)
    if usage:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    else:
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert ("usage:" in captured.err) == usage
    return captured.err


SOLVE = ["solve", "--n", "2", "--ratio", "2"]
COMMANDS = {
    "solve": SOLVE,
    "spectrum": ["spectrum", "--n", "2", "--ratio", "2"],
    "run table1": ["run", "--experiment", "table1"],
    "run table2": ["run", "--experiment", "table2"],
    "run spectrum": ["run", "--experiment", "spectrum"],
}
# (command, flag, value, the field that the refusal names)
REFUSALS = [
    *[(cmd, "--tol", v, "tol") for cmd in ("solve", "run table1")
      for v in ("nan", "inf", "0", "-1")],
    *[("solve", "--beta", v, "beta") for v in ("nan", "inf", "0", "-1")],
    *[(cmd, "--theta", v, "theta") for cmd in ("solve", "spectrum")
      for v in ("0", "2", "nan")],
    *[(cmd, flag, "0", name) for cmd in ("solve", "spectrum")
      for flag, name in (("--n", "N"), ("--ratio", "ratio"))],
    *[(cmd, "--max-iter", "0", "max_iter") for cmd in ("solve", "run table1")],
    *[(cmd, "--gamma", v, "gamma_rule") for cmd in ("solve", "spectrum", "run spectrum")
      for v in ("-1", "nan")],
    *[(cmd, "--max-n", "0", "--max-n") for cmd in ("run table1", "run spectrum")],
    ("run table2", "--max-n", "2", "--max-n"),
]


@pytest.mark.parametrize("cmd,flag,value,name", [
    pytest.param(cmd, flag, value, name, id=f"{cmd} {flag} {value}")
    for cmd, flag, value, name in REFUSALS
])
def test_main_refuses_out_of_range_values(cmd, flag, value, name, capsys, tmp_path,
                                          monkeypatch):
    """Every range is IterationConfig's, and --max-n's is the grid's: the
    parser only reads the number, and the command refuses it, naming the
    field, before any solve or output.  --max-n is also refused on
    table2, whose rows are not N."""
    err = _refusal([*COMMANDS[cmd], flag, value], capsys, tmp_path, monkeypatch)
    assert err.startswith(f"error: {name} ")


# The three tests below keep the cases and ids of the parser's former range
# checks: each value is now refused by the command, and text that is not a
# number still by the parser.
@pytest.mark.parametrize("gamma", ["nope", "-1", "0", "nan", "inf"])
def test_main_rejects_bad_gamma(gamma, capsys, tmp_path, monkeypatch):
    err = _refusal([*SOLVE, "--gamma", gamma], capsys, tmp_path, monkeypatch)
    assert ("--gamma" if gamma in NOT_A_NUMBER else "error: gamma_rule ") in err


@pytest.mark.parametrize("value", ["nope", "0", "-1", "nan", "inf"])
@pytest.mark.parametrize("option", ["--tol", "--beta"])
def test_main_rejects_bad_tol_and_beta(option, value, capsys, tmp_path, monkeypatch):
    """`--tol nan` would otherwise run all max_iter steps."""
    err = _refusal([*SOLVE, option, value], capsys, tmp_path, monkeypatch)
    assert (option if value in NOT_A_NUMBER else
            f"error: {option[2:]} must be positive and finite") in err


@pytest.mark.parametrize("argv,expected", [
    (["solve", "--n", "2", "--ratio", "2", "--theta", "2"], "(0, 1]"),
    (["solve", "--n", "2", "--ratio", "2", "--theta", "0"], "(0, 1]"),
    (["solve", "--n", "2", "--ratio", "2", "--theta", "nan"], "(0, 1]"),
    (["solve", "--n", "2", "--ratio", "2", "--theta", "half"], "(0, 1]"),
    (["spectrum", "--n", "2", "--ratio", "2", "--theta", "nan"], "(0, 1]"),
    (["spectrum", "--n", "2", "--ratio", "2", "--theta", "-1"], "(0, 1]"),
    (["solve", "--n", "0", "--ratio", "2"], "positive integer"),
    (["solve", "--n", "2", "--ratio", "-2"], "positive integer"),
    (["solve", "--n", "2.5", "--ratio", "2"], "positive integer"),
    (["spectrum", "--n", "2", "--ratio", "0"], "positive integer"),
    (["solve", "--n", "2", "--ratio", "2", "--max-iter", "0"], "positive integer"),
    (["run", "--experiment", "table1", "--max-iter", "0"], "positive integer"),
    (["run", "--experiment", "table1", "--max-n", "0"], "positive integer"),
    (["run", "--experiment", "table1", "--max-n", "-5"], "positive integer"),
    (["run", "--experiment", "spectrum", "--max-n", "two"], "positive integer"),
])
def test_main_rejects_bad_theta_sizes_and_max_iter(argv, expected, capsys, tmp_path,
                                                   monkeypatch):
    err = _refusal(argv, capsys, tmp_path, monkeypatch)
    assert ("invalid" if "usage:" in err else expected) in err


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_main_requires_command():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
