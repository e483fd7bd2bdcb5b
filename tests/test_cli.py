"""Command line wrapper: formatting, config handling, exit codes."""

import collections
import csv
import json
import math

import numpy as np
import pytest

from enstrophy_lab import asymptotics, cli, exact_solver, harness
from enstrophy_lab.quadrature import QuadratureError


def test_fmt_fixed_width():
    assert cli.fmt(1.0 / 3.0) == "0.33333333333333331"
    assert cli.fmt(-0.0) == "0"
    assert cli.fmt(float("nan")) == "nan"
    assert cli.fmt(math.inf) == "inf"
    assert cli.fmt(True) == "true"
    assert cli.fmt(np.int64(7)) == "7"


def test_json_text_order_and_floats():
    obj = {"b": 1.0 / 3.0, "a": [1, -0.0], "s": 'x"y', "none": None,
           "big": math.inf}
    text = cli.json_text(obj)
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')  # insertion order kept
    assert "0.33333333333333331" in text
    back = json.loads(text)
    assert back["a"] == [1, 0]
    assert back["s"] == 'x"y'
    assert back["none"] is None
    assert back["big"] == "inf"   # marker string keeps the file valid JSON


def test_json_text_escapes_keys_and_strings():
    obj = {'say "hi"': "a\tb", "lines": "a\nb\\c\x01", "pi": "\u03c0"}
    text = cli.json_text(obj)
    assert json.loads(text) == obj
    assert '"say \\"hi\\"": "a\\tb"' in text
    assert '"\u03c0"' in text    # non-ASCII is written as itself


def test_json_text_writes_records_as_objects():
    fit = harness.ScalingFit(exponent=1.5, log_prefactor=-0.25,
                             r_squared=1.0, k_list=(20.0, 40.0), excluded=())
    assert cli.json_text(fit) == cli.json_text(fit._asdict())
    assert cli.json_text([fit]) == cli.json_text([fit._asdict()])
    assert json.loads(cli.json_text(fit))["k_list"] == [20.0, 40.0]


def test_csv_text():
    text = cli.csv_text(("a", "b"), [(1.0, 1.0 / 3.0)])
    assert text == "a,b\n1,0.33333333333333331\n"
    # one type per column, and every cell is what fmt writes for its value:
    # -0 as 0, nan and inf as text, ints as ints, str as itself
    pools = [[0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              1.0 / 3.0],
             [np.float64(-0.0), np.float64(1.0 / 3.0)],
             [np.float32(-0.0), np.float32(0.1)],
             [3, -7, 10 ** 30],
             [np.int64(-4), np.int64(0)],
             ["sine"]]
    rng = np.random.default_rng(3)
    rows = list(zip(*[[pool[i] for i in rng.integers(0, len(pool), 400)]
                      for pool in pools]))

    def want(header, rows):
        return "".join(",".join(map(cli.fmt, row)) + "\n"
                       for row in [header] + list(rows))

    assert cli.csv_text(tuple("abcdef"), rows) == want(tuple("abcdef"), rows)
    # a float array, as a list of float or np.float64 tuples or as itself
    floats = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]
    table = np.concatenate([
        np.array(floats)[rng.integers(0, len(floats), (100, 3))],
        rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300,
                                                            (50, 3))])
    text = want(("a", "b", "c"), table.tolist())
    for form in (table, list(map(tuple, table)), table.tolist()):
        assert cli.csv_text(("a", "b", "c"), form) == text
    assert cli.csv_text(("a", "b", "c"), table[:0]) == "a,b,c\n"
    assert cli.csv_text(("a", "b", "c"), []) == "a,b,c\n"
    # a column that mixes types, or holds a type with no format, fails
    # rather than printing as something else
    for bad in ([(1.0,), ("sine",)], [(3,), (1.0,)], [(1.0, True)],
                [(1.0, np.bool_(False))], [(1.0, None)],
                np.array([[True, False]])):
        with pytest.raises(TypeError):
            cli.csv_text(("a", "b"), bad)
    # ragged rows fail rather than dropping cells
    for ragged in ([(1.0, 2.0), (3.0,)], [(1.0,), (2.0, 3.0)]):
        with pytest.raises(ValueError):
            cli.csv_text(("a", "b"), ragged)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as ex:
        cli.main(["--help"])
    assert ex.value.code == 0


def test_validate_mode(tmp_path):
    rc = cli.main(["--mode", "validate", "--out-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "validate.json").read_text())
    assert data["ok"] is True
    assert data["config"]["mode"] == "validate"


def test_solve_time_zero_echoes_initial_data(tmp_path):
    rc = cli.main(["--mode", "solve", "--k", "3", "--t", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    table = np.loadtxt(tmp_path / "snapshot_000.csv", delimiter=",",
                       skiprows=1)
    x, u = table[:, 0], table[:, 1]
    assert np.max(np.abs(u - 3.0 * (-2.0 * np.pi * np.sin(2 * np.pi * x)))) \
        < 1e-12
    assert (tmp_path / "diagnostics.csv").exists()
    assert (tmp_path / "solve.json").exists()


def test_oracle_measures_the_time_zero_row(tmp_path):
    # --oracle compares the t = 0 row whether or not a later time is asked
    # for: alone it must read what it reads beside t = 0.001, not 0
    rows = []
    for t in ("0", "0,0.001"):
        out = tmp_path / t
        assert cli.main(["--mode", "solve", "--oracle", "--k", "5", "--t", t,
                         "--out-dir", str(out)]) == 0
        with open(out / "diagnostics.csv", newline="") as fh:
            rows.append(next(csv.DictReader(fh)))
    assert rows[0]["t"] == rows[1]["t"]
    assert float(rows[1]["oracle_sup_diff"]) > 0.0
    assert rows[0]["oracle_sup_diff"] == rows[1]["oracle_sup_diff"]


def test_asym_mode_writes_its_error_table(tmp_path):
    out = tmp_path / "asym"
    args = ["--mode", "asym", "--k", "20", "--out-dir", str(out)]
    assert cli.main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == ["asym_error.csv", "predictions.json"]
    with open(out / "asym_error.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert collections.Counter(row["regime"] for row in rows) == {
        "single": 63, "post-fold": 63}
    for row in rows:
        err = float(row["abs_error"])
        assert math.isfinite(err)
        assert err == abs(float(row["u_exact"]) - float(row["u_asym"]))
    summary = json.loads((out / "predictions.json").read_text())
    assert set(summary["provenance"]) == {
        "predictions", "bifurcation", "initial.E0", "initial.K0",
        "asym_error.csv:u_exact", "asym_error.csv:u_asym"}
    # a second run writes the same bytes
    for p in out.iterdir():
        p.unlink()
    assert cli.main(args) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@pytest.mark.parametrize("argv", [
    [],                                          # no mode at all
    ["--mode", "fly"],                           # unknown mode
    ["--mode", "solve", "--t", "0.1"],           # solve without k
    ["--mode", "solve", "--k", "2"],             # solve without times
    ["--mode", "sweep", "--k-list", "5,10,20"],  # too few k
    ["--mode", "validate", "--grid-size", "32"],  # power of two below 64
    ["--mode", "validate", "--grid-size", "100"],  # not a power of two
    ["--mode", "sweep", "--k-list", "0,1,2,4"],  # k = 0
    ["--mode", "sweep", "--k-list=-80,-40,-20,-10"],  # negative k
    ["--mode", "sweep", "--k-list", "40,20,80,160"],  # not increasing
    ["--mode", "sweep", "--k-list", "20,40,70,160"],  # not geometric
])
def test_config_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    ini.write_text("[run]\nmode = validate\nout_dir = %s\n"
                   "grid_size = 128\n" % dir_a)
    rc = cli.main(["--config", str(ini), "--out-dir", str(dir_b)])
    assert rc == 0
    assert not dir_a.exists()                    # flag beat the file
    data = json.loads((dir_b / "validate.json").read_text())
    assert data["config"]["grid_size"] == 128


def test_config_file_converts_like_flags(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nmode = solve\nprofile = 1,0.1\nk = 5\n"
                   "k_list = 5, 10, 20, 40\nt = 0,0.001\nout_dir = %s\n"
                   "grid_size = 128\noracle = yes\n"
                   % tmp_path)
    from_file = cli.build_config(["--config", str(ini)]).echo()
    from_flags = cli.build_config([
        "--mode", "solve", "--profile", "1,0.1", "--k", "5",
        "--k-list", "5,10,20,40", "--t", "0,0.001", "--out-dir",
        str(tmp_path), "--grid-size", "128", "--oracle"]).echo()
    assert from_file == from_flags == {
        "mode": "solve", "profile": "1,0.1", "k": 5.0,
        "k_list": (5.0, 10.0, 20.0, 40.0), "t": (0.0, 0.001),
        "out_dir": str(tmp_path), "grid_size": 128, "oracle": True}
    assert type(from_file["grid_size"]) is int
    # a bad value names its key, from the file as from a flag
    ini.write_text("[run]\nmode = validate\ngrid_size = 12x\n")
    with pytest.raises(cli.ConfigError, match="grid_size"):
        cli.build_config(["--config", str(ini)])
    with pytest.raises(cli.ConfigError, match="k: .*'abc'"):
        cli.build_config(["--mode", "validate", "--k", "abc"])


@pytest.mark.parametrize("key, argv, ini", [
    ("k", ["--mode", "solve", "--k", "inf", "--t", "0"],
     "mode = solve\nk = inf\nt = 0\n"),
    ("t", ["--mode", "solve", "--k", "2", "--t", "nan"],
     "mode = solve\nk = 2\nt = 0, nan\n"),
    ("k_list", ["--mode", "sweep", "--k-list", "5,10,20,inf"],
     "mode = sweep\nk_list = 5, 10, 20, -inf\n"),
])
def test_non_finite_numbers_exit_two(key, argv, ini, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(out)]) == 2
    assert f"config error: {key}: must be finite" in capsys.readouterr().err
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{ini}out_dir = {out}\n")
    assert cli.main(["--config", str(cfg)]) == 2
    assert f"config error: {key}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_file_keys(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nmode = validate\nspeed = 3\n")
    assert cli.main(["--config", str(ini)]) == 2
    ini.write_text("[other]\nmode = validate\n")
    assert cli.main(["--config", str(ini)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args, ini, message", [
    (["--mode", "solve", "--k", "2", "--t=-1"], None,
     "times must be >= 0"),
    (["--mode", "sweep"], None, "mode 'sweep' needs --k-list"),
    (["--config", "{ini}"], "[run]\nmode = bogus\n",
     "mode must be one of"),
    (["--config", "{ini}"], "[run]\nmode = solve\nk = 2\nt = 0\n"
     "oracle = maybe\n", "oracle: expected a boolean"),
    (["--config", "{ini}"], None, "cannot read config file"),
    (["--config", "{ini}"], "mode = validate\n", "malformed config file"),
])
def test_config_error_prints_its_cause_and_writes_nothing(
        args, ini, message, tmp_path, capsys):
    # ini None with --config is a file that does not exist
    path, out = tmp_path / "run.ini", tmp_path / "out"
    if ini is not None:
        path.write_text(ini)
    argv = [a.format(ini=path) for a in args] + ["--out-dir", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_config_file_oracle_off_runs_without_the_oracle(tmp_path, capsys):
    ini, out = tmp_path / "run.ini", tmp_path / "out"
    ini.write_text(f"[run]\nmode = solve\nk = 3\nt = 0\noracle = off\n"
                   f"out_dir = {out}\n")
    assert cli.main(["--config", str(ini)]) == 0
    assert '"oracle": false' in (out / "solve.json").read_text()
    with open(out / "diagnostics.csv", newline="") as fh:
        assert "oracle_sup_diff" not in next(csv.reader(fh))


def test_removed_quad_tol_exits_two_naming_it(tmp_path, capsys):
    # the y-quadrature tolerance is the fixed exact_solver.QUAD_TOL
    out = tmp_path / "out"
    assert cli.main(["--mode", "validate", "--quad-tol", "1e-9",
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--quad-tol" in err
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nmode = validate\nout_dir = {out}\n"
                   "quad_tol = 1e-9\n")
    assert cli.main(["--config", str(ini)]) == 2
    assert "config error: unknown config key: quad_tol" in \
        capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_writes_error_json(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise QuadratureError("synthetic failure for the error path")
    monkeypatch.setattr(exact_solver, "snapshot", boom)
    rc = cli.main(["--mode", "solve", "--k", "2", "--t", "0.001",
                   "--out-dir", str(tmp_path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    # written like every other artifact
    assert captured.out.endswith(f"wrote {tmp_path / 'error.json'}\n")
    report = json.loads((tmp_path / "error.json").read_text())
    assert report["error"] == "QuadratureError"
    assert "synthetic" in report["message"]


def test_multiline_error_message_round_trips(tmp_path, capsys):
    # at k = 2 R has no sign change in the search's bracket, and the error
    # names that with its (t, R) table, one line per row
    rc = cli.main(["--mode", "sweep", "--k-list", "2,4,8,16",
                   "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    report = json.loads((tmp_path / "error.json").read_text())
    assert report["error"] == "RuntimeError"
    assert "\n  t=" in report["message"]
    assert err == f"numerical failure: {report['message']}\n"


def test_sweep_csv_contract(tmp_path, monkeypatch, sine):
    # canned sweep result: the CSV/JSON layer should not need real runs
    ks = (5.0, 10.0, 20.0, 40.0)
    results = []
    for k in ks:
        pred = asymptotics.predict(sine, k)
        results.append(harness.MaxSearchResult(
            k=k, T_star_measured=pred.T_star,
            E_max_measured=pred.E_max_leading,
            K_at_max=pred.K_at_max_leading,
            K_drop_measured=pred.K_drop_leading,
            n_evaluations=1, E0=4.0 * math.pi ** 4 * k * k,
            K0=math.pi ** 2 * k * k, R_at_max=0.0))
    fit = harness.ScalingFit(exponent=-0.5, log_prefactor=0.0,
                             r_squared=1.0, k_list=ks, excluded=())
    canned = harness.SweepResult(
        results=tuple(results),
        fits={"T_star": fit, "E_max": fit, "K_drop": fit})
    monkeypatch.setattr(harness, "sweep", lambda *a, **kw: canned)

    rc = cli.main(["--mode", "sweep", "--k-list", "5,10,20,40",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("k,E0,K0,T_star,E_max,K_at_max,K_drop,"
                        "ratio_T_star,ratio_E_max,ratio_K_drop,"
                        "bound_ratio,n_evaluations")
    assert len(lines) == 5
    fits = json.loads((tmp_path / "fits.json").read_text())
    assert set(fits) == {"config", "fits", "extrapolated_ratios",
                         "provenance"}
    # measured == predicted here, so every ratio is exactly 1
    assert fits["extrapolated_ratios"]["ratio_E_max"] == 1.0


@pytest.mark.parametrize("k_list", ["20,20,20,20", "5,5,5,5"])
def test_constant_k_list_exits_two_before_any_search(
        k_list, tmp_path, monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("a T* search ran")
    monkeypatch.setattr(harness, "find_enstrophy_max", no_search)
    out = tmp_path / "out"
    rc = cli.main(["--mode", "sweep", "--k-list", k_list,
                   "--out-dir", str(out)])
    assert rc == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["1,nan", "nan", "1,-inf"])
def test_non_finite_profile_coefficient_exits_two(spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["--mode", "validate", "--profile", spec,
                     "--out-dir", str(out)]) == 2
    assert "non-finite coefficient" in capsys.readouterr().err
    assert not out.exists()
