"""tools/artifact_diff.py compares the CLI artifacts of two runs."""

import importlib.util
import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_diff.py"
CSV = "k,T_star,label\n20,0.001,sine\n40,0.0005,sine\n"


def _load():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tree(root, out_dir, csv_text=CSV, exponent=-0.5, extra=None):
    """One sweep-like run: sweep.csv and fits.json under root/sweep."""
    run = root / "sweep"
    run.mkdir(parents=True)
    (run / "sweep.csv").write_text(csv_text)
    fits = {"config": {"mode": "sweep", "out_dir": out_dir},
            "fits": {"T_star": {"exponent": exponent, "k_list": [20, 40]}}}
    (run / "fits.json").write_text(json.dumps(fits))
    if extra:
        (run / extra).write_text("{}")
    return root


def test_identical_apart_from_out_dir_exits_zero(tmp_path, capsys):
    tool = _load()
    parent = _tree(tmp_path / "p", "/a/parent/sweep")
    change = _tree(tmp_path / "c", "/b/change/sweep")
    assert tool.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "sweep/fits.json: identical" in out
    assert "sweep/sweep.csv: identical" in out


def test_changed_values_exit_one_naming_column_and_leaf(tmp_path, capsys):
    tool = _load()
    parent = _tree(tmp_path / "p", "x")
    change = _tree(tmp_path / "c", "x", exponent=-0.6,
                   csv_text=CSV.replace("0.0005,sine", "0.0004,SINE"))
    assert tool.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    # |c - p| / max(|p|, |c|)
    assert "fits.T_star.exponent: 0.167" in out
    assert "T_star: 0.2" in out
    assert "label: text differs" in out
    assert "  k:" not in out


def test_added_config_key_is_a_value_change(tmp_path, capsys):
    tool = _load()
    parent = _tree(tmp_path / "p", "x")
    change = _tree(tmp_path / "c", "x")
    fits = change / "sweep" / "fits.json"
    fits.write_text(fits.read_text().replace('"mode"', '"quad_tol": 1, "mode"'))
    assert tool.main([str(parent), str(change)]) == 1
    assert "config.quad_tol: only in change" in capsys.readouterr().out


def test_file_set_mismatch_exits_two(tmp_path, capsys):
    tool = _load()
    parent = _tree(tmp_path / "p", "x")
    change = _tree(tmp_path / "c", "x", extra="error.json")
    assert tool.main([str(parent), str(change)]) == 2
    assert "only in change: sweep/error.json" in capsys.readouterr().err


def test_unparsable_file_exits_two(tmp_path, capsys):
    tool = _load()
    parent = _tree(tmp_path / "p", "x")
    change = _tree(tmp_path / "c", "x")
    (change / "sweep" / "fits.json").write_text("{not json")
    assert tool.main([str(parent), str(change)]) == 2
    err = capsys.readouterr().err
    assert "sweep/fits.json: does not parse" in err


def test_round_off_level_values_read_against_the_floor(tmp_path, capsys):
    # tail_fraction near 2e-32 moved by 5e-33 read 0.22 without a floor;
    # against FLOOR = 1e-12 it reads 5e-21, while a move of a value above
    # the floor still reads relative to the value
    tool = _load()
    text = "t,tail_fraction,oracle_sup_diff\n0,{},{}\n"
    parent = _tree(tmp_path / "p", "x",
                   csv_text=text.format("2.2e-32", "2.0e-10"))
    change = _tree(tmp_path / "c", "x",
                   csv_text=text.format("1.7e-32", "1.0e-10"))
    assert tool.FLOOR == 1e-12
    assert math.isclose(tool.rel_change(2.2e-32, 1.7e-32), 5e-21)
    assert math.isclose(tool.rel_change(1e-13, -1e-13), 0.2)
    assert tool.rel_change(2e-10, 1e-10) == 0.5
    assert tool.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "tail_fraction: 5e-21" in out
    assert "oracle_sup_diff: 0.5" in out
