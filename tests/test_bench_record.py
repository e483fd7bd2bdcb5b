"""tools/bench_record.py merges perfbench result files of two checkouts."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"
# every per-layer metric BENCHMARK.json names; the tool records them all
LAYERS = tuple(m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"])
MACHINE = {"nproc": 2, "cpu": "test", "threads": 1}


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(directory, workload, seed, trace, metrics, lists=3,
           machine=MACHINE):
    directory.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 6, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    data = {"machine": machine, "run_s": [1.0] * lists, "setup_s": [0.1] * 9,
            "result": result}
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (directory / name).write_text(json.dumps(data))


def test_bench_record_merges_both_sides(tmp_path, monkeypatch):
    tool = _load()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, p_run, c_run in ((1, 2.0, 1.5), (2, 2.2, 2.3), (3, 2.4, 1.4)):
        for side, run in ((parent, p_run), (change, c_run)):
            _write(side, "tstar-single", seed, 0,
                   {"run_s": run, "setup_s": 0.2, "peak_rss_mb": 80.0,
                    "ok_frac": 1.0})
    layers = {name: 7.0 for name in LAYERS}
    _write(parent, "tstar-single", 7, 1, layers)
    _write(change, "tstar-single", 7, 1, dict(layers,
                                              **{"quadrature.kernel_s": 5.0}))
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--number", "9", "--parent", str(parent),
                      "--change", str(change)]) == 0
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    wl = record["workloads"]["tstar-single"]
    assert wl["parent"]["run_s"]["median"] == 2.2
    assert wl["change"]["run_s"]["median"] == 1.5
    assert wl["change"]["run_s"]["values"] == [1.5, 2.3, 1.4]
    assert wl["change"]["lists"] == 9 and wl["change"]["seeds"] == [1, 2, 3]
    assert wl["pairs"]["run_s"] == {"n": 3, "change_won": 2,
                                    "better": "lower"}
    assert wl["pairs"]["ok_frac"]["change_won"] == 0     # ties
    assert wl["layers"]["change"]["quadrature.kernel_s"] == 5.0
    assert wl["layers"]["parent"]["seed"] == 7
    assert record["machine"]["change"] == [MACHINE]
    assert "sweep-cli" in record["workloads"]      # no runs: layers only
    assert record["workloads"]["sweep-cli"]["layers"]["parent"] is None


E2E = {"run_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 80.0, "ok_frac": 1.0}


def test_bench_record_refuses_unpaired_seeds(tmp_path, capsys,
                                            monkeypatch):
    tool = _load()
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write(parent, "solve-oracle", seed, 0, E2E)
    for seed in (1, 3):
        _write(change, "solve-oracle", seed, 0, E2E)
    assert tool.main(["--number", "9", "--parent", str(parent),
                      "--change", str(change)]) == 2
    err = capsys.readouterr().err
    assert "solve-oracle" in err and "seeds differ" in err
    assert not (tmp_path / "BENCH_9.json").exists()


def test_bench_record_refuses_other_machine(tmp_path, capsys, monkeypatch):
    tool = _load()
    monkeypatch.chdir(tmp_path)
    layers = {name: 7.0 for name in LAYERS}
    parent, change = tmp_path / "parent", tmp_path / "change"
    for key, other in (("cpu", "other"), ("nproc", 4), ("python", "3.12.0"),
                       ("numpy", "1.26.4")):
        for side in (parent, change):
            _write(side, "sweep-cli", 1, 0, E2E)
        _write(change, "sweep-cli", 2, 1, layers,
               machine=dict(MACHINE, **{key: other}))
        assert tool.main(["--number", "9", "--parent", str(parent),
                          "--change", str(change)]) == 2, key
        err = capsys.readouterr().err
        assert "sweep-cli" in err and "machines differ" in err, key
        (change / "result-sweep-cli-seed2-trace1.json").unlink()
    # threads and blas may differ; the same files then merge
    _write(change, "sweep-cli", 2, 1, layers,
           machine=dict(MACHINE, threads=2, blas="other"))
    _write(parent, "sweep-cli", 2, 1, layers)
    assert tool.main(["--number", "9", "--parent", str(parent),
                      "--change", str(change)]) == 0
    assert (tmp_path / "BENCH_9.json").exists()


# layer -> (workload, parent value, change value)
LAYER_CASES = {
    "quadrature.kernel_ns_per_point": ("tstar-single", 120.0, 80.0),
    "harness.search_s": ("tstar-single", 1.0, 0.64),
    "rootfind.calls": ("tstar-single", 115, 70),
    "rootfind.brackets": ("tstar-single", 26690, 12000),
    "rootfind.s": ("tstar-single", 0.089, 0.033),
    "spectral_oracle.us_per_step": ("solve-oracle", 290.0, 260.0),
}


@pytest.mark.parametrize("layer", LAYER_CASES)
def test_bench_record_reports_layer(tmp_path, monkeypatch, layer):
    workload, before, after = LAYER_CASES[layer]
    tool = _load()
    assert layer in LAYERS
    monkeypatch.chdir(tmp_path)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, value in ((parent, before), (change, after)):
        _write(side, workload, 1, 0, E2E)
        _write(side, workload, 7, 1,
               {name: (value if name == layer else 1.0)
                for name in LAYERS})
    assert tool.main(["--number", "9", "--parent", str(parent),
                      "--change", str(change)]) == 0
    layers = json.loads((tmp_path / "BENCH_9.json").read_text())[
        "workloads"][workload]["layers"]
    assert layers["parent"][layer] == before
    assert layers["change"][layer] == after
