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


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"),
                     key=lambda p: int(p.stem.split("_")[1]))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_file_is_well_formed(path):
    # a performance claim counts only with a well-formed BENCH_<n>.json:
    # its number, and for every workload paired runs of the same seeds on
    # both sides, each end-to-end metric on both, and the pair counts
    record = json.loads(path.read_text())
    assert record["number"] == int(path.stem.split("_")[1])
    metrics = [m["name"] for m in BENCH["end_to_end"]]
    for wl in (w["name"] for w in BENCH["workloads"]):
        entry = record["workloads"][wl]
        parent, change = entry["parent"], entry["change"]
        assert parent["seeds"] and parent["seeds"] == change["seeds"], wl
        n = len(parent["seeds"])
        for side in (parent, change):
            for m in metrics:
                assert len(side[m]["values"]) == n, (wl, m)
                assert side[m]["q1"] <= side[m]["median"] <= side[m]["q3"]
        for m in metrics:
            pairs = entry["pairs"][m]
            assert pairs["n"] == n, (wl, m)
            assert 0 <= pairs["change_won"] <= n, (wl, m)


PAIRS_TOOL = ROOT / "tools" / "bench_pairs.py"
# a stand-in for perfbench/run.py: logs its side and arguments to ../log
# and writes the result file run.py would, with a run_s set by the side
STUB_RUN = '''
import argparse, json, os, pathlib
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
args = ap.parse_args()
side = pathlib.Path.cwd().name
with open(pathlib.Path.cwd().parent / "log", "a") as fh:
    fh.write(f"{side} {args.seed} {args.seconds} {args.trace}\\n")
names = %r if args.trace == "1" else ("run_s", "setup_s", "peak_rss_mb",
                                      "ok_frac")
value = 1.0 if side == "parent" else 0.5
metrics = {n: {"value": value, "unit": "x"} for n in names}
os.makedirs(".perfbench-out", exist_ok=True)
out = f".perfbench-out/result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
with open(out, "w") as fh:
    json.dump({"machine": {"nproc": 2, "cpu": "stub"}, "run_s": [value],
               "setup_s": [0.1],
               "result": {"correct": True, "attempted": 1, "failed": 0,
                          "metrics": metrics}}, fh)
''' % (LAYERS,)


def _load_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stub_checkouts(tmp_path):
    for side in ("parent", "change"):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(STUB_RUN)
    return tmp_path / "parent", tmp_path / "change"


def test_bench_pairs_alternates_and_records_a_manifest(tmp_path,
                                                       monkeypatch):
    pairs, record = _load_pairs(), _load()
    parent, change = _stub_checkouts(tmp_path)
    out = tmp_path / "pairs"
    assert pairs.main([str(parent), str(change), "--workload",
                       "tstar-single", "--seeds", "5-7", "--seconds", "2",
                       "--trace-seed", "9", "--out", str(out)]) == 0
    log = (tmp_path / "log").read_text().split("\n")[:-1]
    assert log == ["parent 5 2.0 0", "change 5 2.0 0",
                   "change 6 2.0 0", "parent 6 2.0 0",
                   "parent 7 2.0 0", "change 7 2.0 0",
                   "parent 9 2.0 1", "change 9 2.0 1"]
    manifest = json.loads(
        (out / "change" / "pairs-tstar-single.json").read_text())
    assert manifest == {"workload": "tstar-single", "seconds": 2.0,
                        "seeds": [5, 6, 7],
                        "order": [{"seed": 5, "first": "parent"},
                                  {"seed": 6, "first": "change"},
                                  {"seed": 7, "first": "parent"}],
                        "trace_seed": 9}
    assert len(list((out / "parent").glob("result-*.json"))) == 4

    monkeypatch.chdir(tmp_path)
    assert record.main(["--number", "9", "--parent", str(out / "parent"),
                        "--change", str(out / "change")]) == 0
    wl = json.loads((tmp_path / "BENCH_9.json").read_text())[
        "workloads"]["tstar-single"]
    assert wl["runs"] == {"parent": manifest, "change": manifest}
    assert wl["pairs"]["run_s"] == {"n": 3, "change_won": 3,
                                    "better": "lower"}
    assert wl["layers"]["change"]["seed"] == 9


def test_bench_record_refuses_sides_run_for_other_seconds(tmp_path, capsys,
                                                          monkeypatch):
    pairs, record = _load_pairs(), _load()
    parent, change = _stub_checkouts(tmp_path)
    for seconds, out in (("2", "a"), ("3", "b")):
        assert pairs.main([str(parent), str(change), "--workload",
                           "solve-oracle", "--seeds", "1-2", "--seconds",
                           seconds, "--out", str(tmp_path / out)]) == 0
    monkeypatch.chdir(tmp_path)
    args = ["--number", "9", "--parent", str(tmp_path / "a" / "parent")]
    assert record.main(args + ["--change",
                               str(tmp_path / "b" / "change")]) == 2
    err = capsys.readouterr().err
    assert "solve-oracle" in err and "seconds differ" in err
    (tmp_path / "b" / "change" / "pairs-solve-oracle.json").unlink()
    assert record.main(args + ["--change",
                               str(tmp_path / "b" / "change")]) == 2
    assert "only one side" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_9.json").exists()
    assert record.main(args + ["--change",
                               str(tmp_path / "a" / "change")]) == 0
