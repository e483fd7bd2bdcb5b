"""tools/bench_pairs.py runs perfbench in two checkouts as alternating pairs
and records them in one BENCH_<N>.json."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
E2E = tuple(m["name"] for m in BENCH["end_to_end"])
# every per-layer metric BENCHMARK.json names; the tool records them all
LAYERS = tuple(m["name"] for m in BENCH["per_layer"])
MACHINE = {"nproc": 2, "cpu": "stub", "threads": 1}

# A stand-in for perfbench/run.py.  It logs its side and arguments to
# ../log and writes the result file run.py would.  The checkout's plan.json
# sets its figures: "value" for every metric, overridden per run
# ("<workload> <seed> <trace>") by "metrics", and per run the "machine"
# block and an "exit" status that stops it before it writes a result.
STUB_RUN = '''
import argparse, json, os, pathlib, sys
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
args = ap.parse_args()
here = pathlib.Path.cwd()
with open(here.parent / "log", "a") as fh:
    fh.write(f"{here.name} {args.workload} {args.seed} {args.seconds} "
             f"{args.trace}\\n")
plan = json.loads((here / "plan.json").read_text())
run = f"{args.workload} {args.seed} {args.trace}"
if run in plan.get("exit", {}):
    sys.exit(plan["exit"][run])
names = %r if args.trace == "1" else %r
metrics = {n: {"value": plan["value"], "unit": "x"} for n in names}
for n, v in plan.get("metrics", {}).get(run, {}).items():
    metrics[n]["value"] = v
os.makedirs(".perfbench-out", exist_ok=True)
name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
with open(os.path.join(".perfbench-out", name), "w") as fh:
    json.dump({"machine": plan.get("machine", {}).get(run, %r),
               "run_s": [1.0] * 3, "setup_s": [0.1] * 9,
               "result": {"correct": True, "attempted": 6, "failed": 0,
                          "metrics": metrics}}, fh)
''' % (LAYERS, E2E, MACHINE)


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _checkouts(tmp_path, parent_plan, change_plan):
    """Stub parent and change checkouts under tmp_path with these plans."""
    for side, plan in (("parent", parent_plan), ("change", change_plan)):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True, exist_ok=True)
        (bench / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "plan.json").write_text(json.dumps(plan))
    return str(tmp_path / "parent"), str(tmp_path / "change")


def _log(tmp_path):
    return (tmp_path / "log").read_text().split("\n")[:-1]


def _check_well_formed(record, number):
    # its number, and for every workload paired runs of the same seeds on
    # both sides, each end-to-end metric on both, and the pair counts
    assert record["number"] == number
    for wl in WORKLOADS:
        entry = record["workloads"][wl]
        parent, change = entry["parent"], entry["change"]
        assert parent["seeds"] and parent["seeds"] == change["seeds"], wl
        n = len(parent["seeds"])
        for side in (parent, change):
            for m in E2E:
                assert len(side[m]["values"]) == n, (wl, m)
                assert side[m]["q1"] <= side[m]["median"] <= side[m]["q3"]
        for m in E2E:
            pairs = entry["pairs"][m]
            assert pairs["n"] == n, (wl, m)
            assert 0 <= pairs["change_won"] <= n, (wl, m)


def test_bench_pairs_alternates_and_records_the_runs(tmp_path, monkeypatch):
    parent, change = _checkouts(tmp_path, {"value": 1.0}, {"value": 0.5})
    monkeypatch.chdir(tmp_path)
    assert _load().main([parent, change, "--number", "9", "--seeds", "5-7",
                         "--seconds", "2", "--trace-seed", "9"]) == 0
    want = []
    for wl in WORKLOADS:
        want += [f"parent {wl} 5 2.0 0", f"change {wl} 5 2.0 0",
                 f"change {wl} 6 2.0 0", f"parent {wl} 6 2.0 0",
                 f"parent {wl} 7 2.0 0", f"change {wl} 7 2.0 0",
                 f"parent {wl} 9 2.0 1", f"change {wl} 9 2.0 1"]
    assert _log(tmp_path) == want
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    _check_well_formed(record, 9)
    for wl in WORKLOADS:
        entry = record["workloads"][wl]
        assert entry["runs"] == {"seconds": 2.0, "seeds": [5, 6, 7],
                                 "order": [{"seed": 5, "first": "parent"},
                                           {"seed": 6, "first": "change"},
                                           {"seed": 7, "first": "parent"}],
                                 "trace_seed": 9}
        assert entry["pairs"]["run_s"] == {"n": 3, "change_won": 3,
                                           "better": "lower"}
        assert entry["layers"]["change"]["seed"] == 9
    assert record["machine"] == {"parent": [MACHINE], "change": [MACHINE]}

    # without --trace-seed: no traced run, no per-layer record
    (tmp_path / "log").unlink()
    assert _load().main([parent, change, "--number", "10", "--seeds", "5",
                         "--seconds", "2"]) == 0
    assert all(line.endswith(" 0") for line in _log(tmp_path))
    record = json.loads((tmp_path / "BENCH_10.json").read_text())
    _check_well_formed(record, 10)
    assert record["workloads"]["sweep-cli"]["layers"] == {"parent": None,
                                                          "change": None}


def test_bench_record_merges_both_sides(tmp_path, monkeypatch):
    plans = {"parent": {"value": 7.0, "metrics": {}},
             "change": {"value": 7.0, "metrics": {
                 "tstar-single 7 1": {"quadrature.kernel_s": 5.0}}}}
    for seed, p_run, c_run in ((1, 2.0, 1.5), (2, 2.2, 2.3), (3, 2.4, 1.4)):
        for side, run in (("parent", p_run), ("change", c_run)):
            plans[side]["metrics"][f"tstar-single {seed} 0"] = {
                "run_s": run, "ok_frac": 1.0}
    parent, change = _checkouts(tmp_path, plans["parent"], plans["change"])
    monkeypatch.chdir(tmp_path)
    assert _load().main([parent, change, "--number", "9", "--seeds", "1-3",
                         "--seconds", "1", "--trace-seed", "7"]) == 0
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    wl = record["workloads"]["tstar-single"]
    assert wl["parent"]["run_s"]["median"] == 2.2
    assert wl["change"]["run_s"]["median"] == 1.5
    assert wl["change"]["run_s"]["values"] == [1.5, 2.3, 1.4]
    assert wl["change"]["lists"] == 9 and wl["change"]["seeds"] == [1, 2, 3]
    assert wl["pairs"]["run_s"] == {"n": 3, "change_won": 2,
                                    "better": "lower"}
    assert wl["pairs"]["ok_frac"]["change_won"] == 0     # ties
    assert wl["pairs"]["setup_s"]["change_won"] == 0     # ties
    assert wl["layers"]["change"]["quadrature.kernel_s"] == 5.0
    assert wl["layers"]["parent"]["quadrature.kernel_s"] == 7.0
    assert wl["layers"]["parent"]["seed"] == 7
    assert record["machine"]["change"] == [MACHINE]


def test_bench_record_refuses_other_machine(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["--number", "9", "--seeds", "1", "--seconds", "1",
            "--trace-seed", "2"]
    for key, other in (("cpu", "other"), ("nproc", 4), ("python", "3.12.0"),
                       ("numpy", "1.26.4")):
        machine = {"sweep-cli 2 1": dict(MACHINE, **{key: other})}
        parent, change = _checkouts(tmp_path, {"value": 1.0},
                                    {"value": 1.0, "machine": machine})
        assert _load().main([parent, change] + args) == 2, key
        err = capsys.readouterr().err
        assert "sweep-cli" in err and "machines differ" in err, key
        assert not (tmp_path / "BENCH_9.json").exists()
    # the refusal comes before the next workload runs
    assert not any(" tstar-single " in line for line in _log(tmp_path))
    # threads and blas may differ; the same runs then make a BENCH file
    machine = {"sweep-cli 2 1": dict(MACHINE, threads=2, blas="other")}
    parent, change = _checkouts(tmp_path, {"value": 1.0},
                                {"value": 1.0, "machine": machine})
    assert _load().main([parent, change] + args) == 0
    assert (tmp_path / "BENCH_9.json").exists()


def test_bench_pairs_stops_on_a_failing_run(tmp_path, monkeypatch):
    parent, change = _checkouts(tmp_path, {"value": 1.0},
                                {"value": 1.0,
                                 "exit": {"tstar-single 2 0": 5}})
    monkeypatch.chdir(tmp_path)
    assert _load().main([parent, change, "--number", "9", "--seeds", "1-3",
                         "--seconds", "1", "--trace-seed", "7"]) == 5
    assert _log(tmp_path)[-1] == "change tstar-single 2 1.0 0"
    assert not (tmp_path / "BENCH_9.json").exists()


# layer -> (workload, parent value, change value)
LAYER_CASES = {
    "quadrature.kernel_ns_per_point": ("tstar-single", 120.0, 80.0),
    "harness.search_s": ("tstar-single", 1.0, 0.64),
    "rootfind.calls": ("tstar-single", 115, 70),
    "rootfind.brackets": ("tstar-single", 26690, 12000),
    "rootfind.s": ("tstar-single", 0.089, 0.033),
    "spectral_oracle.us_per_step": ("solve-oracle", 290.0, 260.0),
}


@pytest.fixture(scope="module")
def layer_record(tmp_path_factory):
    """The per-layer records of one run with every LAYER_CASES value set."""
    tmp_path = tmp_path_factory.mktemp("layers")
    plans = [{"value": 1.0, "metrics": {}} for _ in range(2)]
    for layer, (workload, *values) in LAYER_CASES.items():
        for plan, value in zip(plans, values):
            plan["metrics"].setdefault(f"{workload} 7 1", {})[layer] = value
    parent, change = _checkouts(tmp_path, *plans)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        assert _load().main([parent, change, "--number", "9", "--seeds", "1",
                             "--seconds", "1", "--trace-seed", "7"]) == 0
    return json.loads((tmp_path / "BENCH_9.json").read_text())


@pytest.mark.parametrize("layer", LAYER_CASES)
def test_bench_record_reports_layer(layer_record, layer):
    workload, before, after = LAYER_CASES[layer]
    assert layer in LAYERS
    layers = layer_record["workloads"][workload]["layers"]
    assert layers["parent"][layer] == before
    assert layers["change"][layer] == after


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"),
                     key=lambda p: int(p.stem.split("_")[1]))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_file_is_well_formed(path):
    # a performance claim counts only with a well-formed BENCH_<n>.json
    _check_well_formed(json.loads(path.read_text()),
                       int(path.stem.split("_")[1]))
