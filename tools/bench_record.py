"""Merge perfbench result files of a parent and a changed checkout into
one BENCH_<N>.json.

Usage, from the repository root:

    python3 tools/bench_record.py --number N --parent DIR --change DIR

This writes BENCH_<N>.json in the current directory.

Each DIR holds the result-<workload>-seed<S>-trace<0|1>.json files that
`python3 perfbench/run.py` writes under .perfbench-out/ of the checkout it
runs in.  Both checkouts are run with the same benchmark code and settings,
the untraced (--trace 0) runs in pairs that share a seed and alternate
which side goes first, and one traced (--trace 1) run per workload and
side.

For every workload the output gives, per side:
  - the median, quartiles, per-seed values and run count of each
    end-to-end metric named in BENCHMARK.json, from the untraced runs,
    plus the number of operation lists and set-up probes behind them;
  - for each end-to-end metric, the number of seed pairs and how many of
    them the change won (ties count for neither side);
  - every per-layer counter and time BENCHMARK.json names, from the
    traced run (its seed is recorded with them);
and the machine block of each side's runs.  When the directories come
from `tools/bench_pairs.py`, each side's pairs-<workload>.json manifest
(seconds per run, seeds, which side ran first for each seed, traced seed)
is copied into the workload's entry as "runs".

It exits 2, naming the workload, when the two sides ran different
untraced seeds of it, ran it on machines that differ in cpu, nproc,
python or numpy, or ran it for different seconds by their manifests (or
only one side has a manifest): such runs are not pairs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Machine fields that must agree between the sides of one workload.
SAME_MACHINE = ("cpu", "nproc", "python", "numpy")
NAME = re.compile(r"result-(.+)-seed(\d+)-trace([01])\.json$")


def load_side(directory):
    """{workload: {"untraced": {seed: result}, "traced": {seed: result}}}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        match = NAME.search(os.path.basename(path))
        if match is None:
            continue
        workload, seed, trace = match.group(1), int(match.group(2)), \
            match.group(3)
        with open(path) as fh:
            data = json.load(fh)
        kind = "traced" if trace == "1" else "untraced"
        runs.setdefault(workload, {"untraced": {}, "traced": {}})
        runs[workload][kind][seed] = data
    return runs


def load_manifests(directory):
    """{workload: manifest} from the pairs-<workload>.json files of
    `tools/bench_pairs.py` in directory."""
    found = {}
    for path in sorted(glob.glob(os.path.join(directory, "pairs-*.json"))):
        with open(path) as fh:
            manifest = json.load(fh)
        found[manifest["workload"]] = manifest
    return found


def summary(values):
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(side, metrics):
    """Per-metric summary of one side's untraced runs of one workload."""
    seeds = sorted(side)
    out = {"seeds": seeds,
           "lists": sum(len(side[s]["run_s"]) for s in seeds),
           "setup_probes": sum(len(side[s]["setup_s"]) for s in seeds),
           "failed": sum(side[s]["result"]["failed"] for s in seeds),
           "attempted": sum(side[s]["result"]["attempted"] for s in seeds)}
    for m in metrics:
        values = [side[s]["result"]["metrics"][m["name"]]["value"]
                  for s in seeds]
        out[m["name"]] = dict(summary(values), values=values)
    return out


def change_wins(parent, change, metric):
    """(pairs, pairs the change won) over the seeds both sides ran."""
    seeds = sorted(set(parent) & set(change))
    sign = 1.0 if metric["better"] == "lower" else -1.0
    won = 0
    for s in seeds:
        p = parent[s]["result"]["metrics"][metric["name"]]["value"]
        c = change[s]["result"]["metrics"][metric["name"]]["value"]
        won += sign * (p - c) > 0
    return len(seeds), won


def layers(traced, names):
    if not traced:
        return None
    seed = min(traced)
    metrics = traced[seed]["result"]["metrics"]
    return dict({"seed": seed}, **{name: metrics[name]["value"]
                                   for name in names})


def unpaired(p, c, p_runs, c_runs):
    """Why the parent's and the change's runs of one workload, with their
    bench_pairs manifests (None for none), are not pairs, or None when
    they are."""
    if (p_runs is None) != (c_runs is None):
        return "only one side has a bench_pairs manifest"
    if p_runs is not None and p_runs["seconds"] != c_runs["seconds"]:
        return (f"seconds differ: parent {p_runs['seconds']}, change "
                f"{c_runs['seconds']}")
    if set(p["untraced"]) != set(c["untraced"]):
        return (f"untraced seeds differ: parent {sorted(p['untraced'])}, "
                f"change {sorted(c['untraced'])}")
    hosts = [sorted({tuple(data["machine"].get(key) for key in SAME_MACHINE)
                     for kind in side.values() for data in kind.values()},
                    key=repr)
             for side in (p, c)]
    if hosts[0] != hosts[1]:
        return (f"machines differ in {'/'.join(SAME_MACHINE)}: parent "
                f"{hosts[0]}, change {hosts[1]}")
    return None


def machines(runs):
    seen = []
    for by_kind in runs.values():
        for kind in by_kind.values():
            for data in kind.values():
                if data["machine"] not in seen:
                    seen.append(data["machine"])
    return seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--number", type=int, required=True,
                    help="N of the BENCH_<N>.json to write")
    ap.add_argument("--parent", required=True,
                    help="directory of the parent checkout's result files")
    ap.add_argument("--change", required=True,
                    help="directory of the changed checkout's result files")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    layer_names = [m["name"] for m in bench["per_layer"]]
    parent, change = load_side(args.parent), load_side(args.change)
    manifests = load_manifests(args.parent), load_manifests(args.change)
    if not parent or not change:
        print("bench_record: no result files in "
              f"{args.parent if not parent else args.change}",
              file=sys.stderr)
        return 2

    workloads = {}
    for wl in (w["name"] for w in bench["workloads"]):
        p = parent.get(wl, {"untraced": {}, "traced": {}})
        c = change.get(wl, {"untraced": {}, "traced": {}})
        runs = [side.get(wl) for side in manifests]
        why = unpaired(p, c, *runs)
        if why:
            print(f"bench_record: {wl}: {why}", file=sys.stderr)
            return 2
        entry = {}
        if runs[0] is not None:
            entry["runs"] = dict(zip(("parent", "change"), runs))
        if p["untraced"] and c["untraced"]:
            entry["parent"] = end_to_end(p["untraced"], metrics)
            entry["change"] = end_to_end(c["untraced"], metrics)
            entry["pairs"] = {}
            for m in metrics:
                n, won = change_wins(p["untraced"], c["untraced"], m)
                entry["pairs"][m["name"]] = {"n": n, "change_won": won,
                                             "better": m["better"]}
        entry["layers"] = {"parent": layers(p["traced"], layer_names),
                           "change": layers(c["traced"], layer_names)}
        workloads[wl] = entry

    record = {"number": args.number,
              "command": " ".join(bench["command"])
                         + " --workload W --seed S --trace 0|1",
              "machine": {"parent": machines(parent),
                          "change": machines(change)},
              "workloads": workloads}
    out = f"BENCH_{args.number}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
