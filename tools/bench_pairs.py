"""Run perfbench in a parent and a changed checkout as alternating pairs and
record them in one BENCH_<N>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --number N --seeds A-B --seconds S [--trace-seed T]

For every workload BENCHMARK.json names and each seed A..B this runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0` in
both checkouts, one after the other, each in its own checkout as its
working directory; which side goes first alternates from seed to seed,
starting with the parent.  With --trace-seed it then runs one traced
(--trace 1) run per side at seed T.  After each run it reads the run's
result file from the checkout's .perfbench-out/.

BENCH_<N>.json, written in the current directory, gives for every
workload, per side:
  - the median, quartiles, per-seed values and run count of each
    end-to-end metric named in BENCHMARK.json, from the untraced runs,
    plus the number of operation lists and set-up probes behind them;
  - for each end-to-end metric, the number of seed pairs and how many of
    them the change won (ties count for neither side);
  - every per-layer counter and time BENCHMARK.json names, from the
    traced run (its seed is recorded with them);
the seconds per run, the seeds, which side ran first for each seed and
the traced seed as "runs", and the machine block of each side's runs.

A run that exits nonzero stops the tool with its exit status.  It exits
2, naming the workload, when the two sides ran it on machines that differ
in cpu, nproc, python or numpy: such runs are not pairs.  Either way no
BENCH file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# Machine fields that must agree between the sides of one workload.
SAME_MACHINE = ("cpu", "nproc", "python", "numpy")


def parse_seeds(text):
    """'A-B' -> [A, ..., B]; a single 'A' -> [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_side(checkout, workload, seed, seconds, trace):
    """One perfbench run in checkout: (exit status, its result or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    code = subprocess.run(cmd, cwd=checkout).returncode
    if code:
        return code, None
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(checkout, ".perfbench-out", name)) as fh:
        return 0, json.load(fh)


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


def other_machines(p, c):
    """Why the parent's and the change's runs of one workload ran on
    machines that differ, or None when they did not."""
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
    ap.add_argument("parent", help="the parent commit's checkout")
    ap.add_argument("change", help="the changed checkout")
    ap.add_argument("--number", type=int, required=True,
                    help="N of the BENCH_<N>.json to write")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seed range A-B, one pair per seed")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace-seed", type=int,
                    help="seed of one traced run per side")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    layer_names = [m["name"] for m in bench["per_layer"]]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    order, plan = [], []
    for i, seed in enumerate(args.seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append({"seed": seed, "first": sides[0]})
        plan += [(side, seed, 0) for side in sides]
    if args.trace_seed is not None:
        plan += [(side, args.trace_seed, 1) for side in SIDES]

    results = {side: {} for side in SIDES}
    workloads = {}
    for wl in (w["name"] for w in bench["workloads"]):
        for side in SIDES:
            results[side][wl] = {"untraced": {}, "traced": {}}
        for side, seed, trace in plan:
            code, result = run_side(checkouts[side], wl, seed, args.seconds,
                                    trace)
            if code:
                return code
            kind = "traced" if trace else "untraced"
            results[side][wl][kind][seed] = result
        p, c = results["parent"][wl], results["change"][wl]
        why = other_machines(p, c)
        if why:
            print(f"bench_pairs: {wl}: {why}", file=sys.stderr)
            return 2
        entry = {"runs": {"seconds": args.seconds, "seeds": args.seeds,
                          "order": order, "trace_seed": args.trace_seed},
                 "parent": end_to_end(p["untraced"], metrics),
                 "change": end_to_end(c["untraced"], metrics),
                 "pairs": {}}
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
              "machine": {side: machines(results[side]) for side in SIDES},
              "workloads": workloads}
    out = f"BENCH_{args.number}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
