"""Run perfbench in a parent and a changed checkout as alternating pairs.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload W --seeds A-B --seconds S [--trace-seed T] [--out DIR]

For each seed A..B this runs `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0` in both checkouts, one after the other,
each in its own checkout as its working directory; which side goes first
alternates from seed to seed, starting with the parent.  With --trace-seed
it then runs one traced (--trace 1) run per side at seed T.  Each run's
result file is copied from the checkout's .perfbench-out/ into DIR/parent
or DIR/change (default DIR: bench-pairs), next to a manifest
pairs-<W>.json that records the workload, the seconds, the seeds, the
order of every pair and the traced seed.  `tools/bench_record.py --parent
DIR/parent --change DIR/change` then merges the two sides and copies the
manifests into the BENCH file.

A run that exits nonzero stops the tool with its exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """'A-B' -> [A, ..., B]; a single 'A' -> [A]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_side(checkout, out, workload, seed, seconds, trace):
    """One perfbench run in checkout; copies its result file into out."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    code = subprocess.run(cmd, cwd=checkout).returncode
    if code:
        return code
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    shutil.copy(os.path.join(checkout, ".perfbench-out", name),
                os.path.join(out, name))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the parent commit's checkout")
    ap.add_argument("change", help="the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seed range A-B, one pair per seed")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace-seed", type=int,
                    help="seed of one traced run per side")
    ap.add_argument("--out", default="bench-pairs")
    args = ap.parse_args(argv)

    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    outs = {side: os.path.join(args.out, side) for side in SIDES}
    for out in outs.values():
        os.makedirs(out, exist_ok=True)
    order = []
    for i, seed in enumerate(args.seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append({"seed": seed, "first": sides[0]})
        for side in sides:
            code = run_side(checkouts[side], outs[side], args.workload, seed,
                            args.seconds, 0)
            if code:
                return code
    if args.trace_seed is not None:
        for side in SIDES:
            code = run_side(checkouts[side], outs[side], args.workload,
                            args.trace_seed, args.seconds, 1)
            if code:
                return code

    manifest = {"workload": args.workload, "seconds": args.seconds,
                "seeds": args.seeds, "order": order,
                "trace_seed": args.trace_seed}
    for out in outs.values():
        with open(os.path.join(out, f"pairs-{args.workload}.json"),
                  "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
