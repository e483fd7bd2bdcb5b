"""Benchmark of enstrophy-lab, driven from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): sweep-cli, tstar-single, solve-oracle.  The
package is imported from ./src; nothing needs building.  A run repeats the
workload's fixed operation list (a closed loop, one list at a time, in this
process) until the next list would end past S seconds; at least one list
always runs.  Every operation's output is checked, and an operation that
raises, exits nonzero or misses a check counts as failed.

Timings are in reference seconds: the wall time of a one-thread list is
scaled by calibration.REF_S / (CPU seconds per pass of a calibration kernel
sampled in the same thread while the list ran), and each set-up probe by
the same kernel run right after it in the probe's process; this takes out
the drift of a shared host's speed (see calibration.py).  A multi-thread
workload's list time stays as measured.  The raw wall seconds are printed
and kept in the result file.

With --trace 0 the result carries the end-to-end metrics:
  run_s        median time of one operation list (reference seconds)
  setup_s      median over fresh processes, spread through the run, of
               import + profiles + config (reference seconds)
  peak_rss_mb  peak resident memory of this process
  ok_frac      1 - failed/attempted operations (never 0 while anything
               passes; the top-level `failed` and `attempted` give fail_frac)
With --trace 1 untraced and traced lists alternate, and the result carries
the per-layer metrics of spans.py, medians over the traced lists, plus
trace.overhead_frac = traced / untraced median list time - 1.

The last stdout line is the JSON result.  The lines before it record the
machine and the quartiles and sample counts of the timings.  Artifacts,
the result and (traced runs) every span go under .perfbench-out/.
selftest.py checks that tracing leaves the artifacts byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibration
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
N_SETUP = 9             # set-up probes per untraced run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def machine(np, threads):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name(np), "threads": threads}


def setup_probe(root, argv):
    """One set-up in a fresh process (setup_probe.py): its wall seconds
    and the calibration pass time measured right after it, in that
    process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    sec, pass_s = proc.stdout.split()[:2]
    return float(sec), float(pass_s)


def run_list(wl, tracer=None, op_base=0):
    """Run every operation once; returns (wall seconds, attempted, failed)."""
    elapsed = 0.0
    failed = 0
    for i, op in enumerate(wl.ops):
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = op.run()
            else:
                # installed per operation, so the untimed check is untraced
                with tracer.installed(), tracer.op_span(op_base + i):
                    result = op.run()
            elapsed += time.perf_counter() - t0
            op.check(result)
        except Exception as err:        # any failure of the program counts
            failed += 1
            print(f"# {wl.name} {op.label} failed: "
                  f"{type(err).__name__}: {err}", file=sys.stderr)
    return elapsed, len(wl.ops), failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-cli", "tstar-single", "solve-oracle"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "enstrophy_lab", "__init__.py")):
        print("perfbench: src/enstrophy_lab not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import numpy as np
    import enstrophy_lab
    if not os.path.abspath(enstrophy_lab.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {enstrophy_lab.__file__}, not the "
              "package under ./src", file=sys.stderr)
        return 2
    import workloads

    work_dir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, work_dir)
    os.environ["ENSTROPHY_LAB_THREADS"] = str(wl.threads)

    tracer = spans.Tracer() if args.trace else None
    n_probes = 0 if tracer else N_SETUP
    setup_wall, setup = [], []
    wall, traced_wall, pass_times, run, traced = [], [], [], [], []
    attempted = failed = 0

    def probe_setup(done_frac):
        """Set-up probes due by now, so they are spread over the run."""
        while len(setup) < min(n_probes, 1 + int(n_probes * done_frac)):
            sec, pass_s = setup_probe(root, list(wl.setup_argv))
            setup_wall.append(sec)
            setup.append(sec * calibration.REF_S / pass_s)

    start = time.perf_counter()
    try:
        probe_setup(0.0)
        while True:
            use_trace = tracer is not None and len(traced) < len(run)
            (sec, att, fail), pass_s = calibration.timed(
                lambda: run_list(wl, tracer if use_trace else None,
                                 op_base=len(wl.ops) * len(traced)),
                wl.threads)
            attempted += att
            failed += fail
            ref = sec * calibration.REF_S / pass_s
            if use_trace:
                traced_wall.append(sec)
                traced.append(ref)
            else:
                wall.append(sec)
                run.append(ref)
                pass_times.append(pass_s)
            used = time.perf_counter() - start
            probe_setup(used / args.seconds)
            if tracer is not None and not traced:
                continue
            used = time.perf_counter() - start
            if used + statistics.median(wall + traced_wall) > args.seconds:
                break
        probe_setup(1.0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = machine(np, wl.threads)
    print(f"# machine {json.dumps(info)}")
    series = [("run_s", run), ("wall run_s", wall)]
    if tracer is None:
        series += [("setup_s", setup), ("wall setup_s", setup_wall)]
    for name, values in series + [("pass_s", pass_times)]:
        q = quartiles(values)
        print(f"# {name} median {q[1]:.6g} q1 {q[0]:.6g} q3 {q[2]:.6g} "
              f"n {len(values)}")
    print(f"# fail_frac {failed}/{attempted}")

    if tracer is None:
        metrics = {
            "run_s": (statistics.median(run), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_summary(tracer, wl, traced, run)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"machine": info, "run_s": run, "wall_run_s": wall,
                   "traced_run_s": traced, "setup_s": setup,
                   "wall_setup_s": setup_wall, "pass_s": pass_times,
                   "result": result}, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(root, OUT_DIR, f"trace-{tag}.json"), "w") as fh:
            json.dump({"machine": info, "fields": spans.SPAN_FIELDS,
                       "spans": [s.row() for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


def layer_summary(tracer, wl, traced, untraced):
    """Per-layer metrics: the median over traced lists of each figure."""
    by_list = {}
    for s in tracer.spans:
        by_list.setdefault(s.op // len(wl.ops), []).append(s)
    per_list = [spans.layer_metrics(by_list[i], wl.threads)
                for i in sorted(by_list)]
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(untraced) - 1
        else:
            value = statistics.median(m[name] for m in per_list)
        out[name] = (value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
