"""Self-test of the traced run: tracing must not change what the program does.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs the sweep-cli operation (seed 0) plain and then traced, with the
in-thread calibration sampler on, into the same directory, and requires:
byte-identical artifacts; every attribute of every enstrophy_lab module to
be the original object again after tracing, also when the traced code
raises; and the per-layer metrics declared in BENCHMARK.json to be the ones
spans.py reports.  Exits 0 on success.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import enstrophy_lab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def module_attrs():
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("enstrophy_lab") and m is not None]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def changed_attrs(before):
    after = module_attrs()
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k) is not after.get(k))


def read_dir(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


def main():
    failures = []
    work_dir = os.path.join(ROOT, ".perfbench-out", f"selftest-{os.getpid()}")
    os.environ["ENSTROPHY_LAB_THREADS"] = "2"
    try:
        wl = workloads.build("sweep-cli", 0, work_dir)
        (op,) = wl.ops
        out_dir = os.path.join(work_dir, "sweep-cli")
        before = module_attrs()

        code = op.run()
        plain = read_dir(out_dir)
        op.check(code)      # removes out_dir

        tracer = spans.Tracer()
        with tracer.installed():
            if not changed_attrs(before):
                failures.append("tracing rebound nothing")
            with tracer.op_span(0):
                code, _ = calibration.timed(op.run, 1)   # sampler on
        traced = read_dir(out_dir)
        shutil.rmtree(out_dir)
        if changed_attrs(before):
            failures.append(f"not restored: {changed_attrs(before)}")

        if sorted(plain) != sorted(traced):
            failures.append(f"file sets differ: {sorted(plain)} vs "
                            f"{sorted(traced)}")
        for name in sorted(plain.keys() & traced.keys()):
            if plain[name] != traced[name]:
                failures.append(f"{name} differs between untraced and "
                                "traced runs")
        layers = spans.layer_metrics(tracer.spans, wl.threads)
        if not layers["quadrature.y_calls"] > 0:
            failures.append("traced run recorded no y-level quadrature")

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = [(m["name"], m["unit"])
                        for m in json.load(fh)["per_layer"]]
        if declared != list(spans.PER_LAYER):
            failures.append("BENCHMARK.json per_layer differs from "
                            "spans.PER_LAYER")

        try:
            with tracer.installed():
                raise KeyError("boom")
        except KeyError:
            pass
        if changed_attrs(before):
            failures.append("not restored after an exception: "
                            f"{changed_attrs(before)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in failures:
        print("FAIL", line)
    print("selftest:", "FAIL" if failures else "ok",
          f"({enstrophy_lab.__file__})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
