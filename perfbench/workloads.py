"""The three benchmark workloads: seeded inputs, operations and checks.

Each workload is a fixed list of operations driven through the package's
public entry points (`cli.main`, `harness.find_enstrophy_max`).  An
operation is a `run` callable, which is timed, and a `check` callable,
which is not; the check raises `CheckFailed` when an output misses its
correctness bar.  The bars hold for every seed: the seed only moves the
inputs inside ranges where they were verified.

  sweep-cli     The paper's headline computation: the enstrophy-maximum
                sweep over k = s * (20, 40, 80, 160), both quadrature levels
                and a 2-thread pool.  The only workload where the pool
                matters.
  tstar-single  find_enstrophy_max on one thread for sine k = 5 s (per-call
                overhead and stationary-point work), sine k = 2560 s (the
                deepest y-refinement) and the two-term profile at k = 160 s
                (so a change that only suits the sine cannot pass as
                general).  The plain single-thread baseline.
  solve-oracle  The solve mode with the spectral oracle at k = 5 and 16
                jittered times in (0, 4e-3]: grid snapshots, oracle stepping,
                grid diagnostics and artifact writing; no T* search and no
                x-adaptive quadrature.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

from enstrophy_lab import (asymptotics, cli, diagnostics, harness,
                           profiles)

SWEEP_K = (20.0, 40.0, 80.0, 160.0)
SOLVE_K = 5.0
SOLVE_T_END = 4e-3
SOLVE_N = 16

# criterion-02 exponent bands and the extrapolated-ratio targets
EXPONENT_BANDS = {"E_max": (1.5, 0.05), "T_star": (-0.5, 0.05),
                  "K_drop": (1.0, 0.10)}
RATIO_TARGETS = {"ratio_T_star": (1.0, 0.01), "ratio_K_drop": (1.0, 0.01),
                 "ratio_E_max": (4.0 / 3.0, 0.015)}
ORACLE_TOL = 1e-6


class CheckFailed(Exception):
    """An operation's output missed a correctness check."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    threads: int
    setup_argv: tuple       # CLI arguments parsed during set-up, if any
    ops: list


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _cli_op(label, argv, out_dir, check):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def checked(code):
        try:
            _require(code == 0, f"{label}: exit code {code}")
            check(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Op(label, run, checked)


# ----------------------------------------------------------------------
# sweep-cli

def sweep_inputs(seed):
    s = random.Random(f"sweep-cli:{seed}").uniform(0.9, 1.1)
    return [k * s for k in SWEEP_K]


def check_sweep(out_dir, k_list):
    names = sorted(os.listdir(out_dir))
    _require(names == ["fits.json", "sweep.csv"],
             f"sweep wrote {names}, expected fits.json and sweep.csv")
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    _require([float(r["k"]) for r in rows] == list(k_list),
             "sweep.csv k column does not match the k list")
    with open(os.path.join(out_dir, "fits.json")) as fh:
        summary = json.load(fh)
    for name, (centre, tol) in EXPONENT_BANDS.items():
        fit = summary["fits"][name]
        _require(abs(fit["exponent"] - centre) <= tol
                 and fit["r_squared"] > 0.999,
                 f"{name} exponent {fit['exponent']:.4f} "
                 f"(r2 {fit['r_squared']:.6f}) outside {centre}+-{tol}")
    ratios = summary["extrapolated_ratios"]
    for name, (target, tol) in RATIO_TARGETS.items():
        _require(name in ratios and abs(ratios[name] - target) <= tol,
                 f"extrapolated {name} = {ratios.get(name)} not within "
                 f"{tol} of {target:.6f}")


def sweep_cli(seed, work_dir):
    k_list = sweep_inputs(seed)
    out = os.path.join(work_dir, "sweep-cli")
    argv = ("--mode", "sweep", "--k-list", ",".join(map(repr, k_list)),
            "--out-dir", out)
    op = _cli_op("sweep", argv, out, lambda d: check_sweep(d, k_list))
    return Workload("sweep-cli", 2, argv, [op])


# ----------------------------------------------------------------------
# tstar-single

def tstar_inputs(seed):
    s = random.Random(f"tstar-single:{seed}").uniform(0.9, 1.1)
    return (("sine", 5.0 * s), ("sine", 2560.0 * s),
            ("two-term", 160.0 * s))


def make_profile(spec):
    if spec == "sine":
        return profiles.make_sine_profile()
    return profiles.make_sine_series_profile([1.0, 0.1])


def check_tstar(spec, profile, k, r):
    t_pred = asymptotics.predict(profile, k).T_star
    _require(0.0 < r.T_star_measured < 8.0 * t_pred,
             f"k={k}: T* = {r.T_star_measured} outside (0, 8 T*_pred = "
             f"{8.0 * t_pred})")
    bound = diagnostics.integral_bound_rhs(r.E0)
    _require(r.E_max_measured <= bound,
             f"k={k}: E_max = {r.E_max_measured} above the envelope {bound}")
    if spec == "sine" and k > 1000.0:
        # E_max / k^3 -> (2/3)(2 pi)^3; 165.25 measured at k = 2560
        coeff = r.E_max_measured / k ** 3 / (2.0 / 3.0 * (2.0 * math.pi) ** 3)
        _require(abs(coeff - 1.0) < 5e-3,
                 f"k={k}: E_max/k^3 is {coeff:.5f} of (2/3)(2 pi)^3")


def tstar_single(seed, work_dir):
    ops = []
    for spec, k in tstar_inputs(seed):
        profile = make_profile(spec)
        ops.append(Op(f"{spec} k={k:.6g}",
                      lambda p=profile, k=k: harness.find_enstrophy_max(p, k),
                      lambda r, s=spec, p=profile, k=k:
                      check_tstar(s, p, k, r)))
    return Workload("tstar-single", 1, (), ops)


# ----------------------------------------------------------------------
# solve-oracle

def solve_times(seed):
    """16 increasing times, the i-th drawn from ((i+1/2)/16, (i+1)/16] of
    the end time, so the last never passes 4e-3."""
    rng = random.Random(f"solve-oracle:{seed}")
    return [SOLVE_T_END * (i + 1 - 0.5 * rng.random()) / SOLVE_N
            for i in range(SOLVE_N)]


def check_solve(out_dir, times):
    names = sorted(os.listdir(out_dir))
    expected = sorted([f"snapshot_{i:03d}.csv" for i in range(len(times))]
                      + ["diagnostics.csv", "solve.json"])
    _require(names == expected, f"solve wrote {names}")
    with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    _require([float(r["t"]) for r in rows] == sorted(times),
             "diagnostics.csv times do not match the requested ones")
    worst = max(float(r["oracle_sup_diff"]) for r in rows)
    _require(worst < ORACLE_TOL,
             f"oracle_sup_diff {worst:.3e} >= {ORACLE_TOL}")


def solve_oracle(seed, work_dir):
    times = solve_times(seed)
    out = os.path.join(work_dir, "solve-oracle")
    argv = ("--mode", "solve", "--oracle", "--k", repr(SOLVE_K),
            "--t", ",".join(map(repr, times)), "--out-dir", out)
    op = _cli_op("solve", argv, out, lambda d: check_solve(d, times))
    return Workload("solve-oracle", 1, argv, [op])


BUILDERS = {"sweep-cli": sweep_cli, "tstar-single": tstar_single,
            "solve-oracle": solve_oracle}


def build(name, seed, work_dir):
    return BUILDERS[name](seed, work_dir)
