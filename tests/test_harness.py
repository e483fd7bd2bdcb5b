"""Max search and scaling sweep: closed forms, oracle cross-check, fits."""

import math
import os
import sys
import time
import types

import numpy as np
import pytest

from enstrophy_lab import (asymptotics, diagnostics, exact_solver, harness,
                           quadrature, spectral_oracle)
from enstrophy_lab.quadrature import QuadratureError


def test_initial_functionals_closed_form(sine):
    k = 7.0
    K0, E0, R0 = harness.state_functionals(sine, k, 0.0, with_rate=True)
    assert abs(K0 - math.pi ** 2 * k * k) < 1e-10 * K0
    assert abs(E0 - 4.0 * math.pi ** 4 * k * k) < 1e-10 * E0
    # R(u0) = -32 pi^6 k^2 for the sine profile
    R0_exact = -32.0 * math.pi ** 6 * k * k
    assert abs(R0 - R0_exact) < 1e-10 * abs(R0_exact)


def test_unconverged_initial_rate_raises(sine):
    # f''^2 is not integrable at the kink, so R(u0) has no finite value
    bad = sine._replace(
        f_double_prime=lambda y: np.abs(
            np.asarray(y, float) - 0.3712345) ** -0.75)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError, match=r"\[0\.0, 0\.5\]"):
        harness.state_functionals(bad, 5.0, 0.0, with_rate=True)


@pytest.mark.parametrize("t", [0.0, 1e-3])
@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_state_functionals_reject_k_outside_zero_to_inf(sine, monkeypatch,
                                                         t, k):
    # k = 0 divided by zero at t > 0, and k = -1 at t = 0 returned a
    # positive K0 and E0; neither may reach an integral
    monkeypatch.setattr(harness.quadrature, "integral", None)
    monkeypatch.setattr(harness.quadrature, "adaptive_quad", None)
    with pytest.raises(ValueError, match=f"k={k}"):
        harness.state_functionals(sine, k, t, with_rate=True)


@pytest.mark.parametrize("t", [-1e-3, -math.inf, math.nan, math.inf])
def test_state_functionals_reject_t_outside_zero_to_inf(sine, t):
    # t < 0 used to return (K0, E0) as if t were 0
    with pytest.raises(ValueError, match=f"t={t}"):
        harness.state_functionals(sine, 5.0, t)


def test_state_functionals_overflowing_curvature_raises(sine):
    # a = 1/(2kt) overflows to inf; the x-panel nest used to loop forever
    with pytest.raises(ValueError, match="a=inf"):
        harness.state_functionals(sine, 1e-10, 1e-300)


def test_state_functionals_match_grid_diagnostics(sine):
    # dual route: adaptive x-quadrature against the 512-point grid state
    k, t = 5.0, 1e-3
    K, E, R = harness.state_functionals(sine, k, t, with_rate=True)
    d = diagnostics.compute(exact_solver.snapshot(sine, t, k))
    assert abs(K - d.K) < 1e-10 * d.K
    assert abs(E - d.E) < 1e-10 * d.E
    assert abs(R - d.R) < 1e-8 * abs(d.R)


def test_enstrophy_max_matches_oracle(sine, monkeypatch):
    # the measured maximum should sit on the oracle's E(t) curve
    k = 20.0
    r = harness.find_enstrophy_max(sine, k)
    monkeypatch.setattr(spectral_oracle, "N_MODES", 2048)
    snap = spectral_oracle.integrate(sine, k, [r.T_star_measured],
                                     snapshot_points=4096)[0]
    d = diagnostics.compute(snap)
    assert abs(d.E - r.E_max_measured) < 1e-8 * r.E_max_measured
    assert abs(d.K - r.K_at_max) < 1e-8 * r.K_at_max
    # T* is a root of R = dE/dt to near the quadrature tolerance
    assert abs(r.R_at_max) * r.T_star_measured < 1e-8 * r.E_max_measured
    assert r.n_evaluations <= 16


@pytest.mark.parametrize("spec, k, budget", [
    ("sine", 5.0, 4),          # T* < T*_pred: the search steps down
    ("sine", 20.0, 4),
    ("sine", 80.0, 4),         # inside the acceptance sweep's k range
    ("sine", 88.0, 4),         # the round-off of E fits a false curvature
    ("sine", 2560.0, 3),       # T* > T*_pred: the search steps up
    ("two_term", 20.0, 7),
    ("two_term", 160.0, 4),
])
def test_tstar_search_evaluation_budget(request, spec, k, budget):
    # the search opens at the Laplace prediction, sizes its first step
    # from R t / E there and polishes by Hermite steps on (R, E, -K/2); a
    # fixed first step of GROW took 7, 8, 6 and 8 evaluations at sine k =
    # 5, 80, 2560 and two_term k = 160, Pegasus on R alone 6, 7, 5, 5, 4, 8
    # and 6 here, and the steps on (R, E) alone 5, 5, 5, 5, 3, 7 and 5
    profile = request.getfixturevalue(spec)
    r = harness.find_enstrophy_max(profile, k)
    assert r.n_evaluations <= budget
    assert abs(r.R_at_max) * r.T_star_measured < 1e-8 * r.E_max_measured
    trace = r.search_trace
    assert len(trace) == r.n_evaluations
    assert trace[0][0] == asymptotics.predict(profile, k).T_star
    # T* is what hermite returns, K, E and R the last traced values: they
    # belong together only while hermite returns the last point it evaluated
    assert (r.T_star_measured, r.K_at_max, r.E_max_measured,
            r.R_at_max) == trace[-1]


# K, E and R at 0.8, 1 and 1.2 T*_pred from a reference x-skeleton, a
# ratio-2 nest up to 1/16 and 16 uniform panels; the ratio-X_NEST_RATIO
# nest reproduces them within the bars below
NEST_PINS = [
    ("sine", 5.0, 0.8,
     173.83805750645942, 14762.106788094428, 1391579.4164681258),
    ("sine", 5.0, 1.0,
     149.953247347615, 14944.761209768678, -892225.6472142681),
    ("sine", 5.0, 1.2,
     127.09179067085917, 13599.899945538773, -2279283.8311765636),
    ("sine", 20.0, 0.8,
     3477.2602544261285, 833830.5994490177, 2876272248.720096),
    ("sine", 20.0, 1.0,
     3059.210464541025, 1179511.3992580276, 415346742.43131626),
    ("sine", 20.0, 1.2,
     2595.348449284398, 1113327.4236114963, -783938016.159299),
    ("sine", 160.0, 0.8,
     239469.14312170277, 496263533.61508936, 17246673213250.963),
    ("sine", 160.0, 1.0,
     208749.71747181896, 669437911.9385985, 151926671343.44427),
    ("sine", 160.0, 1.2,
     176552.65163513532, 609123026.6025974, -3889850096831.532),
    ("sine", 2560.0, 0.8,
     61862897.04747291, 2088766730739.712, 1.0969920576085658e+18),
    ("sine", 2560.0, 1.0,
     53872419.004826024, 2772396110783.406, 597523921946921.9),
    ("sine", 2560.0, 1.2,
     45553537.17805663, 2514924373838.0786, -2.5971276766806474e+17),
    ("two_term", 20.0, 0.8,
     63.34406922125833, 4431.700862598654, -255323.80034736503),
    ("two_term", 20.0, 1.0,
     54.15450802282932, 4039.4574456914906, -448016.6675704778),
    ("two_term", 20.0, 1.2,
     45.9844576607312, 3511.907985611566, -509524.89476882655),
    ("two_term", 160.0, 0.8,
     5797.8142517387505, 1938976.6622976267, 9726806877.470987),
    ("two_term", 160.0, 1.0,
     5148.800261732434, 2658993.3786657597, 1040536638.4071146),
    ("two_term", 160.0, 1.2,
     4440.236354101229, 2513704.372485436, -2351233060.4078665),
]


@pytest.mark.parametrize("spec, k, factor, K0, E0, R0", NEST_PINS,
                         ids=[f"{s}-{k:g}-{f}" for s, k, f, *_ in NEST_PINS])
def test_x_nest_converges_in_one_round(request, monkeypatch, spec, k, factor,
                                       K0, E0, R0):
    # every x-round of state_functionals is one eval_fields batch; the
    # geometric nest of ratio X_NEST_RATIO passes its first check here, so
    # each evaluation is one batch, and the numbers stay those of the
    # finer old skeleton
    profile = request.getfixturevalue(spec)
    calls = []
    eval_fields = exact_solver.eval_fields

    def counted(*args, **kwargs):
        calls.append(args[1])
        return eval_fields(*args, **kwargs)

    monkeypatch.setattr(exact_solver, "eval_fields", counted)
    t = factor * asymptotics.predict(profile, k).T_star
    K, E, R = harness.state_functionals(profile, k, t, with_rate=True)
    assert len(calls) == 1
    assert abs(K / K0 - 1.0) <= 1e-12
    assert abs(E / E0 - 1.0) <= 1e-12
    assert abs(R - R0) * t <= 1e-9 * E0


@pytest.mark.parametrize("spec, k, t", [
    ("sine", 5.0, 3.7e-3), ("sine", 2560.0, 7.8e-6),
    ("two_term", 160.0, 7e-4), ("sine", 0.13, 1.0), ("sine", 0.04, 1.0)])
def test_x_breakpoints_start_one_ratio_outside_the_spike(request, spec, k,
                                                          t):
    # w = 1/(k C + 1) is the narrowest possible spike; the nest's first
    # interior point is w r, so [0, w r] is one panel, and the others
    # follow by the ratio r up to 1/2 (at k = 0.13 and 0.04, t = 1, w r^2
    # and w r pass 1/2: one interior point and none)
    profile = request.getfixturevalue(spec)
    a = 1.0 / (2.0 * k * t)
    w = 1.0 / (k * (a + profile.f_prime_max) + 1.0)
    r = harness.X_NEST_RATIO
    pts = harness._x_breakpoints(profile, a, k)
    assert pts[0] == 0.0 and pts[-1] == 0.5
    inner = pts[1:-1]
    assert np.all(inner < 0.5)
    assert np.all(inner >= w * r)
    assert inner.size == 0 or inner[0] == w * r
    np.testing.assert_allclose(inner[1:] / inner[:-1], r, rtol=1e-15)
    assert (inner[-1] if inner.size else w) * r >= 0.5


@pytest.mark.parametrize("a", [1e300, math.inf])
def test_x_breakpoints_at_an_overflowing_curvature(sine, a):
    # k a overflows, w is 0, and the nest has no interior point
    assert list(harness._x_breakpoints(sine, a, 1e10)) == [0.0, 0.5]


@pytest.fixture
def work_counter(monkeypatch):
    """Counts the eval_fields batches of a run, the x-rows handed to them
    and the y-panels _phase_moments evaluates; the x-quadrature's own
    panels, and the t = 0 integrals, are not counted."""
    work = {"calls": 0, "rows": 0, "y_panels": 0}
    eval_fields = exact_solver.eval_fields
    adaptive_batch = quadrature.adaptive_batch

    def counted_fields(profile, x, *args, **kwargs):
        work["calls"] += 1
        work["rows"] += len(x)
        return eval_fields(profile, x, *args, **kwargs)

    def counted_batch(f, *args, **kwargs):
        def counted_f(rows, ys):
            work["y_panels"] += len(rows)
            return f(rows, ys)
        return adaptive_batch(counted_f, *args, **kwargs)

    monkeypatch.setattr(exact_solver, "eval_fields", counted_fields)
    # only exact_solver's view of quadrature: adaptive_quad, which runs the
    # x-nest, reaches adaptive_batch through quadrature's own globals
    monkeypatch.setattr(exact_solver, "quadrature", types.SimpleNamespace(
        **{**vars(quadrature), "adaptive_batch": counted_batch}))
    return work


@pytest.mark.parametrize("spec, k, rows, y_panels", [
    ("sine", 5.0, 504, 7050),
    ("sine", 2560.0, 819, 11220),
    ("two_term", 160.0, 672, 10978),
])
def test_tstar_search_work_budget(request, work_counter, spec, k, rows,
                                  y_panels):
    # the x-nest and each y-ladder start one step outside the narrowest
    # possible spike; started at it they took 588, 882 and 756 x-rows and
    # 8724, 15090 and 13226 y-panels here
    profile = request.getfixturevalue(spec)
    r = harness.find_enstrophy_max(profile, k)
    assert work_counter["calls"] == r.n_evaluations
    assert work_counter["rows"] <= rows
    assert work_counter["y_panels"] <= y_panels


@pytest.mark.parametrize("s", [0.9, 1.0, 1.1])
def test_sweep_searches_take_one_batch_per_evaluation(sine, work_counter, s):
    # the sweep-cli workload's k lists: every E(t) is one x-round
    n = 0
    for k in (20.0, 40.0, 80.0, 160.0):
        n += harness.find_enstrophy_max(sine, s * k).n_evaluations
    assert work_counter["calls"] == n


def test_oversized_y_skeleton_fails_before_evaluation(monkeypatch, sine):
    # at t = 10 (k = 5, a = 0.01) the y-window spans dozens of periods, and
    # the second x-round's y-skeleton holds more panels than MAX_PANELS,
    # which adaptive_batch would return unrefined; the y-quadrature names
    # that cause before any panel of it is evaluated
    sizes = []
    panel_eval = quadrature._panel_eval

    def recorded(f, rows, lo, hi):
        sizes.append(len(rows))
        return panel_eval(f, rows, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_eval", recorded)
    with pytest.raises(QuadratureError,
                       match=r"y-skeleton of \d+ panels exceeds quadrature"
                             r"\.MAX_PANELS = 200000 at \(x=.*, a=0\.01, "
                             r"k=5\)") as err:
        harness.state_functionals(sine, 5.0, 10.0, with_rate=True)
    n = int(str(err.value).split()[2])
    assert n > quadrature.MAX_PANELS
    assert sizes and max(sizes) <= quadrature.MAX_PANELS


def test_extrapolated_ratios(acceptance_sweep, sine):
    # positive control for the leading-constant question: the measured
    # E_max ratio extrapolates to 4/3 (not 1), while T_star and K_drop
    # extrapolate to 1 as they should.
    result = acceptance_sweep["result"]
    report = harness.compare_predictions(result.results, sine)
    ex = report.extrapolated
    assert abs(ex["ratio_T_star"] - 1.0) < 0.01
    assert abs(ex["ratio_K_drop"] - 1.0) < 0.01
    assert abs(ex["ratio_E_max"] - 4.0 / 3.0) < 0.015


def test_sweep_input_validation(sine):
    with pytest.raises(ValueError):
        harness.sweep(sine, [10.0, 20.0, 40.0])
    with pytest.raises(ValueError):
        harness.sweep(sine, [10.0, 20.0, 40.0, 70.0])
    with pytest.raises(ValueError):
        harness.sweep(sine, [40.0, 20.0, 10.0, 5.0])
    for ks in ([0.0, 1.0, 2.0, 4.0], [-80.0, -40.0, -20.0, -10.0]):
        with pytest.raises(ValueError, match="k_list="):
            harness.sweep(sine, ks)


@pytest.mark.parametrize("k", [0.0, -5.0, math.nan, math.inf])
def test_find_enstrophy_max_rejects_k_outside_zero_to_inf(sine, k):
    with pytest.raises(ValueError, match=f"k={k}"):
        harness.find_enstrophy_max(sine, k)


def test_sweep_keeps_smallest_k_when_only_E_max_ratio_is_off(
        sine, monkeypatch):
    # Leading-order maxima with E_max at the measured (2/3) prefactor, i.e.
    # 4/3 of predict's stated (1/2): the E_max ratio alone must not drop
    # the smallest k from the fits.
    def leading_max(profile, k):
        pred = asymptotics.predict(profile, k)
        K0 = diagnostics.initial_energy(profile, k)
        return harness.MaxSearchResult(
            k=float(k), T_star_measured=pred.T_star,
            E_max_measured=4.0 / 3.0 * pred.E_max_leading,
            K_at_max=K0 - pred.K_drop_leading,
            K_drop_measured=pred.K_drop_leading, n_evaluations=0,
            E0=diagnostics.initial_enstrophy(profile, k), K0=K0,
            R_at_max=0.0)

    monkeypatch.setattr(harness, "find_enstrophy_max", leading_max)
    ks = (160.0, 320.0, 640.0, 1280.0)
    fits = harness.sweep(sine, ks).fits
    for name, fit in fits.items():
        assert fit.excluded == (), name
        assert fit.k_list == ks, name


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_no_interior_maximum_raises(sine, monkeypatch, sign):
    # an E(t) that only rises (or only falls) over the search range has no
    # interior maximum: the search must fail loudly after a bounded number
    # of evaluations, not return a range edge
    calls = []

    def monotone(profile, k, t, with_rate=False):
        calls.append(t)
        return 1.0, 1.0, sign

    monkeypatch.setattr(harness, "state_functionals", monotone)
    with pytest.raises(RuntimeError, match=r"no sign change.* k=10\.0"):
        harness.find_enstrophy_max(sine, 10.0)
    assert 2 <= len(calls) <= 16


def test_no_sign_change_table_lists_every_evaluation(sine, monkeypatch):
    calls = []

    def monotone(profile, k, t, with_rate=False):
        calls.append(t)
        return 1.0, 1.0, -1.0

    monkeypatch.setattr(harness, "state_functionals", monotone)
    with pytest.raises(RuntimeError) as info:
        harness.find_enstrophy_max(sine, 10.0)
    rows = [line.split()[0] for line in str(info.value).splitlines()
            if line.startswith("  t=")]
    assert rows == [f"t={t:.6e}" for t in sorted(calls)]


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("ENSTROPHY_LAB_THREADS", "2")
    assert harness._worker_count(8) == 2
    assert harness._worker_count(1) == 1
    for bad in ("two", "0"):
        monkeypatch.setenv("ENSTROPHY_LAB_THREADS", bad)
        with pytest.raises(ValueError, match=f"ENSTROPHY_LAB_THREADS.*{bad}"):
            harness._worker_count(8)
    monkeypatch.delenv("ENSTROPHY_LAB_THREADS")
    assert 1 <= harness._worker_count(8) <= 8
    # by default one worker per CPU of the affinity mask, which can be
    # smaller than os.cpu_count(), and at most one per k
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert harness._worker_count(8) == 3
    assert harness._worker_count(2) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._worker_count(8) == 8


@pytest.fixture
def no_child_left():
    """Fails the test if a forked worker outlives it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stub_max(k):
    return harness.MaxSearchResult(
        k=k, T_star_measured=1.0 / k, E_max_measured=k ** 3,
        K_at_max=k, K_drop_measured=k, n_evaluations=0, E0=k * k,
        K0=2.0 * k, R_at_max=0.0)


def test_sweep_results_do_not_depend_on_the_worker_count(
        sine, monkeypatch, no_child_left):
    # the records compare every field, search_trace included, exactly
    runs = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("ENSTROPHY_LAB_THREADS", workers)
        runs.append(harness.sweep(sine, (20.0, 40.0, 80.0, 160.0)))
    for run in runs[1:]:
        assert run.results == runs[0].results
        assert run.fits == runs[0].fits
    assert all(r.search_trace for r in runs[0].results)


@pytest.mark.parametrize("first, later", [(20.0, 40.0), (40.0, 80.0)])
def test_sweep_raises_the_first_failing_k_across_workers(
        sine, monkeypatch, no_child_left, first, later):
    # on 2 workers the caller runs k = 20 and 80 and the child 40 and 160,
    # so the earlier failure is the caller's in one case, the child's in
    # the other
    def failing(profile, k):
        if k == first:
            raise ZeroDivisionError(f"at k={k}")
        if k == later:
            raise KeyError(f"at k={k}")
        return _stub_max(k)

    monkeypatch.setenv("ENSTROPHY_LAB_THREADS", "2")
    monkeypatch.setattr(harness, "find_enstrophy_max", failing)
    with pytest.raises(ZeroDivisionError, match=rf"^at k={first}$"):
        harness.sweep(sine, (20.0, 40.0, 80.0, 160.0))


def test_sweep_names_the_k_of_a_worker_that_died(sine, monkeypatch,
                                                 no_child_left):
    caller = os.getpid()

    def dying(profile, k):
        if k == 160.0 and os.getpid() != caller:
            os._exit(3)
        return _stub_max(k)

    monkeypatch.setenv("ENSTROPHY_LAB_THREADS", "2")
    monkeypatch.setattr(harness, "find_enstrophy_max", dying)
    with pytest.raises(RuntimeError,
                       match=r"worker 1 .* k = \[40\.0, 160\.0\]"):
        harness.sweep(sine, (20.0, 40.0, 80.0, 160.0))


def test_sweep_kills_its_workers_when_the_caller_fails(sine, monkeypatch,
                                                      no_child_left):
    # a BaseException (such as KeyboardInterrupt) in the caller's share
    # ends the sweep at once: the child, still searching, is killed and
    # reaped, not waited for
    class Abort(BaseException):
        pass

    caller = os.getpid()

    def stuck(profile, k):
        if os.getpid() != caller:
            time.sleep(60.0)
        raise Abort

    monkeypatch.setenv("ENSTROPHY_LAB_THREADS", "2")
    monkeypatch.setattr(harness, "find_enstrophy_max", stuck)
    start = time.monotonic()
    with pytest.raises(Abort):
        harness.sweep(sine, (20.0, 40.0, 80.0, 160.0))
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("workers, platform",
                         [("1", "linux"), ("2", "darwin"), ("2", "win32")])
def test_sweep_forks_nothing_on_one_worker_or_off_linux(
        sine, monkeypatch, no_child_left, workers, platform):
    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setenv("ENSTROPHY_LAB_THREADS", workers)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(harness, "find_enstrophy_max",
                        lambda profile, k: _stub_max(k))
    ks = (20.0, 40.0, 80.0, 160.0)
    assert harness.sweep(sine, ks).results == tuple(map(_stub_max, ks))


def test_diagnostics_at_max_bound(acceptance_sweep):
    for r in acceptance_sweep["result"].results:
        d = diagnostics.from_functionals(r.K_at_max, r.E_max_measured,
                                         r.R_at_max)
        assert d.bound_R_residual is not None
        assert d.bound_R_residual >= 0.0
        assert d.poincare_residual >= 0.0


@pytest.mark.parametrize("ks", [[20.0] * 4, [5.0] * 4,
                                [10.0, 20.0, 20.0, 40.0]])
def test_sweep_rejects_repeated_k_before_any_search(sine, monkeypatch, ks):
    def no_search(*args, **kwargs):
        raise AssertionError("a T* search ran")
    monkeypatch.setattr(harness, "find_enstrophy_max", no_search)
    with pytest.raises(ValueError, match=r"strictly increasing.*k_list="):
        harness.sweep(sine, ks)
