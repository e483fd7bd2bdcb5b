"""Max search and scaling sweep: closed forms, oracle cross-check, fits."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from enstrophy_lab import (asymptotics, diagnostics, exact_solver, harness,
                           spectral_oracle)
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
    bad = dataclasses.replace(
        sine, f_double_prime=lambda y: np.abs(
            np.asarray(y, float) - 0.3712345) ** -0.75)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError, match=r"\[0\.0, 0\.5\]"):
        harness.state_functionals(bad, 5.0, 0.0, with_rate=True)


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
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*CFL.*")
        snap = spectral_oracle.integrate(sine, k, [r.T_star_measured],
                                         snapshot_points=4096)[0]
    d = diagnostics.compute(snap)
    assert abs(d.E - r.E_max_measured) < 1e-8 * r.E_max_measured
    assert abs(d.K - r.K_at_max) < 1e-8 * r.K_at_max
    # T* is a root of R = dE/dt to near the quadrature tolerance
    assert abs(r.R_at_max) * r.T_star_measured < 1e-8 * r.E_max_measured
    assert r.n_evaluations <= 16


@pytest.mark.parametrize("spec, k, budget", [
    ("sine", 5.0, 6),          # T* < T*_pred: the search steps down
    ("sine", 80.0, 5),         # inside the acceptance sweep's k range
    ("sine", 2560.0, 4),       # T* > T*_pred: the search steps up
    ("two_term", 160.0, 6),
])
def test_tstar_search_evaluation_budget(request, spec, k, budget):
    # the search opens at the Laplace prediction, sizes its first step
    # from R t / E there and polishes by Pegasus; a fixed first step of
    # GROW took 7, 8, 6 and 8 evaluations here
    profile = request.getfixturevalue(spec)
    r = harness.find_enstrophy_max(profile, k)
    assert r.n_evaluations <= budget
    assert abs(r.R_at_max) * r.T_star_measured < 1e-8 * r.E_max_measured
    trace = r.search_trace
    assert len(trace) == r.n_evaluations
    assert trace[0][0] == asymptotics.predict(profile, k).T_star
    assert (r.T_star_measured, r.K_at_max, r.E_max_measured,
            r.R_at_max) in trace


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
    for bad in ("two", "0"):
        monkeypatch.setenv("ENSTROPHY_LAB_THREADS", bad)
        with pytest.raises(ValueError, match=f"ENSTROPHY_LAB_THREADS.*{bad}"):
            harness._worker_count(8)
    monkeypatch.delenv("ENSTROPHY_LAB_THREADS")
    assert 1 <= harness._worker_count(8) <= 8


def test_diagnostics_at_max_bound(acceptance_sweep):
    for r in acceptance_sweep["result"].results:
        d = r.diagnostics_at_max()
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
