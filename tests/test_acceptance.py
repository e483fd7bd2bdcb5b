"""Desk-scale acceptance checks, one test (one pass/fail line) each.

1  explicit leading constants at k = 160 (sine), with a 40 -> 160 trend check;
   E_max against the derived (2/3)|f(x*)|^3 k^3 = (16/3) pi^3 k^3
2  scaling exponents of T*, E_max, K_drop against E0 over k = 20..160
3  exact solver vs spectral time stepper at k = 5
4  dK/dt = -2E and dE/dt = R along an oracle trajectory (k = 5)
5  production bound R <= (3/2) E^{5/3} on every state the suite computed
6  measured E_max sits far below the time-global enstrophy envelope
7  asymptotic field error stays O(1) as k doubles (pre- and post-fold)
8  fold location, varphi/chi structure at a = 2 pi^2
9  sign structure (G > 0, H < 0) behind the predicted energy drop
10 byte-identical repeated sweep runs
"""

import math

import numpy as np
import pytest

from enstrophy_lab import (asymptotics, cli, diagnostics, exact_solver,
                           spectral_oracle)

K5 = 5.0
T0_K5 = 1.0 / (8.0 * math.pi ** 2 * K5)        # pitchfork time, k = 5
TSTAR_K5 = 1.0 / (16.0 * math.pi * K5)         # predicted maximizer time
DT = 2e-6                                      # dense save spacing


# ----------------------------------------------------------------------
# module fixtures (all heavy states flow into state_log)

@pytest.fixture(scope="module")
def oracle_c3(sine, state_log):
    """Oracle states at t0/2, T*_pred, 2 t0 for the cross-validation."""
    times = (0.5 * T0_K5, TSTAR_K5, 2.0 * T0_K5)
    snaps = spectral_oracle.integrate(sine, K5, times)
    for t, s in zip(times, snaps):
        d = diagnostics.compute(s)
        state_log.append((f"oracle k=5 t={t:.3e}", d.K, d.E, d.R))
    return dict(zip(times, snaps))


@pytest.fixture(scope="module")
def oracle_dense(sine, state_log):
    """Oracle trajectory saved every dt = 2e-6 on [0, 4e-3] (k = 5)."""
    times = np.arange(2001) * DT
    snaps = spectral_oracle.integrate(sine, K5, times)
    diags = [diagnostics.compute(s) for s in snaps]
    for t, d in zip(times, diags):
        state_log.append((f"oracle k=5 t={t:.3e}", d.K, d.E, d.R))
    return times, diags


@pytest.fixture(scope="module")
def asym_error_table(sine):
    """sup_x |u_exact - u_asym| on a fixed x grid, per (regime, k)."""
    a_pre = 8.0 * math.pi ** 2
    a_post = asymptotics.bifurcation_data(sine, 50.0).a_star
    xs = np.linspace(1.0 / 128.0, 0.5 - 1.0 / 128.0, 63)
    errs = {}
    for k in (50.0, 100.0, 200.0, 400.0):
        for label, a in (("pre", a_pre), ("post", a_post)):
            u_e, _ = exact_solver.eval_fields(sine, xs, a, k)
            u_a = asymptotics.asymptotic_u(sine, xs, a, k)
            errs[(label, k)] = float(np.max(np.abs(u_e - u_a)))
    return errs


# ----------------------------------------------------------------------
# criteria

def test_criterion_01_explicit_constants(acceptance_sweep, sine):
    """k = 160: T* vs 1/(16 pi k) within 5%, E_max vs (16/3) pi^3 k^3
    within 10%, K_drop vs pi^2 k^2 / 6 within 10%; all three deviations
    smaller at k = 160 than at k = 40.

    The E_max target is the shock-layer value (2/3)|f(x*)|^3 k^3: the
    viscous shock u = -U tanh(U x) of u_t + 2 u u_x = u_xx has enstrophy
    (1/2) int U^4 sech^4(U x) dx = (2/3) U^3, and at T* its half-jump is
    U = k |f(x*)|.  asymptotics.predict keeps the stated (1/2) prefactor,
    so the target is computed here rather than taken from it."""
    res = {r.k: r for r in acceptance_sweep["result"].results}
    fxs3 = abs(float(sine.f(sine.x_star))) ** 3
    devs = {}
    for k in (40.0, 160.0):
        r = res[k]
        pred = asymptotics.predict(sine, k)
        E_max_target = (2.0 / 3.0) * fxs3 * k ** 3
        devs[k] = {
            "T_star": abs(r.T_star_measured / pred.T_star - 1.0),
            "E_max": abs(r.E_max_measured / E_max_target - 1.0),
            "K_drop": abs(r.K_drop_measured / pred.K_drop_leading - 1.0),
        }
    bars = {"T_star": 0.05, "E_max": 0.10, "K_drop": 0.10}
    failures = []
    for name, bar in bars.items():
        if not devs[160.0][name] < bar:
            failures.append(f"{name}: deviation {devs[160.0][name]:.4f} "
                            f"at k=160 exceeds {bar}")
        if not devs[160.0][name] < devs[40.0][name]:
            failures.append(f"{name}: deviation did not shrink "
                            f"({devs[40.0][name]:.4f} at k=40 -> "
                            f"{devs[160.0][name]:.4f} at k=160)")
    coeff = res[160.0].E_max_measured / 160.0 ** 3
    assert not failures, (
        "explicit-constant checks failed:\n  " + "\n  ".join(failures)
        + f"\nmeasured E_max/k^3 = {coeff:.4f} at k=160; derived "
          f"(2/3)|f(x*)|^3 = {2.0 / 3.0 * fxs3:.4f}, stated "
          f"(1/2)|f(x*)|^3 = {0.5 * fxs3:.4f}")


def test_criterion_02_scaling_exponents(acceptance_sweep):
    """Log-log fits over k = 20,40,80,160: exponents 1.5 / -0.5 / 1.0
    within stated bands, r^2 > 0.999 each, sweep under 5 minutes."""
    fits = acceptance_sweep["result"].fits
    seconds = acceptance_sweep["seconds"]
    bands = {"E_max": (1.5, 0.05), "T_star": (-0.5, 0.05),
             "K_drop": (1.0, 0.10)}
    lines = []
    ok = True
    for name, (center, tol) in bands.items():
        fit = fits[name]
        good = (abs(fit.exponent - center) <= tol
                and fit.r_squared > 0.999)
        ok = ok and good
        lines.append(f"{name}: exponent {fit.exponent:+.4f} "
                     f"(want {center} +- {tol}), r^2 {fit.r_squared:.6f}"
                     + ("" if good else "  <-- FAIL"))
    assert ok and seconds <= 300.0, (
        "\n".join(lines) + f"\nsweep wall time {seconds:.1f}s")


def test_criterion_03_solver_cross_validation(oracle_c3, sine):
    """sup_x |u_exact - u_oracle| < 1e-6 at t0/2, T*_pred, 2 t0 (k=5)."""
    worst = 0.0
    for t, osnap in oracle_c3.items():
        esnap = exact_solver.snapshot(sine, t, K5)
        assert np.array_equal(esnap.x_grid, osnap.x_grid)
        worst = max(worst, float(np.max(np.abs(esnap.u_values
                                               - osnap.u_values))))
    assert worst < 1e-6, f"sup |u_exact - u_oracle| = {worst:.3e}"


def test_criterion_04_balance_laws(oracle_dense):
    """|dK/dt + 2E| and |dE/dt - R| below 1e-4 max(|R|, 1) at all interior
    save times, with dK/dt, dE/dt from the saved K, E series."""
    _, diags = oracle_dense
    K = np.array([d.K for d in diags])
    E = np.array([d.E for d in diags])
    R = np.array([d.R for d in diags])
    # fourth-order centered first derivative of the saved series
    dK = (-K[4:] + 8 * K[3:-1] - 8 * K[1:-3] + K[:-4]) / (12.0 * DT)
    dE = (-E[4:] + 8 * E[3:-1] - 8 * E[1:-3] + E[:-4]) / (12.0 * DT)
    bar = 1e-4 * np.maximum(np.abs(R[2:-2]), 1.0)
    res_K = np.abs(dK + 2.0 * E[2:-2])
    res_E = np.abs(dE - R[2:-2])
    assert np.all(res_K < bar) and np.all(res_E < bar), (
        f"worst residual ratios: energy {np.max(res_K / bar):.3e}, "
        f"enstrophy {np.max(res_E / bar):.3e} (of 1)")


def test_criterion_05_production_bound(state_log, acceptance_sweep,
                                       oracle_c3, oracle_dense):
    """R <= (3/2) E^{5/3} (+ 1e-8 E^{5/3} slack) on every state computed
    by the suite's fixtures: sweep extrema, t = 0 states, and both oracle
    trajectories."""
    assert len(state_log) > 2000
    bad = []
    for origin, K, E, R in state_log:
        if R is None:
            continue
        if not R <= 1.5 * E ** (5.0 / 3.0) + 1e-8 * E ** (5.0 / 3.0):
            bad.append(f"{origin}: R = {R:.6e} vs bound "
                       f"{1.5 * E ** (5.0 / 3.0):.6e}")
    assert not bad, "production bound violated:\n  " + "\n  ".join(bad)


def test_criterion_06_envelope_not_sharp(acceptance_sweep):
    """E_max sits orders of magnitude below the time-global envelope
    (E0^{1/3} + E0/(16 pi^2))^3, and the gap widens like E0^{-3/2}."""
    rows = sorted(acceptance_sweep["result"].results, key=lambda r: r.k)
    ratio = {r.k: r.E_max_measured / diagnostics.integral_bound_rhs(r.E0)
             for r in rows}
    e0 = {r.k: r.E0 for r in rows}
    assert ratio[80.0] < 1e-3, f"ratio at k=80 is {ratio[80.0]:.3e}"
    for ka, kb in ((40.0, 80.0), (80.0, 160.0)):
        q = ratio[ka] / ratio[kb]
        scale = (e0[kb] / e0[ka]) ** 1.5
        assert 0.5 * scale <= q <= 2.0 * scale, (
            f"ratio({ka:g})/ratio({kb:g}) = {q:.3f} outside "
            f"[{0.5 * scale:.3f}, {2.0 * scale:.3f}]")


def test_criterion_07_asymptotic_order(asym_error_table):
    """Matched-asymptotic field error stays O(1) under k doubling, both
    at a = 8 pi^2 (single root) and a = a* (past the fold)."""
    lines = []
    ok = True
    for label in ("pre", "post"):
        for k in (50.0, 100.0, 200.0):
            q = asym_error_table[(label, k)] / asym_error_table[(label,
                                                                 2 * k)]
            good = 0.3 <= q <= 3.0
            ok = ok and good
            lines.append(f"{label} k={k:g}: err ratio {q:.3f}"
                         + ("" if good else "  <-- FAIL"))
    assert ok, "\n".join(lines)


def test_criterion_08_bifurcation_structure(sine):
    """Fold at a = 2 pi^2 matches -1/6 + sqrt(3)/(2 pi) to 1e-8; varphi
    and chi nondecreasing on [0, x0); varphi(0) = 0, chi(0) = 1."""
    a = 2.0 * math.pi ** 2
    x0 = asymptotics.fold_location(sine, a)
    x0_exact = -1.0 / 6.0 + math.sqrt(3.0) / (2.0 * math.pi)
    assert abs(x0 - x0_exact) < 1e-8, f"x0 = {x0!r} vs {x0_exact!r}"

    xs = np.linspace(0.0, x0, 200, endpoint=False)
    roots = [asymptotics.find_roots(sine, float(x), a) for x in xs]
    assert all(r.regime == asymptotics.TRIPLE for r in roots)
    varphi = np.array([r.varphi for r in roots])
    chi = np.array([r.chi for r in roots])
    assert abs(varphi[0]) <= 1e-12 and abs(chi[0] - 1.0) <= 1e-12
    assert np.all(np.diff(varphi) >= -1e-12 * max(1.0, varphi.max()))
    assert np.all(np.diff(chi) >= -1e-12 * chi.max())


def test_criterion_09_energy_drop_signs(sine, two_term):
    """G > 0 and H < 0 on (0, x*] for the sine profile and a perturbed
    admissible profile, with the G' = (2/3) f H identity checked by
    finite differences."""
    for profile in (sine, two_term):
        bc = asymptotics.check_required_bound(profile)
        assert np.all(bc.G[1:] > 0.0), profile.label
        assert np.all(bc.H[1:] < 0.0), profile.label
        assert bc.identity_residual < 1e-6, (
            f"{profile.label}: G' identity residual "
            f"{bc.identity_residual:.3e}")
        assert bc.ok


def test_criterion_10_determinism(tmp_path):
    """Two identical CLI sweep runs produce byte-identical artifacts."""
    out = tmp_path / "sweep-out"
    args = ("--mode", "sweep", "--k-list", "5,10,20,40",
            "--out-dir", str(out))
    assert cli.main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        p.unlink()
    assert cli.main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(first) == ["fits.json", "sweep.csv"]
    assert first == second
