"""Invariants the exact solution obeys, checked as properties.

Over admissible two-term profiles f = -(sin 2 pi x + c sin 4 pi x), which
are admissible iff |8c| <= 1, the snapshot at any t > 0 is odd, obeys the
maximum principle max|u| <= max|u0| = k max|f| and the Oleinik bound
u_x <= 1/(2t).  The functionals K, E, R = dE/dt from
`harness.state_functionals` obey K decreasing in t, the enstrophy envelope
E <= integral_bound_rhs(E0) and the production bound R <= (3/2) E^(5/3),
and K falls at exactly twice E: dK/dt = -2E, since u(0) = u(1/2) = 0 kill
the boundary terms and the integral of u^2 u_x.
At and above the pitchfork, a >= |f'(0)|, the phase has one stationary
point, bracketed by x -/+ 1/2 since |f| < |f'(0)|/2 <= a/2.  The y-panels
`exact_solver._phase_moments` drops as negligible hold, computed anyway,
less than the bound its docstring derives.
The examples are derandomized, so every run checks the same ones.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from enstrophy_lab import (asymptotics, diagnostics, exact_solver, harness,
                           profiles, quadrature)

CONFIG = exact_solver.SolverConfig(grid_size=64)


@settings(derandomize=True, max_examples=18, deadline=None)
@given(c=st.floats(-0.12, 0.12), k=st.sampled_from([5.0, 40.0]),
       t=st.floats(1e-4, 1e-2))
def test_snapshot_invariants_on_two_term_profiles(c, k, t):
    profile = profiles.make_sine_series_profile([1.0, c])
    f_max = float(np.max(np.abs(profile.f(np.linspace(0.0, 0.5, 4097)))))
    snap = exact_solver.snapshot(profile, t, k, CONFIG)
    assert snap.oddness_residual <= 1e-12 * k * f_max
    assert np.max(np.abs(snap.u_values)) <= k * f_max
    assert np.max(snap.ux_values) <= 1.0 / (2.0 * t)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(c=st.floats(-0.12, 0.12), k=st.sampled_from([5.0, 40.0]),
       t=st.floats(1e-4, 1e-2), later=st.floats(1.05, 4.0))
def test_functional_invariants_on_two_term_profiles(c, k, t, later):
    profile = profiles.make_sine_series_profile([1.0, c])
    K0, E0, _ = harness.state_functionals(profile, k, 0.0)
    envelope = diagnostics.integral_bound_rhs(E0)
    K_prev = K0
    for s in (t, later * t):
        K, E, R = harness.state_functionals(profile, k, s)
        assert K < K_prev
        assert E <= envelope
        assert diagnostics.from_functionals(K, E, R).bound_R_residual >= 0
        K_prev = K


@pytest.mark.parametrize("spec", ["sine", "two_term"])
def test_energy_falls_by_twice_the_enstrophy_integral(request, spec):
    # the identity the T* search's Hermite steps read off K: across 0.9 to
    # 1.1 T*_pred, K(t1) - K(t0) = -2 * integral of E dt, with the integral
    # by a 10-point Gauss-Legendre rule (measured residual about 2e-16 K)
    profile = request.getfixturevalue(spec)
    k = 20.0
    t_pred = asymptotics.predict(profile, k).T_star
    t0, t1 = 0.9 * t_pred, 1.1 * t_pred
    nodes, weights = np.polynomial.legendre.leggauss(10)
    E_int = 0.5 * (t1 - t0) * sum(
        w * harness.state_functionals(profile, k, t)[1]
        for w, t in zip(weights, 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * nodes))
    K0 = harness.state_functionals(profile, k, t0)[0]
    K1 = harness.state_functionals(profile, k, t1)[0]
    assert K1 < K0
    assert abs(K1 - K0 + 2.0 * E_int) <= 1e-12 * K0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(c=st.floats(-0.12, 0.12), lam=st.floats(1.0, 100.0),
       x=st.floats(0.0, 0.5))
def test_single_regime_bracket_on_two_term_profiles(c, lam, x):
    profile = profiles.make_sine_series_profile([1.0, c])
    a = lam * abs(profile.f_prime_at_zero)
    assert profile.f(x - 0.5) - a / 2 <= 0 <= profile.f(x + 0.5) + a / 2
    with warnings.catch_warnings():
        # lam = 1 is the pitchfork itself, which find_roots warns about
        warnings.filterwarnings("ignore", message="a equals the pitchfork")
        roots = asymptotics.find_roots(profile, x, a)
    assert roots.regime == asymptotics.SINGLE


def _dropped_panels(profile, x, a, k):
    """(m, result, skeleton, dropped): `_phase_moments`' row minima with
    n_moments = 3, its `adaptive_batch` result, the (prow, lo, hi) arrays
    of its skeleton and the (row, lo, hi) of the skeleton panels it
    dropped before evaluating any."""
    seen = {}
    skeleton, batch = exact_solver._panel_skeleton, quadrature.adaptive_batch

    def spy_skeleton(*args):
        out = skeleton(*args)
        seen["all"] = out[:3]
        return out

    def spy_batch(f, rows, lo, hi, **kw):
        seen["kept"] = set(zip(rows, lo, hi))
        seen["res"] = batch(f, rows, lo, hi, **kw)
        return seen["res"]

    with mock.patch.object(exact_solver, "_panel_skeleton", spy_skeleton), \
            mock.patch.object(quadrature, "adaptive_batch", spy_batch):
        m, _ = exact_solver._phase_moments(profile, x, a, k, n_moments=3)
    dropped = [p for p in zip(*seen["all"]) if p not in seen["kept"]]
    return m, seen["res"], seen["all"], dropped


def _check_dropped_mass(profile, x, a, k):
    """Each dropped panel's moments j = 0..3, by scipy quad, stay under
    the per-panel bound tau_j h / (2 L_i); their sum per row stays under
    tau_j and under TAIL_SHARE/2 of the row tolerance QUAD_TOL max(|r_j|,
    FLOOR_FRAC integral of |.|).  Returns the skeleton and the number of
    dropped panels."""
    m, res, skeleton, dropped = _dropped_panels(profile, x, a, k)
    L = exact_solver._window_halfwidth(profile, a, k, 3, m - profile.F_min)
    C = a + max(profile.f_prime_max, 0.0)
    share = 0.5 * exact_solver.TAIL_SHARE
    nu = 0.5 * np.arange(1, 5)
    tau = np.array([share * exact_solver.QUAD_TOL * quadrature.FLOOR_FRAC
                    * 0.5 * math.gamma(v) * (0.5 * k * C) ** -v for v in nu])
    mass = np.zeros((len(x), 4))
    for row, lo, hi in dropped:
        for j in range(4):
            def g(y):
                d = y - x[row]
                ph = profile.F(y) + 0.5 * a * d * d - m[row]
                return abs(d) ** j * math.exp(-k * ph)

            v = quad(g, lo, hi, epsabs=0.0, epsrel=1e-6)[0]
            assert v <= tau[j] * (hi - lo) / (2.0 * L[row]), (row, lo, j)
            mass[row, j] += v
    tol = exact_solver.QUAD_TOL * np.maximum(
        np.abs(res.value), quadrature.FLOOR_FRAC * res.abs_value)
    assert np.all(mass <= tau)
    assert np.all(mass <= share * tol)
    return skeleton, len(dropped)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(c=st.one_of(st.none(), st.floats(-0.12, 0.12)),
       k=st.sampled_from([5.0, 40.0, 160.0, 640.0, 2560.0]),
       t_share=st.floats(0.2, 3.0),
       x=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=6))
def test_dropped_panels_stay_under_their_bound(c, k, t_share, x):
    # c = None is the sine, otherwise the profile [1, c]
    profile = (profiles.make_sine_profile() if c is None
               else profiles.make_sine_series_profile([1.0, c]))
    t = t_share * asymptotics.predict(profile, k).T_star
    _check_dropped_mass(profile, np.array(x), 1.0 / (2.0 * k * t), k)


def test_dropped_panels_at_the_pitchfork_where_the_gap_merge_drops_roots():
    """Just below the pitchfork the row x = 0 has its minima at about
    +-1e-3 and its maximum at 0, closer than gap = w/8 = 6e-3: the gap merge
    keeps the lower minimum and drops the other two, so phi is not
    monotone on the panel that holds them.  The dropped panels still stay
    under their bound, and the sine at k = 2560 near T* drops some."""
    sine = profiles.make_sine_profile()
    a, k = abs(sine.f_prime_at_zero) * (1 - 1e-6), 5.0
    _, roots, _ = exact_solver._stationary_points(sine, np.array([0.0]), a,
                                                  1.0)
    (prow, lo, hi), _ = _check_dropped_mass(sine, np.array([0.0, 0.02, 0.3]),
                                            a, k)
    ends = set(lo[prow == 0]) | set(hi[prow == 0])
    assert len(roots) == 3 and sum(r in ends for r in roots) == 1
    k = 2560.0
    t = asymptotics.predict(sine, k).T_star
    assert _check_dropped_mass(sine, np.linspace(0.0, 0.5, 5),
                               1.0 / (2.0 * k * t), k)[1] > 0
