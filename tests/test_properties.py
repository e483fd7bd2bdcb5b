"""Invariants the exact solution obeys, checked as properties.

Over admissible two-term profiles f = -(sin 2 pi x + c sin 4 pi x), which
are admissible iff |8c| <= 1, the snapshot at any t > 0 is odd, obeys the
maximum principle max|u| <= max|u0| = k max|f| and the Oleinik bound
u_x <= 1/(2t).  The functionals K, E, R = dE/dt from
`harness.state_functionals` obey K decreasing in t, the enstrophy envelope
E <= integral_bound_rhs(E0) and the production bound R <= (3/2) E^(5/3).
At and above the pitchfork, a >= |f'(0)|, the phase has one stationary
point, bracketed by x -/+ 1/2 since |f| < |f'(0)|/2 <= a/2.
The examples are derandomized, so every run checks the same ones.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from enstrophy_lab import (asymptotics, diagnostics, exact_solver, harness,
                           profiles)

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
    K0, E0 = harness.state_functionals(profile, k, 0.0)
    envelope = diagnostics.integral_bound_rhs(E0)
    K_prev = K0
    for s in (t, later * t):
        K, E, R = harness.state_functionals(profile, k, s, with_rate=True)
        assert K < K_prev
        assert E <= envelope
        assert diagnostics.from_functionals(K, E, R).bound_R_residual >= 0
        K_prev = K


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
