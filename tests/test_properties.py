"""Invariants the exact solution obeys, checked as properties.

Over admissible two-term profiles f = -(sin 2 pi x + c sin 4 pi x), which
are admissible iff |8c| <= 1, the snapshot at any t > 0 is odd, obeys the
maximum principle max|u| <= max|u0| = k max|f| and the Oleinik bound
u_x <= 1/(2t).  The functionals K, E, R = dE/dt from
`harness.state_functionals` obey K decreasing in t, the enstrophy envelope
E <= integral_bound_rhs(E0) and the production bound R <= (3/2) E^(5/3).
The examples are derandomized, so every run checks the same ones.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from enstrophy_lab import diagnostics, exact_solver, harness, profiles

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
