"""Invariants the exact solution obeys, checked as properties.

Over admissible two-term profiles f = -(sin 2 pi x + c sin 4 pi x), which
are admissible iff |8c| <= 1, the snapshot at any t > 0 is odd, obeys the
maximum principle max|u| <= max|u0| = k max|f| and the Oleinik bound
u_x <= 1/(2t).  The examples are derandomized, so every run checks the
same ones.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from enstrophy_lab import exact_solver, profiles

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
