"""Shared fixtures.

The scaling sweep is the expensive shared computation (four enstrophy-max
searches); it runs once per session and several test modules read from it.
state_log collects (origin, K, E, R) for every state the heavy fixtures
produce, so the production-bound criterion can sweep all of them at the
end.
"""

import time

import pytest

from enstrophy_lab import harness, profiles

SWEEP_KS = (20.0, 40.0, 80.0, 160.0)


@pytest.fixture(scope="session")
def sine():
    return profiles.make_sine_profile()


@pytest.fixture(scope="session")
def two_term():
    return profiles.make_sine_series_profile([1.0, 0.1])


@pytest.fixture(scope="session")
def state_log():
    return []


@pytest.fixture(scope="session")
def acceptance_sweep(sine, state_log):
    """harness.sweep over the acceptance k list, with wall time."""
    start = time.perf_counter()
    result = harness.sweep(sine, SWEEP_KS)
    elapsed = time.perf_counter() - start
    for r in result.results:
        K0, E0, R0 = harness.state_functionals(sine, r.k, 0.0)
        state_log.append((f"sweep k={r.k:g} t=0", K0, E0, R0))
        state_log.append((f"sweep k={r.k:g} t=T*", r.K_at_max,
                          r.E_max_measured, r.R_at_max))
    return {"result": result, "seconds": elapsed}
