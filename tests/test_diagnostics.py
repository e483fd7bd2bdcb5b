"""Integral functionals and inequality residuals on hand-built states."""

import math

import numpy as np
import pytest

from enstrophy_lab import diagnostics, exact_solver


def _sine_state(n=512):
    x = (np.arange(n) - n // 2) / n
    u = np.sin(2.0 * np.pi * x)
    ux = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
    return exact_solver.StateSnapshot(k=1.0, t=0.0, u_values=u, ux_values=ux)


def test_single_mode_trig_integrals():
    d = diagnostics.compute(_sine_state())
    assert abs(d.K - 0.25) < 1e-14
    assert abs(d.E - math.pi ** 2) < 1e-11
    # R = -int u_xx^2 - int u_x^3 = -8 pi^4 - 0
    assert abs(d.R + 8.0 * math.pi ** 4) < 1e-9
    assert d.tail_fraction < 1e-25


def test_poincare_saturates_for_single_mode():
    d = diagnostics.compute(_sine_state())
    assert abs(d.poincare_residual) < 1e-13


def test_bound_residual_formula():
    d = diagnostics.from_functionals(K=1.0, E=4.0, R=3.0)
    assert abs(d.bound_R_residual - (1.5 * 4.0 ** (5.0 / 3.0) - 3.0)) < 1e-12


def test_integral_bound_rhs_closed_form():
    e0 = 8.0
    expect = (2.0 + 8.0 / (16.0 * math.pi ** 2)) ** 3
    assert abs(diagnostics.integral_bound_rhs(e0) - expect) < 1e-12
    with pytest.raises(ValueError):
        diagnostics.integral_bound_rhs(-1.0)


def test_integral_bound_rhs_rejects_nan():
    with pytest.raises(ValueError, match="E0=nan"):
        diagnostics.integral_bound_rhs(math.nan)


def test_initial_functionals_sine(sine):
    k = 7.0
    assert abs(diagnostics.initial_energy(sine, k)
               - math.pi ** 2 * k * k) < 1e-9
    assert abs(diagnostics.initial_enstrophy(sine, k)
               - 4.0 * math.pi ** 4 * k * k) < 1e-7


def test_tail_warning_on_rough_data():
    n = 128
    x = (np.arange(n) - n // 2) / n
    rng = np.random.default_rng(7)
    u = rng.standard_normal(n) * 1e-2 + np.sin(2 * np.pi * x)
    u -= u.mean()
    snap = exact_solver.StateSnapshot(k=1.0, t=0.0, u_values=u, ux_values=u)
    with pytest.warns(RuntimeWarning, match="tail"):
        diagnostics.compute(snap)
