"""Heat-kernel integral evaluation: closed forms, symmetry, dual routes."""

import math

import numpy as np
import pytest

from enstrophy_lab import exact_solver, profiles, quadrature
from enstrophy_lab.quadrature import QuadratureError


def _flat_profile():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return profiles.make_custom_profile(
        f=zero, f_prime=zero, f_double_prime=zero, f_triple_prime=zero,
        F=zero, validate=False, label="flat")


def test_gaussian_integral_closed_form():
    # with f = 0 the phase is purely quadratic: I = sqrt(2 pi / (k a))
    flat = _flat_profile()
    for x, a, k in ((0.0, 1.0, 1.0), (0.2, 3.0, 7.5), (-0.3, 0.4, 20.0)):
        si = exact_solver.eval_I(flat, x, a, k)
        ref = math.sqrt(2.0 * math.pi / (k * a))
        assert abs(si.value(k) / ref - 1.0) < 1e-12


def test_flat_profile_velocity_vanishes():
    flat = _flat_profile()
    u, ux = exact_solver.eval_fields(flat, [0.1, 0.3], 2.0, 4.0)
    assert np.max(np.abs(u)) < 1e-10
    assert np.max(np.abs(ux)) < 1e-8


def test_scaled_integral_value():
    si = exact_solver.ScaledIntegral(mantissa=2.0, exponent=0.5)
    assert si.value(3.0) == 2.0 * math.exp(-1.5)


def test_snapshot_oddness(sine):
    snap = exact_solver.snapshot(sine, 1e-3, 50.0)
    assert snap.oddness_residual < 1e-9


def test_snapshot_and_snapshot_at_a_bit_identical(sine):
    t, k = 1e-3, 50.0
    s1 = exact_solver.snapshot(sine, t, k)
    s2 = exact_solver.snapshot_at_a(sine, 1.0 / (2.0 * k * t), k)
    assert np.array_equal(s1.u_values, s2.u_values)
    assert np.array_equal(s1.ux_values, s2.ux_values)


def test_time_zero_snapshot_echoes_data(sine):
    snap = exact_solver.snapshot(sine, 0.0, 7.0)
    assert snap.a == math.inf
    assert np.array_equal(snap.u_values, 7.0 * sine.f(snap.x_grid))


def test_large_a_limit_recovers_initial_data(sine):
    snap = exact_solver.snapshot_at_a(sine, 1e8, 5.0)
    sup = np.max(np.abs(snap.u_values - 5.0 * sine.f(snap.x_grid)))
    assert sup < 1e-4, f"sup = {sup:.3e}"


def test_u_matches_log_derivative_of_I(sine):
    # dual route: u = - d/dx log I, via centered differences of eval_I
    x, a, k = 0.1, 50.0, 5.0
    h = 1e-5

    def log_I(xq):
        si = exact_solver.eval_I(sine, xq, a, k)
        return math.log(si.mantissa) - k * si.exponent

    fd = -(log_I(x + h) - log_I(x - h)) / (2.0 * h)
    u = exact_solver.eval_u(sine, x, a, k)
    assert abs(fd - u) < 1e-5 * max(1.0, abs(u))


def test_ux_matches_derivative_of_u(sine):
    x, a, k = 0.15, 50.0, 5.0
    h = 1e-5
    fd = (exact_solver.eval_u(sine, x + h, a, k)
          - exact_solver.eval_u(sine, x - h, a, k)) / (2.0 * h)
    ux = exact_solver.eval_ux(sine, x, a, k)
    assert abs(fd - ux) < 1e-4 * max(1.0, abs(ux))


def test_uxx_consistent_with_moment_identity(sine):
    # third route: u_xx from the moment formula vs differences of u_x
    x, a, k = 0.2, 60.0, 4.0
    h = 1e-5
    _, _, uxx = exact_solver.eval_fields(sine, [x], a, k, want_uxx=True)
    fd = (exact_solver.eval_ux(sine, x + h, a, k)
          - exact_solver.eval_ux(sine, x - h, a, k)) / (2.0 * h)
    assert abs(fd - uxx[0]) < 1e-3 * max(1.0, abs(uxx[0]))


def test_phase_point_derivatives(sine):
    pp = exact_solver.PhasePoint(sine, 0.1, 30.0)
    for y in (-0.2, 0.05, 0.3):
        h = 1e-6
        fd1 = (pp.phi(y + h) - pp.phi(y - h)) / (2.0 * h)
        assert abs(fd1 - pp.phi_prime(y)) < 1e-7
        # wider step for the second difference, roundoff eats h = 1e-6
        h = 1e-4
        fd2 = (pp.phi(y + h) - 2.0 * pp.phi(y) + pp.phi(y - h)) / (h * h)
        assert abs(fd2 - pp.phi_double_prime(y)) < 1e-4


def test_solver_config_validation():
    with pytest.raises(ValueError):
        exact_solver.SolverConfig(quad_tolerance=1e-3)
    with pytest.raises(ValueError):
        exact_solver.SolverConfig(grid_size=100)


def test_unconverged_quadrature_names_the_point(sine, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 0)
    with pytest.raises(QuadratureError, match=r"x=0\.1"):
        exact_solver.eval_u(sine, 0.1, 50.0, 100.0)


def test_negative_time_rejected(sine):
    with pytest.raises(ValueError):
        exact_solver.snapshot(sine, -1.0, 5.0)
