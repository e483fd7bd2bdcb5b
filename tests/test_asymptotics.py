"""Root structure, Laplace reductions and the leading-order predictions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from enstrophy_lab import asymptotics, exact_solver, profiles
from enstrophy_lab.quadrature import QuadratureError

TWO_PI_SQ = 2.0 * math.pi ** 2


def test_fold_location_closed_form(sine):
    # at a = 2 pi^2: f'(sigma) = -a gives cos(2 pi sigma) = 1/2, so
    # sigma = 1/6 and x0 = -1/6 + sqrt(3)/(2 pi)
    x0 = asymptotics.fold_location(sine, TWO_PI_SQ)
    assert abs(x0 - (-1.0 / 6.0 + math.sqrt(3.0) / (2.0 * math.pi))) < 1e-10


def test_fold_location_domain(sine):
    with pytest.raises(ValueError):
        asymptotics.fold_location(sine, 5.0 * math.pi ** 2)
    with pytest.raises(ValueError):
        asymptotics.fold_location(sine, 0.0)


def test_root_regimes(sine):
    apf = 4.0 * math.pi ** 2
    assert asymptotics.find_roots(sine, 0.3, 2 * apf).regime == \
        asymptotics.SINGLE
    x0 = asymptotics.fold_location(sine, TWO_PI_SQ)
    assert asymptotics.find_roots(sine, 0.5 * x0, TWO_PI_SQ).regime == \
        asymptotics.TRIPLE
    assert asymptotics.find_roots(sine, 2.0 * x0, TWO_PI_SQ).regime == \
        asymptotics.POST_FOLD


def test_find_roots_domain(sine):
    with pytest.raises(ValueError):
        asymptotics.find_roots(sine, 0.6, TWO_PI_SQ)
    with pytest.raises(ValueError):
        asymptotics.find_roots(sine, 0.1, -1.0)


@pytest.mark.parametrize("call", [
    lambda p: asymptotics.find_roots(p, 0.1, math.nan),
    lambda p: asymptotics.find_roots(p, 0.1, math.inf),
    lambda p: asymptotics.find_roots(p, 0.1, 0.0),
    lambda p: asymptotics.asymptotic_u(p, [0.05, 0.1], math.nan, 5.0),
    lambda p: asymptotics.leading_enstrophy(p, math.inf, 5.0),
    lambda p: asymptotics.leading_energy(p, math.inf, 5.0),
], ids=["find_roots-nan", "find_roots-inf", "find_roots-0", "asymptotic_u-nan",
        "leading_enstrophy-inf", "leading_energy-inf"])
def test_curvature_outside_open_half_line_raises(sine, call):
    with pytest.raises(ValueError, match="a must be positive and finite"):
        call(sine)


@pytest.mark.parametrize("k", [0.0, -3.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda p, k: asymptotics.predict(p, k),
    lambda p, k: asymptotics.bifurcation_data(p, k),
    lambda p, k: asymptotics.matching_point(p, 10.0, k),
    lambda p, k: asymptotics.asymptotic_u(p, [0.05, 0.1], TWO_PI_SQ, k),
    lambda p, k: asymptotics.asymptotic_ux(p, 0.1, TWO_PI_SQ, k),
    lambda p, k: asymptotics.leading_enstrophy(p, TWO_PI_SQ, k),
    lambda p, k: asymptotics.leading_energy(p, TWO_PI_SQ, k),
], ids=["predict", "bifurcation_data", "matching_point", "asymptotic_u",
        "asymptotic_ux", "leading_enstrophy", "leading_energy"])
def test_k_outside_open_half_line_raises(sine, call, k):
    with pytest.raises(ValueError, match="k must be positive and finite"):
        call(sine, k)


def _brentq_roots(profile, x, a, lo, hi):
    g = lambda s: float(profile.f(s)) + a * (s - x)
    return brentq(g, lo, hi, xtol=1e-16, rtol=4 * np.finfo(float).eps,
                  maxiter=200)


@pytest.mark.parametrize("name", ["sine", "two_term"])
def test_find_roots_array_matches_brentq(name, request):
    profile = request.getfixturevalue(name)
    apf = abs(profile.f_prime_at_zero)
    a = 2.0 * apf
    xs = np.linspace(0.0, 0.5, 21)
    rs = asymptotics.find_roots(profile, xs, a)
    assert rs.s_plus.shape == xs.shape
    assert (rs.regime == asymptotics.SINGLE).all()
    ref = [_brentq_roots(profile, x, a, x - 0.5, x + 0.5) for x in xs]
    assert np.max(np.abs(rs.s_plus - ref)) <= 1e-13
    for field in (rs.s_minus, rs.s_mid, rs.varphi, rs.chi):
        assert np.isnan(field).all()

    # at a*, x on both sides of the fold: triple, then post-fold
    a = asymptotics.bifurcation_data(profile, 50.0).a_star
    x0 = asymptotics.fold_location(profile, a)
    xs = np.concatenate([x0 * np.linspace(0.0, 0.95, 11),
                         np.linspace(1.05 * x0, 0.45, 11)])
    triple = xs < x0
    rs = asymptotics.find_roots(profile, xs, a)
    assert list(rs.regime) == [asymptotics.TRIPLE] * 11 \
        + [asymptotics.POST_FOLD] * 11
    sigma = brentq(lambda s: float(profile.f_prime(s)) + a, 0.0, 0.5,
                   xtol=1e-16, rtol=4 * np.finfo(float).eps)
    for i, x in enumerate(xs):
        assert abs(rs.s_plus[i]
                   - _brentq_roots(profile, x, a, sigma, 0.5)) <= 1e-13
        if triple[i]:
            assert abs(rs.s_minus[i]
                       - _brentq_roots(profile, x, a, -0.5, -sigma)) <= 1e-13
            assert abs(rs.s_mid[i]
                       - _brentq_roots(profile, x, a, -sigma, sigma)) <= 1e-13
    for field in (rs.s_minus, rs.s_mid, rs.varphi, rs.chi):
        assert np.array_equal(np.isnan(field), ~triple)

    # a scalar x gets a str regime and float fields
    one = asymptotics.find_roots(profile, float(xs[3]), a)
    assert isinstance(one.regime, str) and one.regime == asymptotics.TRIPLE
    for value in (one.s_plus, one.s_minus, one.s_mid, one.varphi, one.chi):
        assert isinstance(value, float)
    assert one.varphi == rs.varphi[3] and one.chi == rs.chi[3]

    # one x outside [0, 1/2] fails the whole array
    for bad in (0.6, -0.1, math.nan):
        with pytest.raises(ValueError, match="x in \\[0, 1/2\\]"):
            asymptotics.find_roots(profile, np.append(xs, bad), a)


def test_find_roots_solves_the_fold_once_per_call(sine, monkeypatch):
    solves = []
    real = asymptotics.bracketed_root

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(asymptotics, "bracketed_root", counted)
    rs = asymptotics.find_roots(sine, np.linspace(0.0, 0.45, 40), TWO_PI_SQ)
    assert set(rs.regime) == {asymptotics.TRIPLE, asymptotics.POST_FOLD}
    assert len(solves) == 1


def test_asymptotic_u_array_matches_pointwise_calls(sine):
    a, k = TWO_PI_SQ, 50.0
    x1 = asymptotics.matching_point(sine, a, k)
    x0 = asymptotics.fold_location(sine, a)
    half = np.array([0.0, 0.5 * x1, x1, 1.5 * x1, 0.5 * (x1 + x0),
                     1.5 * x0, 0.45])
    xs = np.concatenate([half, -half[::-1]])
    for field in (asymptotics.asymptotic_u, asymptotics.asymptotic_ux):
        whole = field(sine, xs, a, k)
        each = np.array([field(sine, float(x), a, k) for x in xs])
        assert np.array_equal(whole, each)


def test_symmetric_point_values(sine):
    rs = asymptotics.find_roots(sine, 0.0, TWO_PI_SQ)
    assert abs(rs.varphi) < 1e-14
    assert abs(rs.chi - 1.0) < 1e-14
    assert abs(rs.s_plus + rs.s_minus) < 1e-13


def test_varphi_slope_at_zero(sine):
    # d varphi / dx at x = 0 equals a (s_plus - s_minus) = -2 f(s_plus)
    a = TWO_PI_SQ
    rs0 = asymptotics.find_roots(sine, 0.0, a)
    h = 1e-6
    fd = asymptotics.find_roots(sine, h, a).varphi / h
    expect = -2.0 * float(sine.f(rs0.s_plus))
    assert abs(fd / expect - 1.0) < 1e-4
    assert abs(a * (rs0.s_plus - rs0.s_minus) / expect - 1.0) < 1e-12


def test_chi_blowup_approaching_fold(sine):
    # chi ~ (x0 - x)^{-1/4}: grows slowly, clearing 1e3 only around
    # (x0 - x)/x0 ~ 1e-13
    x0 = asymptotics.fold_location(sine, TWO_PI_SQ)
    chis = [asymptotics.find_roots(sine, x0 * (1.0 - eps), TWO_PI_SQ).chi
            for eps in (1e-8, 1e-10, 1e-13)]
    assert chis[0] > 10.0
    assert chis[0] < chis[1] < chis[2]
    assert chis[2] > 1e3


def test_laplace_interior_toy():
    si = asymptotics.laplace_interior(lambda y: 5.0 * y * y,
                                      lambda y: 1.0, 0.0, 1.0)
    assert abs(si.value(1.0) - math.sqrt(2.0 * math.pi / 10.0)) < 1e-8
    assert si.exponent == 0.0


def test_laplace_endpoint_toy():
    si = asymptotics.laplace_endpoint(lambda y: 10.0 * y,
                                      lambda y: 1.0, 1.0)
    assert abs(si.value(1.0) - 0.1) < 1e-9


def test_laplace_interior_matches_exact_integral(sine):
    # Laplace value vs the adaptive quadrature route, compared in logs to
    # dodge overflow of e^{-k phi_min}
    x, a, k = 0.1, 50.0, 100.0
    s = asymptotics.find_roots(sine, x, a).s_plus
    lap = asymptotics.laplace_interior(
        lambda y: sine.F(y) + 0.5 * a * (x - y) ** 2, lambda y: 1.0, s, k)
    m, r = exact_solver._phase_moments(sine, np.array([x]), a, k,
                                       n_moments=0)
    diff = (math.log(lap.mantissa) - k * lap.exponent) \
        - (math.log(r[0, 0]) - k * m[0])
    assert abs(math.expm1(diff)) < 1e-2


def test_laplace_rejects_bad_stationary_points():
    with pytest.raises(ValueError):
        asymptotics.laplace_interior(lambda y: y, lambda y: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        asymptotics.laplace_endpoint(lambda y: -y, lambda y: 1.0, 1.0)


def test_matching_point_level_set(sine):
    bd = asymptotics.bifurcation_data(sine, 100.0)
    a = TWO_PI_SQ
    x1 = bd.x1(a)
    assert bd.x0(a) / 100.0 <= x1 <= bd.x0(a) / 2.0
    if x1 < bd.x0(a) / 2.0 * (1.0 - 1e-12):
        rs = asymptotics.find_roots(sine, x1, a)
        assert abs(100.0 * rs.varphi - 36.0) < 1e-6


def test_bifurcation_closed_forms(sine):
    k = 10.0
    bd = asymptotics.bifurcation_data(sine, k)
    assert abs(bd.t0 - 1.0 / (8.0 * math.pi ** 2 * k)) < 1e-16
    assert abs(bd.a_pitchfork - 4.0 * math.pi ** 2) < 1e-12
    assert abs(bd.a_star - 8.0 * math.pi) < 1e-10
    # x0(a*) closed form: sigma = arccos(2/pi)/(2 pi),
    # x0 = -sigma + sin(2 pi sigma)/4
    sigma = math.acos(2.0 / math.pi) / (2.0 * math.pi)
    x0_exact = -sigma + math.sin(2.0 * math.pi * sigma) / 4.0
    assert abs(bd.x0(bd.a_star) - x0_exact) < 1e-10


def test_predictions_sine_closed_forms(sine):
    # T* = x*/(2 k |f(x*)|), E = (1/2) k^3 |f(x*)|^3, drop = pi^2 k^2/6
    pred = asymptotics.predict(sine, 10.0)
    assert abs(pred.T_star - 1.0 / (160.0 * math.pi)) < 1e-16
    assert abs(pred.E_max_leading - 4000.0 * math.pi ** 3) < 1e-6
    assert abs(pred.K_drop_leading - 100.0 * math.pi ** 2 / 6.0) < 1e-9
    assert abs(pred.K_at_max_leading
               - (100.0 * math.pi ** 2 - pred.K_drop_leading)) < 1e-9


def test_leading_enstrophy_branches_at_pitchfork(sine):
    k = 10.0
    apf = 4.0 * math.pi ** 2
    e0 = 4.0 * math.pi ** 4 * k * k
    assert asymptotics.leading_enstrophy(sine, apf, k) == 0.0
    # spike branch: the coefficient |f(s+)|^3 vanishes as a -> apf from below
    lo = asymptotics.leading_enstrophy(sine, apf * (1.0 - 1e-4), k)
    assert 0.0 < lo < 1e-2 * k ** 3
    # smooth branch: O(k^2), decreasing toward E(u0) as a grows
    near = asymptotics.leading_enstrophy(sine, 2.0 * apf, k)
    mid = asymptotics.leading_enstrophy(sine, 10.0 * apf, k)
    far = asymptotics.leading_enstrophy(sine, 100.0 * apf, k)
    assert e0 < far < mid < near
    assert abs(near / e0 - 1.2376) < 1e-3
    assert abs(far / e0 - 1.0) < 1e-3


def test_leading_enstrophy_peaks_at_a_star(sine):
    k = 10.0
    bd = asymptotics.bifurcation_data(sine, k)
    e_star = asymptotics.leading_enstrophy(sine, bd.a_star, k)
    assert abs(e_star - asymptotics.predict(sine, k).E_max_leading) < 1e-6
    for a in (0.5 * bd.a_star, 2.0 * bd.a_star):
        assert asymptotics.leading_enstrophy(sine, a, k) < e_star


def test_leading_energy_small_a_limit(sine):
    # as a -> 0 the transition-layer term dominates: K -> k^2 a^2 / 24
    k = 3.0
    for a, tol in ((1e-2, 1e-2), (1e-3, 1e-3)):
        v = asymptotics.leading_energy(sine, a, k)
        assert abs(v / (k * k * a * a / 24.0) - 1.0) < tol


def test_asymptotic_u_error_is_order_one(sine):
    # absolute field error stays O(1) while the field itself is O(k)
    xs = np.linspace(1.0 / 64.0, 0.5 - 1.0 / 64.0, 31)
    a, k = 8.0 * math.pi ** 2, 100.0
    u_e, _ = exact_solver.eval_fields(sine, xs, a, k)
    u_a = asymptotics.asymptotic_u(sine, xs, a, k)
    assert np.max(np.abs(u_e - u_a)) < 5.0


def test_asymptotic_fields_respect_symmetry(sine):
    a, k = TWO_PI_SQ, 50.0
    xs = np.array([-0.2, -0.05, 0.05, 0.2])
    u = asymptotics.asymptotic_u(sine, xs, a, k)
    ux = asymptotics.asymptotic_ux(sine, xs, a, k)
    assert np.allclose(u[:2], -u[:1:-1], rtol=0, atol=1e-12)
    assert np.allclose(ux[:2], ux[:1:-1], rtol=0, atol=1e-12)


def test_required_bound_report(sine):
    bc = asymptotics.check_required_bound(sine)
    assert bc.ok
    assert bc.identity_residual < 1e-6
    assert bc.x[0] == 0.0 and abs(bc.x[-1] - sine.x_star) < 1e-15


def test_required_bound_raises_when_f_squared_is_not_integrable(sine):
    # f^2 = |y - 0.1|^-1.5 has no integral across y = 0.1 in [0, x_star]
    bad = dataclasses.replace(sine, f=lambda y: -abs(y - 0.1) ** -0.75)
    with np.errstate(divide="ignore"), pytest.raises(
            QuadratureError, match=re.escape(f"[0, {sine.x_star}]")):
        asymptotics.check_required_bound(bad)
