"""Bracketed root helpers on closed-form roots."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from enstrophy_lab.rootfind import (H_REL_NOISE, _fit_root, bisect,
                                   bracketed_root, hermite, multisect,
                                   newton_polish)


def test_bracketed_root_cosine():
    r = bracketed_root(np.cos, 0.0, 3.0, dg=lambda y: -np.sin(y))
    assert abs(r - math.pi / 2.0) < 1e-13


def test_bisect_vectorized_shifted_roots():
    shifts = np.linspace(0.1, 0.9, 7)
    g = lambda y: y - shifts
    r = bisect(g, np.zeros(7), np.ones(7), iters=52)
    assert np.max(np.abs(r - shifts)) < 1e-12


def test_multisect_narrows_like_24_bisections():
    # 4 rounds of 64-section narrow each bracket by 2^24, as 24 bisections
    # do: in either orientation, with the root at an end or on a section
    # point, and, where g changes sign more than once, onto one root
    for root in (0.1, 0.37, 0.5, 0.0, 1.0, 0.875):
        for sign in (1.0, -1.0):
            r = multisect(lambda y: sign * (y - root), np.zeros(1),
                          np.ones(1), sections=64, rounds=4)
            assert abs(r[0] - root) <= 2.0 ** -25, (root, sign)
    lo, hi = np.array([0.0, 0.2, 0.0]), np.array([0.2, 0.6, 3.0])
    r = multisect(lambda y: np.cos(9.0 * y), lo, hi, sections=64, rounds=4)
    assert np.allclose(r[:2], [math.pi / 18.0, math.pi / 6.0], rtol=0.0,
                       atol=2.0 ** -25)
    assert abs(math.cos(9.0 * r[2])) <= 9.0 * 3.0 * 2.0 ** -25


def test_bisect_survives_values_whose_product_overflows():
    # g = 1e200 (y - 0.3): g(lo) g(mid) overflows, which used to raise
    # under -W error::RuntimeWarning
    r = bisect(lambda y: 1e200 * (y - 0.3), np.zeros(1), np.ones(1))
    assert abs(r[0] - 0.3) < 1e-15


def test_newton_polish_stays_in_bracket():
    # start far off; polish must clamp to [lo, hi] and still improve
    g = lambda y: y ** 3 - 2.0
    dg = lambda y: 3.0 * y ** 2
    x = newton_polish(g, dg, np.array([1.0]), 1.0, 2.0, steps=6)
    assert abs(x[0] - 2.0 ** (1.0 / 3.0)) < 1e-12
    assert 1.0 <= x[0] <= 2.0


def _solve(g, G, H, x0, x1, xtol, solve=hermite):
    """solve's root of g from x0 and x1, with every point evaluated."""
    calls = []

    def f(y):
        calls.append(y)
        return g(y), G(y), H(y)

    return solve(f, x0, x1, f(x0), f(x1), xtol), calls


def _skewed(y):
    return y ** 5 - 0.5


def _skewed_G(y):
    return y ** 6 / 6.0 - 0.5 * y


def _skewed_H(y):
    return y ** 7 / 42.0 - 0.25 * y * y


def _noisy(y):
    return math.expm1(5.0 * (y - 0.3)) + 1e-12 * math.sin(1e9 * y * y + 3.0)


def _noisy_G(y):
    # the smooth part's antiderivative: the noise term's is below 1e-20
    return math.expm1(5.0 * (y - 0.3)) / 5.0 - (y - 0.3)


def _noisy_H(y):
    d = y - 0.3
    return math.expm1(5.0 * d) / 25.0 - d / 5.0 - d * d / 2.0


def test_hermite_superlinear_on_skewed_root():
    # plain regula falsi keeps one end fixed on a convex g like this one and
    # never closes the bracket; Pegasus needed 22 calls here
    r, calls = _solve(_skewed, _skewed_G, _skewed_H, 1.5, 0.0, 1e-14)
    assert abs(r - 0.5 ** 0.2) < 1e-13
    assert len(calls) <= 2 + 6


def test_hermite_exact_in_one_step_on_a_quadratic_g():
    # from the bracket ends the fitted quadratic is g itself, so the first
    # step lands on the root and the one after it is below xtol
    r, calls = _solve(lambda y: (y - 0.3) * (y + 0.7),
                      lambda y: y ** 3 / 3.0 + 0.2 * y * y - 0.21 * y,
                      lambda y: y ** 4 / 12.0 + y ** 3 / 15.0 - 0.105 * y * y,
                      0.0, 1.0, 1e-12)
    assert abs(r - 0.3) < 1e-15
    assert len(calls) == 2 + 1


def test_hermite_exact_in_one_step_on_a_cubic_g_given_g_G_and_H():
    # from the bracket ends g, the rise of G and the rise of H fix a cubic,
    # so the first step lands on the root of g = (y - 0.3)(y + 0.7)(y + 1.5)
    # and the one after it is below xtol; without H the quadratic's first
    # step is off by 2.1e-2 and the search takes two more calls
    r, calls = _solve(
        lambda y: y ** 3 + 1.9 * y * y + 0.39 * y - 0.315,
        lambda y: y ** 4 / 4.0 + 1.9 * y ** 3 / 3.0 + 0.195 * y * y
        - 0.315 * y,
        lambda y: y ** 5 / 20.0 + 1.9 * y ** 4 / 12.0 + 0.065 * y ** 3
        - 0.1575 * y * y,
        0.0, 1.0, 1e-12)
    assert abs(r - 0.3) < 1e-15
    assert len(calls) == 2 + 1


def test_hermite_stops_on_a_step_below_xtol():
    # g carries a deterministic noise floor of 1e-12; once a step moves by
    # at most xtol the search returns the last point evaluated
    xtol = 1e-9
    r, calls = _solve(_noisy, _noisy_G, _noisy_H, 0.25, 0.45, xtol)
    assert abs(r - 0.3) <= xtol
    assert r == calls[-1]
    assert len(calls) <= 10


def test_hermite_stops_on_a_step_below_xtol_from_the_far_end():
    # the noise floor of the test above, bracketed from 0.45
    xtol = 1e-9
    r, calls = _solve(_noisy, _noisy_G, _noisy_H, 0.45, 0.25, xtol)
    assert abs(r - 0.3) <= xtol
    assert r == calls[-1]
    assert len(calls) <= 10


def test_hermite_at_a_noise_floor_in_both_g_and_G():
    # G carries its own noise of 1e-12, ten times its round-off bar
    # G_REL_NOISE |G| near the root, so the fitted curvature is noise
    # once the points close in; the bracket still closes on the root
    xtol = 1e-9

    def G(y):
        return _noisy_G(y) + 1e-12 * math.cos(7e8 * y + 1.0)

    for x0, x1 in ((0.25, 0.45), (0.45, 0.25), (0.0, 1.0)):
        r, calls = _solve(_noisy, G, _noisy_H, x0, x1, xtol)
        assert abs(r - 0.3) <= xtol, (x0, x1)
        assert r == calls[-1]
        assert len(calls) <= 10, (x0, x1)


def test_hermite_at_a_noise_floor_in_g_G_and_H():
    # H, shifted to about 1 near the root, carries noise of 1e-12, ten
    # times its round-off bar H_REL_NOISE |H|, on top of the noise floors
    # of g and G above; the bracket still closes on the root
    xtol = 1e-9
    assert 10.0 * H_REL_NOISE == 1e-12

    def G(y):
        return _noisy_G(y) + 1e-12 * math.cos(7e8 * y + 1.0)

    def H(y):
        return 1.0 + _noisy_H(y) + 1e-12 * math.sin(5e8 * y + 2.0)

    for x0, x1 in ((0.25, 0.45), (0.45, 0.25), (0.0, 1.0)):
        r, calls = _solve(_noisy, G, H, x0, x1, xtol)
        assert abs(r - 0.3) <= xtol, (x0, x1)
        assert r == calls[-1]
        assert len(calls) <= 10, (x0, x1)


def test_hermite_on_a_steep_exponential():
    # exp(-30 y) - 0.05 is flat over most of [0, 1]; Illinois needed 17
    # calls here and Pegasus 15
    xtol = 1e-12
    r, calls = _solve(lambda y: math.exp(-30.0 * y) - 0.05,
                      lambda y: -math.exp(-30.0 * y) / 30.0 - 0.05 * y,
                      lambda y: math.exp(-30.0 * y) / 900.0 - 0.025 * y * y,
                      0.0, 1.0, xtol)
    assert abs(r - math.log(20.0) / 30.0) <= xtol
    assert len(calls) <= 10


def _hermite_step_rule(f, x0, x1, y0, y1, xtol):
    """Reference: `hermite` without the stop on the predicted step, so it
    evaluates each point before testing the step it took."""
    a, ya = x0, y0
    p, yp = x0, y0
    while y1[0] != 0 and abs(x1 - a) > xtol:
        lo, hi = min(a, x1), max(a, x1)
        pts = sorted((t, *y) for t, y in {a: ya, p: yp, x1: y1}.items())
        x = _fit_root(pts, x1, lo, hi)
        if x is None:
            x = x1 - y1[0] * (x1 - a) / (y1[0] - ya[0])
        y = f(x)
        if (y[0] > 0) != (y1[0] > 0):
            a, ya = x1, y1
        step = abs(x - x1)
        p, yp = x1, y1
        x1, y1 = x, y
        if step <= xtol:
            break
    return x1


def test_hermite_stops_when_the_next_step_is_below_xtol():
    # on a smooth g the step shrinks superlinearly, so once the step the
    # search would take is at most xtol the last point evaluated is within
    # xtol of the root, and evaluating that step costs one call for nothing
    root = 0.5 ** 0.2
    xtol = 1e-9
    counts = []
    for solve in (hermite, _hermite_step_rule):
        r, calls = _solve(_skewed, _skewed_G, _skewed_H, 0.5, 1.2, xtol,
                          solve)
        assert abs(r - root) <= xtol
        assert r == calls[-1]
        counts.append(len(calls))
    assert counts[0] == counts[1] - 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(root=st.floats(0.05, 0.95), lo=st.floats(0.0, 1.0),
       hi=st.floats(0.0, 1.0), c1=st.floats(-20.0, 20.0),
       c2=st.floats(0.0, 200.0), noise=st.sampled_from([0.0, 1e-12]),
       h_noise=st.sampled_from([0.0, 1e-12]), flip=st.booleans())
def test_hermite_iterates_stay_strictly_inside_the_bracket(
        root, lo, hi, c1, c2, noise, h_noise, flip):
    # g = d (1 + c1 d + c2 d^2) with d = y - root may have three roots, and
    # g, G and H may carry noise; each point evaluated after the first two
    # lies strictly inside the bracket of the points evaluated before it
    def g(y):
        d = y - root
        return d * (1.0 + c1 * d + c2 * d * d) + noise * math.sin(1e9 * y)

    def G(y):
        d = y - root
        return (d * d * (0.5 + c1 * d / 3.0 + c2 * d * d / 4.0)
                + noise * math.cos(7e8 * y))

    def H(y):
        d = y - root
        return (d ** 3 * (1.0 / 6.0 + c1 * d / 12.0 + c2 * d * d / 20.0)
                + h_noise * math.sin(5e8 * y + 2.0))

    assume(g(lo) * g(hi) < 0)
    x0, x1 = (hi, lo) if flip else (lo, hi)
    r, calls = _solve(g, G, H, x0, x1, 1e-12)
    a, b = x0, x1
    for x in calls[2:]:
        assert min(a, b) < x < max(a, b)
        if (g(x) > 0) == (g(a) > 0):
            a = x
        else:
            b = x
    assert r == calls[-1]
