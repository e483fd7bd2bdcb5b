"""Bracketed root helpers on closed-form roots."""

import math

import numpy as np

from enstrophy_lab.rootfind import (bisect, bracketed_root, illinois,
                                   newton_polish)


def test_bracketed_root_cosine():
    r = bracketed_root(np.cos, 0.0, 3.0, dg=lambda y: -np.sin(y))
    assert abs(r - math.pi / 2.0) < 1e-13


def test_bisect_vectorized_shifted_roots():
    shifts = np.linspace(0.1, 0.9, 7)
    g = lambda y: y - shifts
    r = bisect(g, np.zeros(7), np.ones(7), iters=52)
    assert np.max(np.abs(r - shifts)) < 1e-12


def test_newton_polish_stays_in_bracket():
    # start far off; polish must clamp to [lo, hi] and still improve
    g = lambda y: y ** 3 - 2.0
    dg = lambda y: 3.0 * y ** 2
    x = newton_polish(g, dg, np.array([1.0]), 1.0, 2.0, steps=6)
    assert abs(x[0] - 2.0 ** (1.0 / 3.0)) < 1e-12
    assert 1.0 <= x[0] <= 2.0


def test_illinois_superlinear_on_skewed_root():
    # plain regula falsi keeps one end fixed on a convex g like this one and
    # never closes the bracket; Illinois must move both ends
    calls = []

    def g(y):
        calls.append(y)
        return y ** 5 - 0.5

    root = 0.5 ** 0.2
    r = illinois(g, 1.5, 0.0, g(1.5), g(0.0), 1e-14)
    assert abs(r - root) < 1e-13
    assert len(calls) <= 2 + 20


def test_illinois_stops_on_a_step_below_xtol():
    # g carries a deterministic noise floor of 1e-12; once a secant step
    # moves by at most xtol the search returns that point.  Without the
    # step test it takes 12 calls here, the last three re-evaluating
    # points within 1e-16 of each other while the far end stays put.
    calls = []

    def g(y):
        calls.append(y)
        return math.expm1(5.0 * (y - 0.3)) + 1e-12 * math.sin(1e9 * y * y
                                                              + 3.0)

    xtol = 1e-9
    r = illinois(g, 0.25, 0.45, g(0.25), g(0.45), xtol)
    assert abs(r - 0.3) <= xtol
    assert r == calls[-1]               # the last point evaluated
    assert len(calls) <= 10
