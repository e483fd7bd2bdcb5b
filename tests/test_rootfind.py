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
