"""Bracketed root helpers on closed-form roots."""

import math

import numpy as np

from enstrophy_lab.rootfind import (bisect, bracketed_root, newton_polish,
                                   pegasus)


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
    # never closes the bracket; Pegasus must move both ends
    calls = []

    def g(y):
        calls.append(y)
        return y ** 5 - 0.5

    root = 0.5 ** 0.2
    r = pegasus(g, 1.5, 0.0, g(1.5), g(0.0), 1e-14)
    assert abs(r - root) < 1e-13
    assert len(calls) <= 2 + 20


def test_illinois_stops_on_a_step_below_xtol():
    # g carries a deterministic noise floor of 1e-12; once a secant step
    # moves by at most xtol the search returns that point.  (From this end
    # Pegasus needs 9 calls with or without the step test; the reversed
    # bracket below is the case the step test shortens.)
    calls = []

    def g(y):
        calls.append(y)
        return math.expm1(5.0 * (y - 0.3)) + 1e-12 * math.sin(1e9 * y * y
                                                              + 3.0)

    xtol = 1e-9
    r = pegasus(g, 0.25, 0.45, g(0.25), g(0.45), xtol)
    assert abs(r - 0.3) <= xtol
    assert r == calls[-1]               # the last point evaluated
    assert len(calls) <= 10


def test_pegasus_stops_on_a_step_below_xtol_from_the_far_end():
    # the noise floor of the test above, bracketed from 0.45: without the
    # step test the last four calls re-evaluate points within 1e-13 of the
    # root while the far end stays put, 12 calls in all
    calls = []

    def g(y):
        calls.append(y)
        return math.expm1(5.0 * (y - 0.3)) + 1e-12 * math.sin(1e9 * y * y
                                                              + 3.0)

    xtol = 1e-9
    r = pegasus(g, 0.45, 0.25, g(0.45), g(0.25), xtol)
    assert abs(r - 0.3) <= xtol
    assert r == calls[-1]
    assert len(calls) <= 10


def test_pegasus_beats_illinois_on_a_steep_exponential():
    # exp(-30 y) - 0.05 is flat over most of [0, 1]; Illinois' halving of
    # the stored g needs 17 calls here, Pegasus' g1 / (g1 + gx) factor 15
    calls = []

    def g(y):
        calls.append(y)
        return math.exp(-30.0 * y) - 0.05

    xtol = 1e-12
    r = pegasus(g, 0.0, 1.0, g(0.0), g(1.0), xtol)
    assert abs(r - math.log(20.0) / 30.0) <= xtol
    assert len(calls) <= 15


def _pegasus_step_rule(g, x0, x1, g0, g1, xtol):
    """Reference: `pegasus` without the stop on the predicted step, so it
    evaluates the secant point before testing the step it took."""
    while g1 != 0 and abs(x1 - x0) > xtol:
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        gx = g(x)
        if (gx > 0) != (g1 > 0):
            x0, g0 = x1, g1
        else:
            g0 *= g1 / (g1 + gx)
        step = abs(x - x1)
        x1, g1 = x, gx
        if step <= xtol:
            break
    return x1


def test_pegasus_stops_when_the_next_step_is_below_xtol():
    # on a smooth g the secant step shrinks superlinearly, so once the step
    # Pegasus would take is at most xtol the last point evaluated is within
    # xtol of the root, and evaluating that step costs one call for nothing
    root = 0.5 ** 0.2
    xtol = 1e-9
    counts = []
    for solve in (pegasus, _pegasus_step_rule):
        calls = []

        def g(y):
            calls.append(y)
            return y ** 5 - 0.5

        r = solve(g, 0.5, 1.2, g(0.5), g(1.2), xtol)
        assert abs(r - root) <= xtol
        assert r == calls[-1]
        counts.append(len(calls))
    assert counts[0] == counts[1] - 1
