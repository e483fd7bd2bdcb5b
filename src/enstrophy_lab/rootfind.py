"""Bracketed root finding: vectorized bisection with a Newton polish.

Bisection does the heavy lifting (it cannot leave the bracket), Newton
squeezes out the last few digits; `multisect` narrows brackets like
bisection in fewer, wider calls.  Works elementwise on arrays so the phase
stationary-point scan can polish the brackets of a whole batch of rows at
once.
`hermite` serves one scalar root of an expensive g whose antiderivative G
comes with each evaluation.
"""

from __future__ import annotations

import math

import numpy as np


def bisect(g, lo, hi, iters=52):
    """Bisection on arrays of brackets; g(lo) and g(hi) must differ in sign
    (either orientation, zeros allowed)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    # signs, not values: a product of two values of g can overflow
    slo = np.sign(g(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sm = np.sign(g(mid))
        move_lo = sm * slo > 0
        lo = np.where(move_lo, mid, lo)
        slo = np.where(move_lo, sm, slo)
        hi = np.where(move_lo, hi, mid)
    return 0.5 * (lo + hi)


def multisect(g, lo, hi, sections, rounds):
    """Bracket narrowing on arrays by n-section: each round evaluates g at
    the sections - 1 interior points of every bracket in one call and
    keeps the first subinterval from lo whose far end does not share
    g(lo)'s sign, so `rounds` calls of g narrow each bracket by
    sections**rounds, where bisection takes log2 of that many calls.
    g acts elementwise on y alone (it gets arrays of shape (n,) and (n,
    sections - 1)); g(lo) and g(hi) must differ in sign (either
    orientation, zeros allowed).  Returns the midpoints of the narrowed
    brackets."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    slo = np.sign(g(lo))
    frac = np.arange(1, sections) / sections
    each = np.arange(len(lo))
    at_hi = np.ones((len(lo), 1), dtype=bool)
    for _ in range(rounds):
        inner = lo[:, None] + (hi - lo)[:, None] * frac
        pts = np.column_stack([lo, inner, hi])
        # the first point past lo off lo's sign; hi when no inner one is
        off = np.sign(g(inner)) * slo[:, None] <= 0
        j = 1 + np.argmax(np.hstack([off, at_hi]), axis=1)
        lo, hi = pts[each, j - 1], pts[each, j]
    return 0.5 * (lo + hi)


def newton_polish(g, dg, x, lo, hi, steps=3):
    """A few clamped Newton steps; never leaves [lo, hi]."""
    x = np.asarray(x, dtype=float).copy()
    for _ in range(steps):
        d = dg(x)
        step = np.where(np.abs(d) > 1e-300, g(x) / np.where(d == 0, 1.0, d), 0.0)
        x = np.clip(x - step, lo, hi)
    return x


def bracketed_root(g, lo, hi, dg=None, iters=52, polish=3):
    """Scalar convenience: bisection then optional Newton polish."""
    r = bisect(g, np.array([lo]), np.array([hi]), iters=iters)
    if dg is not None:
        r = newton_polish(g, dg, r, lo, hi, steps=polish)
    return float(r[0])


# Relative round-off of G.  A mean excess c whose share c h of the rise
# of G lies below it is noise, and p falls back to the secant line.
# Measured on E(t), the T* search's G: at 1e-15 the noise in c pulled the
# last step of 4 of 61 searches (sine, k = 60 to 120) off the root, to
# |R| T*/E up to 7e-8; at 1e-10 the opening steps lost their curvature
# and 7 of 44 searches over the sweep-cli k range took one more step.
G_REL_NOISE = 1e-13


def _quadratic_root(xa, xb, ga, gb, Ga, Gb, lo, hi):
    """Root strictly inside (lo, hi), nearest xb, of the quadratic p with
    p(xa) = ga, p(xb) = gb and the integral of p from xa to xb equal to
    Gb - Ga; None when it has none."""
    h = xb - xa
    # p(xb - s h) = gb (1 - s) + ga s + 6 c s (1 - s): c is the mean of p
    # over the panel less the mean of its ends
    c = (Gb - Ga) / h - 0.5 * (ga + gb)
    if abs(c * h) <= G_REL_NOISE * max(abs(Ga), abs(Gb)):
        c = 0.0
    A, B, C = -6.0 * c, ga - gb + 6.0 * c, gb
    disc = B * B - 4.0 * A * C
    if not disc >= 0.0:
        return None
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    if q == 0.0:
        return None
    roots = [xb - C / q * h]
    if A != 0.0:
        roots.append(xb - q / A * h)
    inside = [x for x in roots if lo < x < hi]
    return min(inside, key=lambda x: abs(x - xb)) if inside else None


def hermite(f, x0, x1, y0, y1, xtol):
    """Root of scalar g between x0 and x1, where f(x) returns (g(x), G(x))
    with G' = g, given y0 = f(x0) and y1 = f(x1) with g of opposite sign.

    Each step goes to the root of the quadratic p that matches g at two
    evaluated points and whose integral between them is the rise of G.
    From the last two points evaluated when that root lies strictly inside
    the bracket; otherwise from the bracket ends, where g changes sign, so
    p has exactly one root inside; otherwise (round-off) by regula falsi.
    A curvature of p that G's round-off could explain (see G_REL_NOISE) is
    dropped, which makes p the secant line.
    Returns the last point evaluated once the ends are within xtol, the
    step it would take next is at most xtol, or g is exactly 0.  The step
    test ends the search once g sits at its noise floor, where further
    steps land on one side without closing the ends, and it does so before
    evaluating a point within xtol of the last one.
    """
    (g0, G0), (g1, G1) = y0, y1
    a, ga, Ga = x0, g0, G0          # the bracket's other end
    p, gp, Gp = x0, g0, G0          # the point evaluated before x1
    while g1 != 0 and abs(x1 - a) > xtol:
        lo, hi = min(a, x1), max(a, x1)
        x = _quadratic_root(p, x1, gp, g1, Gp, G1, lo, hi)
        if x is None:
            x = _quadratic_root(a, x1, ga, g1, Ga, G1, lo, hi)
        if x is None:
            x = x1 - g1 * (x1 - a) / (g1 - ga)
        if abs(x - x1) <= xtol:
            break
        gx, Gx = f(x)
        if (gx > 0) != (g1 > 0):
            a, ga, Ga = x1, g1, G1
        p, gp, Gp = x1, g1, G1
        x1, g1, G1 = x, gx, Gx
    return x1
