"""Bracketed root finding: vectorized bisection with a Newton polish.

Bisection does the heavy lifting (it cannot leave the bracket), Newton
squeezes out the last few digits.  Works elementwise on arrays so the phase
stationary-point scan can polish the brackets of a whole batch of rows at
once.
`pegasus` serves one scalar root of an expensive g with no derivative.
"""

from __future__ import annotations

import numpy as np


def bisect(g, lo, hi, iters=52):
    """Bisection on arrays of brackets; g(lo) and g(hi) must differ in sign
    (either orientation, zeros allowed)."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        move_lo = gm * glo > 0
        lo = np.where(move_lo, mid, lo)
        glo = np.where(move_lo, gm, glo)
        hi = np.where(move_lo, hi, mid)
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


def pegasus(g, x0, x1, g0, g1, xtol):
    """Root of scalar g between x0 and x1, given g0 = g(x0) and g1 = g(x1) of
    opposite sign, by Pegasus regula falsi (Dowell & Jarratt, BIT 12, 1972):
    secant steps; when two in a row land on the same side, the far end's
    stored g is scaled by g1 / (g1 + g(x)), so both ends move.  Returns the
    last point evaluated once the ends are within xtol, the secant step it
    would take next is at most xtol, or g is exactly 0.  The step test ends
    the search once g sits at its noise floor, where further steps land on
    one side without closing the ends, and it does so before evaluating a
    point within xtol of the last one."""
    while g1 != 0 and abs(x1 - x0) > xtol:
        step = g1 * (x1 - x0) / (g1 - g0)
        if abs(step) <= xtol:
            break
        x = x1 - step
        gx = g(x)
        if (gx > 0) != (g1 > 0):
            x0, g0 = x1, g1
        else:
            g0 *= g1 / (g1 + gx)
        x1, g1 = x, gx
    return x1
