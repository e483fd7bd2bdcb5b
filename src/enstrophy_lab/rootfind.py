"""Bracketed root finding: vectorized bisection with a Newton polish.

Bisection does the heavy lifting (it cannot leave the bracket), Newton
squeezes out the last few digits; `multisect` narrows brackets like
bisection in fewer, wider calls.  Works elementwise on arrays so the phase
stationary-point scan can polish the brackets of a whole batch of rows at
once.
`hermite` serves one scalar root of an expensive g whose first and second
antiderivatives G and H come with each evaluation: each step goes to the
root of one Hermite-Birkhoff polynomial that matches g at up to three
points and the rises of G and H between them, less the rises round-off
could explain.
"""

from __future__ import annotations

import numpy as np

from .quadrature import NODES, W_KRONROD


def bisect(g, lo, hi, iters=52):
    """Bisection on arrays of brackets; g(lo) and g(hi) must differ in sign
    (either orientation, zeros allowed)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # signs, not values: a product of two values of g can overflow; lo
    # only moves to a point of its own sign, so slo never changes
    slo = np.sign(g(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        move_lo = np.sign(g(mid)) * slo > 0
        lo = np.where(move_lo, mid, lo)
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


# Relative round-off of G.  An interval whose rise of G departs from the
# secant line's, h (g_i + g_j) / 2, by no more than this share of |G| at
# its ends carries no curvature, and its G row is dropped from the fit.
# Measured on E(t), the T* search's G, with fits of g and G alone: at
# 1e-15 the noise in the fitted curvature pulled the last step of 4 of 61
# searches (sine, k = 60 to 120) off the root, to |R| T*/E up to 7e-8; at
# 1e-10 the opening steps lost their curvature and 7 of 44 searches over
# the sweep-cli k range took one more step.
G_REL_NOISE = 1e-13
# Relative round-off of H, of the same kind: an interval whose rise of H
# the fit without H rows already predicts to within this share of |H| at
# its ends carries no signal, and its H row is dropped.  Measured on -K/2,
# the T* search's H, whose rise between nearby t matches the integral of E
# to 1e-16 to 1e-15 of K: over 173 searches (sine at k = 5 to 10240,
# [1, 0.1] at k = 20 to 2560, the sweep-cli and tstar-single k lists),
# with no bar 34 took one to three more evaluations than quadratic steps
# on (g, G) alone, by fitting points 1e-8 T* apart or a rise of K below
# its round-off; at 1e-15 one did; from 1e-14 to 1e-10 none did, and the
# evaluations of the sine and [1, 0.1] scans rose from 377 to 399.
H_REL_NOISE = 1e-13

# Most rows of a fit: g at three points, G and H over two intervals.  The
# integrands of the mean and moment rows are then of degree at most 7,
# which quadrature's 21-point Kronrod rule (degree 31) integrates exactly.
_MAX_ROWS = 7


def _powers(s):
    """s**0 ... s**(_MAX_ROWS - 1) along the last axis."""
    return np.asarray(s, dtype=float)[..., None] ** np.arange(_MAX_ROWS)


def _fit_root(pts, x1, lo, hi):
    """Root strictly inside (lo, hi), reached by Newton steps from x1, of
    the polynomial P that matches g at every point of pts, the rise of G
    over each interval between neighbouring points and the rise of H over
    each interval where it carries signal; None when it has none.

    pts holds (x, g, G, H) of distinct points sorted by x, one of them x1.
    The fit works in s = (x - x1) / w with w the widest distance from x1.
    On an interval [x_i, x_j] of length h with midpoint m, the G row is
    the mean of P, (G_j - G_i) / h, and the H row its moment against
    (m - x) / (h / 2): integrating by parts, that is 2 (H_j - H_i - h
    (G_i + G_j) / 2) / h^2, so it needs no G row beside it.  A G row within
    G_REL_NOISE of the secant and an H row the fit without H rows predicts
    within H_REL_NOISE are dropped, and P takes one degree per row kept.
    The H rows are kept only if they move the root of the fit without them
    by at most half that fit's step from x1.
    """
    w = max(abs(x - x1) for x, *_ in pts)
    rows = [_powers((x - x1) / w) for x, *_ in pts]
    rhs = [g for _, g, _, _ in pts]
    moments = []
    for (xi, gi, Gi, Hi), (xj, gj, Gj, Hj) in zip(pts, pts[1:]):
        h = xj - xi
        nodes = _powers(((xi + xj) / 2.0 - x1 + h / 2.0 * NODES) / w)
        if abs(Gj - Gi - h * (gi + gj) / 2.0) > G_REL_NOISE * max(abs(Gi),
                                                                  abs(Gj)):
            rows.append(W_KRONROD / 2.0 @ nodes)
            rhs.append((Gj - Gi) / h)
        moments.append((-NODES * W_KRONROD / 2.0 @ nodes,
                        Hj - Hi - h * (Gi + Gj) / 2.0, h * h / 2.0,
                        H_REL_NOISE * max(abs(Hi), abs(Hj))))
    c = _solve(rows, rhs)
    if c is None:
        return None
    x = _root(c, x1, w, lo, hi)
    n = len(rows)
    for row, excess, scale, bar in moments:
        if abs(excess - scale * (row[:n] @ c)) > bar:
            rows.append(row)
            rhs.append(excess / scale)
    if len(rows) == n:
        return x
    # H rows refine the step of the fit without them: in the 159 steps
    # with H rows of the sine and [1, 0.1] scans above they moved its root
    # by at most 5% of the step.  Rows that move it by more than half the
    # step fit noise above H_REL_NOISE.
    cH = _solve(rows, rhs)
    xH = None if cH is None else _root(cH, x1, w, lo, hi)
    if xH is not None and (x is None or abs(xH - x) <= 0.5 * abs(x - x1)):
        return xH
    return x


def _solve(rows, rhs):
    """Coefficients of the polynomial with one degree per row; None when
    the rows do not fix one."""
    n = len(rows)
    try:
        c = np.linalg.solve(np.array(rows)[:, :n], np.array(rhs))
    except np.linalg.LinAlgError:
        return None
    return c if np.all(np.isfinite(c)) else None


def _root(c, x1, w, lo, hi):
    """Root strictly inside (lo, hi) of the polynomial with coefficients c
    in s = (x - x1) / w, by Newton steps from x1 that bisect the bracket
    of its sign change whenever they would leave it; None when its values
    at the ends do not differ in sign.  Plain floats: a step costs a few
    microseconds, where np.roots' eigenvalue solve costs 35 and its first
    call 1.1 MB of resident memory."""
    cs = c.tolist()[::-1]

    def p_dp(s):
        p = dp = 0.0
        for ck in cs:
            dp = dp * s + p
            p = p * s + ck
        return p, dp

    a, b = 0.0, (lo + hi - 2.0 * x1) / w     # x1 and the other end, in s
    pa, dpa = p_dp(a)
    pb = p_dp(b)[0]
    if not (pa < 0.0 < pb or pb < 0.0 < pa):
        return None
    s, p, dp = a, pa, dpa
    for _ in range(200):
        t = s - p / dp if dp != 0.0 else s
        if not min(a, b) < t < max(a, b):
            t = 0.5 * (a + b)
        if t == s:
            break
        s = t
        p, dp = p_dp(s)
        if p == 0.0:
            break
        if (p > 0.0) == (pa > 0.0):
            a = s
        else:
            b = s
    x = x1 + w * s
    return x if lo < x < hi else None


def hermite(f, x0, x1, y0, y1, xtol):
    """Root of scalar g between x0 and x1, where f(x) returns (g(x), G(x),
    H(x)) with G' = g and H' = G, given y0 = f(x0) and y1 = f(x1) with g
    of opposite sign.

    Each step goes to the root, strictly inside the bracket and reached by
    Newton steps from the last point x1, of one Hermite-Birkhoff polynomial
    for g (`_fit_root`): it matches g at the bracket's other end a, at the point
    p evaluated before x1 and at x1, and on each interval between them the
    rise of G and, where it carries signal, the rise of H.  With every row kept that
    is a degree-6 fit (degree 3 while p is a); rows that round-off could
    explain (G_REL_NOISE, H_REL_NOISE) are dropped, down to the secant
    line, and so are H rows that move the step of the fit without them by
    more than half of it.  When the fit has no root inside the bracket
    (round-off), the step is regula falsi.
    Returns the last point evaluated once the ends are within xtol, the
    step it would take next is at most xtol, or g is exactly 0.  The step
    test ends the search once g sits at its noise floor, where further
    steps land on one side without closing the ends, and it does so before
    evaluating a point within xtol of the last one.
    """
    a, ya = x0, y0                  # the bracket's other end
    p, yp = x0, y0                  # the point evaluated before x1
    while y1[0] != 0 and abs(x1 - a) > xtol:
        lo, hi = min(a, x1), max(a, x1)
        pts = sorted((t, *y) for t, y in {a: ya, p: yp, x1: y1}.items())
        x = _fit_root(pts, x1, lo, hi)
        if x is None:
            x = x1 - y1[0] * (x1 - a) / (y1[0] - ya[0])
        if abs(x - x1) <= xtol:
            break
        y = f(x)
        if (y[0] > 0) != (y1[0] > 0):
            a, ya = x1, y1
        p, yp = x1, y1
        x1, y1 = x, y
    return x1
