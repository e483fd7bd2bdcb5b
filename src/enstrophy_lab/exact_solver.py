"""Exact solution of u_t + 2 u u_x = u_xx on the circle via heat kernels.

With u0 = k*f(x) the substitution u = -d/dx log(psi) turns the problem into
the heat equation, and the solution at time t = 1/(2*k*a) is

    u(x, t) = -d/dx log I_{x,a}(k),
    I_{x,a}(k) = integral over R of exp(-k * phi_{x,a}(y)) dy,
    phi_{x,a}(y) = F(y) + (a/2) * (x - y)^2,   F(x) = int_0^x f.

Everything observable is a ratio of y-moments of exp(-k*phi) against the
zeroth moment, so each integral is computed in the scaled form
I = r * exp(-k*m) with m the global minimum of the phase; this keeps k in
the thousands overflow-free.  Differentiating under the integral sign gives

    u    = -a*k * r1/r0
    u_x  = u^2 + k*a - (k*a)^2 * r2/r0
    u_xx = 3*u*u_x - u^3 - ((k*a)^3 * r3 - 3*(k*a)^2 * r1) / r0

with r_j = integral of (y - x)^j * exp(-k*(phi - m)) dy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .quadrature import QuadratureError
from .rootfind import bisect, multisect, newton_polish

# Samples per unit length of the shared stationary-point scan; even, so the
# scan grid holds every multiple of 1/2 (see _stationary_points).
SCAN_DENSITY = 128
# Share of its cell the last Newton step of a scan bracket may move it and
# still count as settled (see _stationary_points); smaller steps leave
# the root within round-off once the steps converge quadratically.
SETTLE = 2.0 ** -40
# Uniform panels across the y window, before the ladders at the minima.
COARSE_PANELS = 4
# Relative tolerance of each y-moment of a row.
QUAD_TOL = 1e-10
# Share of a row's tolerance that the mass outside its y-window and the
# mass of the panels dropped as negligible may take together, half each.
TAIL_SHARE = 1e-2
# Grid points per `eval_fields` batch of a snapshot: the rows are
# independent, and a batch's y-skeleton grows with its row count (about
# 10 panels a row at k = 5, t <= 4e-3), so a large grid goes in slices
# whose skeletons do not grow with the grid past quadrature.MAX_PANELS.
SNAPSHOT_ROWS = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Snapshot grid: grid_size points per half period (the full grid is
    twice that)."""
    grid_size: int = 256

    def __post_init__(self):
        g = self.grid_size
        if g < 64 or (g & (g - 1)) != 0:
            raise ValueError("grid_size must be a power of two >= 64")


DEFAULT_CONFIG = SolverConfig()


def grid(n):
    """n uniform points (i - n//2)/n, i = 0..n-1, on the circle [-1/2, 1/2)."""
    return (np.arange(n) - n // 2) / n


@dataclass(frozen=True)
class StateSnapshot:
    """u and u_x sampled on the uniform circle grid at one instant."""
    k: float
    t: float
    u_values: np.ndarray
    ux_values: np.ndarray

    @property
    def x_grid(self):
        """The grid the values sit on: grid(len(u_values))."""
        return grid(len(self.u_values))

    @property
    def oddness_residual(self):
        """max |u(x) + u(-x)| over the grid; zero for an exactly odd u."""
        u = self.u_values
        mirror = (len(u) - np.arange(len(u))) % len(u)
        return float(np.max(np.abs(u + u[mirror])))


def _window_halfwidth(profile, a, k, n_moments, depth):
    """Half-width L = sqrt(2 D/a) + sqrt(2 M/(k a)) of the y-window of a row
    whose phase minimum m lies D = m - F_min >= 0 above F_min.

    Outside |y - x| = L each moment integrand |y - x|^j w, w = exp(-k(phi -
    m)), j = 0..n_moments, holds at most eps = (TAIL_SHARE/2) * QUAD_TOL *
    FLOOR_FRAC times its integral over the window: less than TAIL_SHARE/2
    of the row tolerance the quadrature works to (the panels
    `_phase_moments` drops take the other half).  With nu = (j + 1)/2 and
    beta = k a/2:

    * tail: phi >= F_min + (a/2)(y - x)^2, so the mass outside the window
      is at most e^{kD} beta^-nu Gamma(nu, beta L^2), where beta L^2 =
      (sqrt(kD) + sqrt(M))^2 >= M;
    * window mass: phi - m <= (C/2)(y - y*)^2 about the global minimizer
      y*, C = a + max(f'_max, 0).  Since |y* - x| <= sqrt(2D/a), the window
      reaches at least sqrt(2M/(k a)) past y* on the side away from x,
      where |y - x| >= |y - y*|; so the mass inside is at least
      (1/2) Gamma(nu) (kC/2)^-nu, up to a factor 1 - Gamma(nu, M)/Gamma(nu)
      that differs from 1 by far less than TAIL_SHARE;
    * with Gamma(nu, Z) <= 2 Z^(nu-1) e^-Z (nu <= 2, Z >= 2) the factor
      e^{kD} cancels, and for M > nu - 1 the ratio of the two bounds is
      largest at D = 0, where it is 4 M^(nu-1) e^-M (C/a)^nu / Gamma(nu).

    Keeping that below eps needs M - (nu - 1) log M >= c_nu = log(4/(eps
    Gamma(nu))) + nu log(C/a); M = c_nu + max(nu - 1, 0) log(2 c_nu) does,
    since c_nu >= log(2 c_nu) (c_nu > 20 here).  M is the largest over j.
    depth may be an array of D values; L has its shape.
    """
    eps = 0.5 * TAIL_SHARE * QUAD_TOL * quadrature.FLOOR_FRAC
    log_ca = math.log1p(max(profile.f_prime_max, 0.0) / a)
    M = 0.0
    for j in range(n_moments + 1):
        nu = 0.5 * (j + 1)
        c = math.log(4.0 / eps) - math.lgamma(nu) + nu * log_ca
        M = max(M, c + max(nu - 1.0, 0.0) * math.log(2.0 * c))
    return np.sqrt(2.0 * np.asarray(depth) / a) + math.sqrt(2.0 * M / (k * a))


def _stationary_points(profile, x, a, L):
    """All zeros of g(y) = f(y) + a*(y - x) within L of each row's x.

    Row i's zeros solve G(y) = a*x_i for the one function G(y) = f(y) +
    a*y, so a single scan of G serves every row.  f is 1-periodic, which
    makes row x - n's zeros row x's shifted by -n: rows are moved into
    [-1/2, 1/2] first, and the scan covers [min x - L, max x + L] on the
    multiples of 1/SCAN_DENSITY.  That grid holds every multiple of 1/2,
    between which an admissible f' is monotone (f'' >= 0 on [0, 1/2], f
    odd); so G' = f' + a has at most one zero per cell, where it changes
    sign.  Those zeros, the turning points of G, are polished and added to
    the grid.  Just below the pitchfork a = |f'(0)| the two about 0 sit
    where G'' = f'' is near 0 and Newton steps on it gain little, so 4
    rounds of 64-section (to 2^-24 of a cell, as 24 bisections, in 4
    calls of f' rather than 24) come first; 8 bisections leave row 0 at
    a = (1 - 1e-12)|f'(0)| without its two minima.  After that G is
    monotone on every cell and row i has a zero in a cell exactly when
    a*x_i lies between G at its ends (the left end counted, the right one
    not).  np.searchsorted on the sorted a*x_i finds every (row, cell)
    pair at once, with no row-by-sample work, and no pair of zeros is
    missed however close they sit.

    Each bracket is polished once, on g itself.  G is on the grid at both
    ends of the cell, so the secant of G there starts it at no cost, and
    4 Newton steps clamped to the cell follow; g is monotone and, f'
    being monotone there, convex or concave on the cell, so they converge
    and the clamp at most stops a first overshoot.  A bracket whose last
    step moved it by more than SETTLE of its cell has not settled and is
    bisected instead: 24 bisections, then Newton steps clamped to the
    narrowed bracket.  So is every bracket in a cell that ends at a
    turning point of G: there g' = f' + a can be near 0 at the root,
    where Newton steps gain little (from the secant they lose row 0's
    minima at a = (1 - 1e-12)|f'(0)|, and 10 bisections leave them three
    times too far from 0), and few brackets fall in those cells.  Where g
    does not change sign across a bracket, because it is 0 at an end or
    because at large a the sum a*y rounds f away and G misplaces a zero
    by a rounding step, the end with the smaller |g| is the zero.
    Non-finite rows have no zeros.

    Returns flat arrays (row, root, curvature) in row order, roots
    ascending within a row, with curvature = f'(root)+a; positive
    curvature marks a phase minimum.
    """
    def dG(y):
        return profile.f_prime(y) + a

    x = np.asarray(x, dtype=float)
    live = np.nonzero(np.isfinite(x))[0]
    if live.size == 0:
        return np.empty(0, np.intp), np.empty(0), np.empty(0)
    shift = np.round(x[live])
    xr = x[live] - shift

    j0 = math.floor((xr.min() - L) * SCAN_DENSITY)
    j1 = math.ceil((xr.max() + L) * SCAN_DENSITY)
    ys = np.arange(j0, j1 + 1) / SCAN_DENSITY
    gp = dG(ys)
    # signs, not values: at a near the float limit the product overflows
    sg = np.sign(gp)
    turn = np.nonzero(sg[:-1] * sg[1:] < 0)[0]
    is_turn = np.zeros(len(ys) + turn.size, dtype=bool)
    if turn.size:
        lo, hi = ys[turn], ys[turn + 1]
        t = multisect(dG, lo, hi, sections=64, rounds=4)
        t = newton_polish(dG, profile.f_double_prime, t, lo, hi, steps=4)
        ys = np.insert(ys, turn + 1, t)
        is_turn[turn + 1 + np.arange(turn.size)] = True
    G = profile.f(ys) + a * ys

    # (cell, row) pairs: a*x_i in [G_j, G_j+1) on a rising cell and in
    # (G_j+1, G_j] on a falling one
    axr = a * xr
    order = np.argsort(axr)
    ax = axr[order]
    g0, g1 = G[:-1], G[1:]
    low, high = np.minimum(g0, g1), np.maximum(g0, g1)
    rising = g1 > g0
    start = np.where(rising, np.searchsorted(ax, low, "left"),
                     np.searchsorted(ax, low, "right"))
    stop = np.where(rising, np.searchsorted(ax, high, "left"),
                    np.searchsorted(ax, high, "right"))
    count = stop - start
    cell = np.repeat(np.arange(len(count)), count)
    first = np.cumsum(count) - count
    pos = order[start[cell] + np.arange(len(cell)) - first[cell]]
    lo, hi = ys[cell], ys[cell + 1]
    near = (hi >= xr[pos] - L) & (lo <= xr[pos] + L)
    pos, cell, lo, hi = pos[near], cell[near], lo[near], hi[near]
    deep = is_turn[cell] | is_turn[cell + 1]

    def g_of(xs):
        def g(y):
            return profile.f(y) + a * (y - xs)
        return g

    # Newton steps from the secant of G across the cell; turning-cell
    # brackets, and those whose last step did not settle, are bisected
    s = (axr[pos] - G[cell]) / (G[cell + 1] - G[cell])
    roots = lo + np.clip(s, 0.0, 1.0) * (hi - lo)
    newt = ~deep
    g, ln, hn = g_of(xr[pos[newt]]), lo[newt], hi[newt]
    prev = newton_polish(g, dG, roots[newt], ln, hn, steps=3)
    last = newton_polish(g, dG, prev, ln, hn, steps=1)
    roots[newt] = last
    redo = deep.copy()
    redo[newt] = np.abs(last - prev) > SETTLE * (hn - ln)
    if redo.any():
        g, lr, hr = g_of(xr[pos[redo]]), lo[redo], hi[redo]
        r = bisect(g, lr, hr, iters=24)
        half = (hr - lr) * 2.0 ** -25
        roots[redo] = newton_polish(g, dG, r, np.maximum(lr, r - half),
                                    np.minimum(hr, r + half), steps=3)
    g = g_of(xr[pos])
    glo, ghi = g(lo), g(hi)
    at_end = np.sign(glo) * np.sign(ghi) >= 0
    roots = np.where(at_end, np.where(np.abs(glo) <= np.abs(ghi), lo, hi),
                     roots)
    keep = np.abs(roots - xr[pos]) <= L
    pos, roots = pos[keep], roots[keep]
    by_row = np.argsort(pos, kind="stable")
    pos, roots = pos[by_row], roots[by_row]
    return live[pos], roots + shift[pos], dG(roots)


def _panel_skeleton(x, L, coarse, rows, roots, is_min, ladder, gap):
    """Initial y-panels of every row, built in one sorted pass.

    Row i's breakpoints are x_i + coarse, its stationary points and the
    ladder around each of its minima, clipped to [x_i - L_i, x_i + L_i]
    (L is one half-width for all rows or one per row).  After one lexsort
    by (row, point), a row keeps its first point and every
    later point lying more than gap above its predecessor, which is what
    np.unique followed by a diff > gap mask gives row by row.  Returns
    (row, lo, hi) of the panels between consecutive kept points, in row
    order.
    """
    nx = len(x)
    mins = roots[is_min]
    prow = np.concatenate([np.repeat(np.arange(nx), len(coarse)), rows,
                           np.repeat(rows[is_min], len(ladder))])
    pts = np.concatenate([(x[:, None] + coarse[None, :]).ravel(), roots,
                          (mins[:, None] + ladder[None, :]).ravel()])
    half = np.broadcast_to(L, x.shape)[prow]
    pts = np.clip(pts, x[prow] - half, x[prow] + half)
    order = np.lexsort((pts, prow))
    prow, pts = prow[order], pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (prow[1:] != prow[:-1]) | (np.diff(pts) > gap)
    prow, pts = prow[keep], pts[keep]
    same = prow[1:] == prow[:-1]
    return prow[:-1][same], pts[:-1][same], pts[1:][same]


def _panels_holding(prow, lo, hi, rows, roots):
    """Mask of the disjoint panels (prow, lo, hi), in row order, that hold
    a stationary point (rows, roots) of their own row strictly inside."""
    n = len(prow)
    order = np.lexsort((np.concatenate([lo, roots]),
                        np.concatenate([prow, rows])))
    is_root = order >= n
    # the last panel at or below each root in (row, y) order; lexsort is
    # stable, so a root equal to a panel's lo sorts after that panel
    p = np.cumsum(~is_root)[is_root] - 1
    r = order[is_root] - n
    p, r = p[p >= 0], r[p >= 0]
    inside = (prow[p] == rows[r]) & (lo[p] < roots[r]) & (roots[r] < hi[p])
    held = np.zeros(n, dtype=bool)
    held[p[inside]] = True
    return held


def _phase_moments(profile, x, a, k, n_moments=2):
    """Scaled moments r_0..r_n of exp(-k*phi) for a batch of x values.

    The initial panels of all rows come from `_panel_skeleton`: the
    COARSE_PANELS uniform panels across the scan radius, every stationary
    point, and a ladder y* +- w 4^j, j = 1..n_lad, about each minimum y*,
    with w = (kC + 1)^-1/2, C = a + max(f'_max, 0), the width of the
    narrowest possible spike and w 4^n_lad at least the coarse spacing.
    The ladder starts at 4w, not w: every minimum has curvature f'(y*) + a
    <= C, so no spike is narrower than w, and one K21 panel integrates
    s^j e^{-s^2/2}, j = 0..3, over [0, 4], 4 widths of the narrowest
    spike, to 2.2e-16 relative (its K21 - G10 estimate reads 1.4e-10 to
    3.6e-9, so such a panel may cost a split, never accuracy).  Against a
    ladder from w, the T* searches at sine k = 5 and 2560 and [1, 0.1] k =
    160 evaluate 9% fewer y-panels.  These few breakpoints suffice: they
    only have to put the stationary points and the spike's scale at panel
    ends, and the accuracy comes from `quadrature.adaptive_batch`, which
    only bisects, splitting every panel over its share of the row
    tolerance until each moment converges, so a leaner start costs
    rounds, not accuracy.  Against 16 coarse panels and a ladder of ratio
    2, T*, E(T*) and K(T*) moved by at most 6e-11 relative (sine k = 5 to
    2560, [1, 0.1] k = 20 and 160), and every pinned test held.  The
    callback of `adaptive_batch` writes r_0..r_n into one (n_moments+1,
    npanels, 21) array, in whose slots it also forms y - x and the
    exponent.

    Panels whose moments are provably negligible are dropped before the
    first evaluation.  On a panel [lo, hi] of row i with no stationary
    point of the row inside, phi is monotone, so with d = max(|lo - x_i|,
    |hi - x_i|), h = hi - lo and Delta = min(phi(lo), phi(hi)) - m_i each
    moment integrand |y - x_i|^j exp(-k(phi - m_i)) holds at most d^j h
    e^{-k Delta} there.  The panels tile the row's window, of length
    2 L_i, so dropping each panel with

        k Delta >= log(2 L_i) + max_j (j log d - log tau_j)

    drops at most tau_j of moment j in all.  With nu = (j + 1)/2, take
    tau_j = (TAIL_SHARE/2) QUAD_TOL FLOOR_FRAC (1/2) Gamma(nu) (kC/2)^-nu:
    the window holds at least (1/2) Gamma(nu) (kC/2)^-nu of each moment's
    integral of |.| (see `_window_halfwidth`), and the kept panels hold
    all of it but a share below 1e-15, so the dropped mass stays below
    TAIL_SHARE/2 of the row tolerance QUAD_TOL max(|r_j|, FLOOR_FRAC
    integral of |.|), and with the window's tail below TAIL_SHARE.  The
    end phases are those of the skeleton points.  The gap merge of
    `_panel_skeleton` can drop a stationary point (each point within gap
    of its sorted predecessor goes, and a chain of such points can leave
    it more than gap from the kept end), so a panel holding one inside is
    always kept.  The check for a phase below m runs on the kept panels
    only; it guards against a minimum the scan missed, which
    `_stationary_points` rules out.

    An empty x batch gives empty results.  Returns (m, r) with m the
    per-row extracted phase minimum and r of shape (nx, n_moments+1).
    Raises QuadratureError, naming the offending (x, a, k), when a row has
    no stationary point (a NaN or infinite x, or a scan radius below the
    float spacing at x); when the skeleton left after the drop holds more
    than quadrature.MAX_PANELS panels, which `adaptive_batch` would return
    unrefined (at late times, a << 1, where the window spans many
    periods), before any panel is evaluated; when a row fails to converge;
    or when it ends with r_0 <= 0 (at a so large that the y-window is
    narrower than the float spacing at x).
    """
    x = np.asarray(x, dtype=float)
    nx = len(x)
    # phi(x_i) = F(x_i), so every row's window lies within the scan
    # radius R, the half-width at the largest F(x_i) - F_min
    Fx = profile.F(x)
    R = float(_window_halfwidth(
        profile, a, k, n_moments,
        np.max(Fx[np.isfinite(Fx)] - profile.F_min, initial=0.0)))
    rows, roots, curv = _stationary_points(profile, x, a, R)
    is_min = curv > 0

    # per-row phase minimum (global: the scan radius always contains it).
    # A row whose minimum is degenerate (curvature 0, as at x = 0 exactly
    # on the pitchfork) has no root with positive curvature; its lowest
    # stationary point then stands in.
    has_min = np.zeros(nx, dtype=bool)
    has_min[rows[is_min]] = True
    sel = is_min | ~has_min[rows]
    mr, rr = rows[sel], roots[sel]
    m = np.full(nx, np.inf)
    np.minimum.at(m, mr, profile.F(rr) + 0.5 * a * (x[mr] - rr) ** 2)
    lost = ~np.isfinite(m)
    if lost.any():
        # a NaN or infinite x has no stationary point within R; a finite x
        # loses its minimum only once R is below the float spacing at x,
        # where x - R and x + R round onto x and the scan holds no cell
        # about it
        narrow = lost & (R < np.spacing(np.abs(x)))
        if narrow.any():
            _fail(f"no stationary point within the scan radius R={R:.3g} "
                  "(y-window below the float spacing)", x, a, k, narrow)
        _fail("phase has no finite minimum", x, a, k, lost)
    L = _window_halfwidth(profile, a, k, n_moments,
                          np.maximum(m - profile.F_min, 0.0))

    # spike width of the narrowest possible minimum; nesting ladder
    C = a + max(profile.f_prime_max, 0.0)
    w = 1.0 / math.sqrt(k * C + 1.0)
    h_coarse = 2 * R / COARSE_PANELS
    n_lad = max(1, math.ceil(0.5 * math.log2(max(h_coarse / w, 4.0))))
    ladder = w * 4.0 ** np.arange(1, n_lad + 1)
    ladder = np.concatenate([-ladder[::-1], ladder])
    coarse = np.linspace(-R, R, COARSE_PANELS + 1)

    gap = max(w / 8.0, 4e-16 * R)
    prow, plo, phi_ = _panel_skeleton(x, L, coarse, rows, roots, is_min,
                                      ladder, gap)

    def neg_excess(prow, ys, d=None, arg=None):
        # y - x into d and -k (phi - m) into arg (new arrays when None) at
        # the points ys of the panels prow: x and m are gathered once per
        # panel and broadcast over its points
        d = np.subtract(ys, x[prow][:, None], out=d)
        arg = np.multiply(d, 0.5 * a, out=arg)
        arg *= d
        arg += profile.F(ys)
        arg -= m[prow][:, None]
        arg *= -k
        return d, arg

    # drop the panels the bound above proves negligible
    xp = x[prow]
    log_d = np.log(np.maximum(xp - plo, phi_ - xp))
    bar = np.full(len(prow), -np.inf)
    for j in range(n_moments + 1):
        nu = 0.5 * (j + 1)
        log_tau = (math.log(0.25 * TAIL_SHARE * QUAD_TOL
                            * quadrature.FLOOR_FRAC)
                   + math.lgamma(nu) - nu * math.log(0.5 * k * C))
        bar = np.maximum(bar, j * log_d - log_tau)
    _, arg = neg_excess(prow, np.column_stack([plo, phi_]))
    drop = -np.maximum(arg[:, 0], arg[:, 1]) >= bar + np.log(2.0 * L[prow])
    drop[drop] = ~_panels_holding(prow[drop], plo[drop], phi_[drop], rows,
                                  roots)
    prow, plo, phi_ = prow[~drop], plo[~drop], phi_[~drop]
    if len(prow) > quadrature.MAX_PANELS:
        # adaptive_batch would stop before its first split and return the
        # skeleton's rows unrefined
        _fail(f"y-skeleton of {len(prow)} panels exceeds quadrature."
              f"MAX_PANELS = {quadrature.MAX_PANELS}", x, a, k,
              np.ones(nx, dtype=bool))

    def integrand(prow, ys):
        # y - x sits in the last moment's slot until that moment replaces
        # it, and the exponent in r_0's slot, so no array of the batch's
        # size is made here besides those of F(ys)
        out = np.empty((n_moments + 1,) + ys.shape)
        d, arg = neg_excess(prow, ys, out[-1] if n_moments else None, out[0])
        if arg.size and arg.max() > 45.0:
            worst = np.argmax(arg)
            bad = prow[worst // ys.shape[1]]
            raise QuadratureError(
                f"phase fell {arg.flat[worst]/k:.3g} below its located "
                f"minimum at x={x[bad]:.6g}, a={a:.6g}, k={k:.6g}")
        np.exp(arg, out=arg)
        for j in range(n_moments):
            np.multiply(out[j], d, out=out[j + 1])
        return out

    res = quadrature.adaptive_batch(integrand, prow, plo, phi_, n_rows=nx,
                                    epsrel=QUAD_TOL)

    if not res.converged.all():
        _fail("phase integral did not converge", x, a, k, ~res.converged)
    if not np.all(res.value[:, 0] > 0):
        # every panel of the row has zero width once its window is
        # narrower than the float spacing at x
        _fail("phase integral r0 is not positive (y-window below the float "
              "spacing)", x, a, k, ~(res.value[:, 0] > 0))
    return m, res.value


def _fail(what, x, a, k, rows):
    """Raise QuadratureError for what, naming (x, a, k) of the first eight
    of the flagged rows."""
    bad = np.nonzero(rows)[0]
    triples = ", ".join(f"(x={x[i]:.6g}, a={a:.6g}, k={k:.6g})"
                        for i in bad[:8])
    raise QuadratureError(f"{what} at {triples}"
                          + (" ..." if len(bad) > 8 else ""))


def _require_positive(a, k):
    if not (0 < a < math.inf and 0 < k < math.inf):
        raise ValueError(f"need finite a > 0 and k > 0, got a={a}, k={k}")


def eval_fields(profile, x, a, k, want_uxx=False):
    """u, u_x (and optionally u_xx) on an array of x values.

    This is the batch workhorse: one adaptive pass shares panels across all
    requested points and all moments.  A NaN or infinite x raises
    QuadratureError, a non-finite a or k ValueError.  An a so large that
    (k a)^2, or (k a)^3 with want_uxx, overflows raises QuadratureError
    too: the moment formulas need that power.
    """
    _require_positive(a, k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_mom = 3 if want_uxx else 2
    _, r = _phase_moments(profile, x, a, k, n_moments=n_mom)
    ka = k * a
    try:                # (k a)^n_mom is the largest power used below
        fits = math.isfinite(ka ** n_mom)
    except OverflowError:
        fits = False
    if not fits:
        _fail(f"(k a)^{n_mom} overflows", x, a, k, np.ones(len(x), bool))
    q1 = r[:, 1] / r[:, 0]
    q2 = r[:, 2] / r[:, 0]
    u = -ka * q1
    ux = u * u + ka - ka ** 2 * q2
    if not want_uxx:
        return u, ux
    q3 = r[:, 3] / r[:, 0]
    uxx = 3 * u * ux - u ** 3 - (ka ** 3 * q3 - 3 * ka ** 2 * q1)
    return u, ux, uxx


def snapshot(profile, t, k, config=None):
    """State at time t >= 0 on the standard grid.

    The time enters only through a = 1/(2*k*t); t = 0 gives the initial
    data k*f with no integrals involved; otherwise the grid goes to
    `eval_fields` in slices of SNAPSHOT_ROWS points.  A t outside [0, inf)
    or a k outside (0, inf) raises ValueError at every t.
    """
    cfg = config or DEFAULT_CONFIG
    if not 0 <= t < math.inf:
        raise ValueError(f"need finite t >= 0, got t={t}")
    if not 0 < k < math.inf:
        raise ValueError(f"need finite k > 0, got k={k}")
    xg = grid(2 * cfg.grid_size)
    if t == 0:
        u = k * profile.f(xg)
        ux = k * profile.f_prime(xg)
    else:
        a = 1.0 / (2.0 * k * t)
        parts = [eval_fields(profile, xg[i:i + SNAPSHOT_ROWS], a, k)
                 for i in range(0, len(xg), SNAPSHOT_ROWS)]
        u = np.concatenate([p[0] for p in parts])
        ux = np.concatenate([p[1] for p in parts])
    return StateSnapshot(k=k, t=t, u_values=u, ux_values=ux)
