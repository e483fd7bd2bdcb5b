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
from .rootfind import bisect, newton_polish

# Stationary-point scan samples per unit length of the y window.
SCAN_DENSITY = 128
# Uniform panels across the y window, before the ladders at the minima.
COARSE_PANELS = 16
# Share of a row's tolerance that the mass outside its y-window may take.
TAIL_SHARE = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the phase-integral evaluation.

    quad_tolerance is the relative tolerance per moment; grid_size is the
    number of snapshot points per half period (full grid is twice that).
    """
    quad_tolerance: float = 1e-10
    grid_size: int = 256

    def __post_init__(self):
        if not (0.0 < self.quad_tolerance <= 1e-4):
            raise ValueError("quad_tolerance must lie in (0, 1e-4]")
        g = self.grid_size
        if g < 64 or (g & (g - 1)) != 0:
            raise ValueError("grid_size must be a power of two >= 64")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class StateSnapshot:
    """u and u_x sampled on the uniform circle grid at one instant."""
    k: float
    t: float
    x_grid: np.ndarray
    u_values: np.ndarray
    ux_values: np.ndarray
    oddness_residual: float

    @property
    def a(self):
        """Curvature parameter 1/(2kt); inf for the initial data."""
        if self.t == 0 or self.k == 0:
            return math.inf
        return 1.0 / (2.0 * self.k * self.t)


def _window_halfwidth(profile, a, k, config, n_moments, depth):
    """Half-width L = sqrt(2 D/a) + sqrt(2 M/(k a)) of the y-window of a row
    whose phase minimum m lies D = m - F_min >= 0 above F_min.

    Outside |y - x| = L each moment integrand |y - x|^j w, w = exp(-k(phi -
    m)), j = 0..n_moments, holds at most eps = TAIL_SHARE * quad_tolerance
    * FLOOR_FRAC times its integral over the window: less than TAIL_SHARE
    of the row tolerance the quadrature works to.  With nu = (j + 1)/2 and
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
    eps = TAIL_SHARE * config.quad_tolerance * quadrature.FLOOR_FRAC
    log_ca = math.log1p(max(profile.f_prime_max, 0.0) / a)
    M = 0.0
    for j in range(n_moments + 1):
        nu = 0.5 * (j + 1)
        c = math.log(4.0 / eps) - math.lgamma(nu) + nu * log_ca
        M = max(M, c + max(nu - 1.0, 0.0) * math.log(2.0 * c))
    return np.sqrt(2.0 * np.asarray(depth) / a) + math.sqrt(2.0 * M / (k * a))


def _stationary_points(profile, x, a, L):
    """All zeros of g(y) = f(y) + a*(y - x) within L of each row's x.

    g is sampled SCAN_DENSITY times per unit length and every sign change
    is bracketed.  A pair of roots closer than one sample spacing (the
    minimum and saddle born together at the fold) shows no sign change, so
    each sampled extremum of g that keeps its sign but lies within its two
    sample differences of zero is also checked: its extremum, the zero of
    g' = f' + a, is located and, where g changes sign there, the roots on
    either side of it are bracketed.

    Returns flat arrays (row, root, curvature) with curvature = f'(root)+a;
    positive curvature marks a phase minimum.
    """
    def dg(y):
        return profile.f_prime(y) + a

    ns = max(33, int(2 * L * SCAN_DENSITY) + 1)
    offs = np.linspace(-L, L, ns)
    ys = x[:, None] + offs[None, :]
    g = profile.f(ys) + a * (ys - x[:, None])
    sign_flip = (g[:, :-1] * g[:, 1:] < 0) | (g[:, :-1] == 0)
    rows, cols = np.nonzero(sign_flip)
    lo = ys[rows, cols]
    hi = ys[rows, cols + 1]

    # sampled extrema of g (at column ec + 1) that keep their sign
    rising = np.diff(g, axis=1) > 0
    er, ec = np.nonzero(rising[:, :-1] != rising[:, 1:])
    gl, gm, gr = g[er, ec], g[er, ec + 1], g[er, ec + 2]
    near = ((gl * gm > 0) & (gm * gr > 0)
            & (np.abs(gm) <= np.abs(gm - gl) + np.abs(gr - gm)))
    er, ec, gm = er[near], ec[near], gm[near]
    if er.size:
        elo, ehi = ys[er, ec], ys[er, ec + 2]
        turn = dg(elo) * dg(ehi) < 0
        er, gm, elo, ehi = er[turn], gm[turn], elo[turn], ehi[turn]
        e = bisect(dg, elo, ehi, iters=50)
        cross = (profile.f(e) + a * (e - x[er])) * gm <= 0
        er, elo, ehi, e = er[cross], elo[cross], ehi[cross], e[cross]
        rows = np.concatenate([rows, er, er])
        lo = np.concatenate([lo, elo, e])
        hi = np.concatenate([hi, e, ehi])

    def g_rows(y):
        return profile.f(y) + a * (y - x[rows])

    roots = bisect(g_rows, lo, hi, iters=50)
    roots = newton_polish(g_rows, dg, roots, lo, hi, steps=2)
    return rows, roots, dg(roots)


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


def _phase_moments(profile, x, a, k, config, n_moments=2):
    """Scaled moments r_0..r_n of exp(-k*phi) for a batch of x values.

    The initial panels of all rows come from `_panel_skeleton`, and one
    `quadrature.adaptive_batch` call refines them; its per-panel callback
    writes r_0..r_n into one (n_moments+1, npanels, 15) array.  An empty
    x batch gives empty results.  Returns (m, r) with m the per-row
    extracted phase minimum and r of shape (nx, n_moments+1).  Raises
    QuadratureError when a row has no stationary point (a NaN or infinite
    x) or fails to converge, naming the offending (x, a, k).
    """
    x = np.asarray(x, dtype=float)
    nx = len(x)
    # phi(x_i) = F(x_i), so every row's window lies within the scan
    # radius R, the half-width at the largest F(x_i) - F_min
    Fx = profile.F(x)
    R = float(_window_halfwidth(
        profile, a, k, config, n_moments,
        np.max(Fx[np.isfinite(Fx)] - profile.F_min, initial=0.0)))
    rows, roots, curv = _stationary_points(profile, x, a, R)
    is_min = curv > 0

    # per-row phase minimum (global: the scan radius always contains it).
    # Near the pitchfork a row's minima can share one scan cell with its
    # maximum and go unseen; its lowest stationary point then stands in.
    has_min = np.zeros(nx, dtype=bool)
    has_min[rows[is_min]] = True
    sel = is_min | ~has_min[rows]
    mr, rr = rows[sel], roots[sel]
    m = np.full(nx, np.inf)
    np.minimum.at(m, mr, profile.F(rr) + 0.5 * a * (x[mr] - rr) ** 2)
    if not np.all(np.isfinite(m)):
        # only a NaN or infinite x has no stationary point within R
        bad = np.nonzero(~np.isfinite(m))[0][0]
        raise QuadratureError(
            f"phase has no finite minimum at x={x[bad]:.6g}, a={a:.6g}, "
            f"k={k:.6g}")
    L = _window_halfwidth(profile, a, k, config, n_moments,
                          np.maximum(m - profile.F_min, 0.0))

    # spike width of the narrowest possible minimum; nesting ladder
    w = 1.0 / math.sqrt(k * (a + max(profile.f_prime_max, 0.0)) + 1.0)
    h_coarse = 2 * R / COARSE_PANELS
    n_lad = max(1, int(math.ceil(math.log2(max(h_coarse / w, 2.0)))))
    ladder = w * 2.0 ** np.arange(n_lad + 1)
    ladder = np.concatenate([-ladder[::-1], ladder])
    coarse = np.linspace(-R, R, COARSE_PANELS + 1)

    gap = max(w / 8.0, 4e-16 * R)
    prow, plo, phi_ = _panel_skeleton(x, L, coarse, rows, roots, is_min,
                                      ladder, gap)

    def integrand(prow, ys):
        # per panel: x and m are gathered once and broadcast over the nodes
        d = ys - x[prow][:, None]
        arg = d * (0.5 * a)
        arg *= d
        arg += profile.F(ys)
        arg -= m[prow][:, None]
        arg *= -k
        if arg.size and arg.max() > 45.0:
            worst = np.argmax(arg)
            bad = prow[worst // 15]
            raise QuadratureError(
                f"phase fell {arg.flat[worst]/k:.3g} below its located "
                f"minimum at x={x[bad]:.6g}, a={a:.6g}, k={k:.6g}")
        out = np.empty((n_moments + 1,) + ys.shape)
        np.exp(arg, out=out[0])
        for j in range(n_moments):
            np.multiply(out[j], d, out=out[j + 1])
        return out

    res = quadrature.adaptive_batch(integrand, prow, plo, phi_, n_rows=nx,
                                    epsrel=config.quad_tolerance)
    if not res.converged.all():
        bad = np.nonzero(~res.converged)[0][:8]
        triples = ", ".join(f"(x={x[i]:.6g}, a={a:.6g}, k={k:.6g})"
                            for i in bad)
        raise QuadratureError(
            f"phase integral did not converge at {triples}"
            + (" ..." if (~res.converged).sum() > 8 else ""))
    return m, res.value


def _require_positive(a, k):
    if not (0 < a < math.inf and 0 < k < math.inf):
        raise ValueError(f"need finite a > 0 and k > 0, got a={a}, k={k}")


def eval_fields(profile, x, a, k, config=None, want_uxx=False):
    """u, u_x (and optionally u_xx) on an array of x values.

    This is the batch workhorse: one adaptive pass shares panels across all
    requested points and all moments.  A NaN or infinite x raises
    QuadratureError, a non-finite a or k ValueError.
    """
    _require_positive(a, k)
    cfg = config or DEFAULT_CONFIG
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_mom = 3 if want_uxx else 2
    _, r = _phase_moments(profile, x, a, k, cfg, n_moments=n_mom)
    ka = k * a
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
    data k*f with no integrals involved.
    """
    cfg = config or DEFAULT_CONFIG
    if not 0 <= t < math.inf:
        raise ValueError(f"need finite t >= 0, got t={t}")
    n = 2 * cfg.grid_size
    xg = (np.arange(n) - n // 2) / n
    if t == 0:
        u = k * profile.f(xg)
        ux = k * profile.f_prime(xg)
    else:
        u, ux = eval_fields(profile, xg, 1.0 / (2.0 * k * t), k, cfg)
    mirror = (n - np.arange(n)) % n
    odd = float(np.max(np.abs(u + u[mirror])))
    return StateSnapshot(k=k, t=t, x_grid=xg, u_values=u, ux_values=ux,
                         oddness_residual=odd)
