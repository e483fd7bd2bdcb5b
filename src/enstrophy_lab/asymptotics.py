"""Laplace-method asymptotics of the phase integral and what they predict.

For k large the integral I_{x,a}(k) localizes at the minima of the phase
phi_{x,a}(y) = F(y) + (a/2)(x-y)^2, i.e. at roots of

    g(s) = f(s) + a*(s - x).

Root structure on x in [0, 1/2] for admissible profiles:

  * a > |f'(0)|      : g is increasing, one root s_{x,a}  ("single")
  * a < |f'(0)|      : a pitchfork at x = 0 creates three roots
      -1/2 < s_minus < s_mid <= 0 < s_plus < 1/2 while x < x0(a) ("triple"),
      where x0(a) = s_c + f(s_c)/a and f'(s_c) = -a, s_c in (-1/2, 0);
      past the fold only s_plus survives ("post-fold").

In the triple regime the two minima s_minus, s_plus compete through the
phase gap

    varphi(x) = phi(s_minus) - phi(s_plus)
              = (a/2)(s_minus - s_plus)(s_plus + s_minus - 2x)
                - int_{s_minus}^{s_plus} f(y) dy  >= 0,

and the curvature ratio chi = sqrt((f'(s_plus)+a)/(f'(s_minus)+a)).  The
two-Gaussian reduction of I gives the matched fields

    u   ~ k * (f(s_plus) + chi*e^{-k varphi} f(s_minus)) / (1 + chi*e^{-k varphi})
    u_x ~ -k^2 * chi*e^{-k varphi} (f(s_plus)-f(s_minus))^2 / (1 + chi*e^{-k varphi})^2

near the shock, and the one-Gaussian fields u ~ k f(s), u_x ~ k a f'(s)/(a+f'(s))
away from it; the crossover point x1 is where k*varphi reaches 36 (weight
e^{-36} is below double precision noise), clamped into [x0/100, x0/2].

Leading orders of the diagnostics follow by integrating the reduced fields:
post-pitchfork E ~ (1/2) k^3 |f(s+_{0,a})|^3, which is maximized over a at
a_star = |f(x_star)|/x_star, giving

    T_star ~ x_star / (2 k |f(x_star)|),
    E(u_*) ~ (1/2) k^3 |f(x_star)|^3,
    K(u_0) - K(u_*) ~ k^2 ( int_0^{x_star} f^2 - x_star f(x_star)^2 / 3 ).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics, quadrature
from .profiles import ProfileError
from .rootfind import bisect, newton_polish, bracketed_root

SINGLE = "single"
TRIPLE = "triple"
POST_FOLD = "post-fold"

# Grid intervals on [0, x_star] sampled by check_required_bound.
BOUND_GRID = 512


@dataclass(frozen=True)
class RootSet:
    """Stationary points of the phase at one (x, a).

    s_plus always holds the dominant (right) minimum; s_minus/s_mid and the
    competition quantities varphi, chi are populated only in the triple
    regime.
    """
    regime: str
    s_plus: float
    s_minus: Optional[float] = None
    s_mid: Optional[float] = None
    varphi: Optional[float] = None
    chi: Optional[float] = None


@dataclass(frozen=True)
class BifurcationData:
    """Organizing constants of the shock formation for one (profile, k)."""
    t0: float
    a_pitchfork: float
    a_star: float
    x0: Callable[[float], float]
    x1: Callable[[float], float]


@dataclass(frozen=True)
class Predictions:
    """Leading-order predictions at the enstrophy maximizer."""
    T_star: float
    E_max_leading: float
    K_drop_leading: float
    K_at_max_leading: float


@dataclass(frozen=True)
class ScaledIntegral:
    """I = mantissa * exp(-k * exponent); exponent is the phase where the
    integral localizes, so mantissa carries no exponential factor."""
    mantissa: float
    exponent: float

    def value(self, k):
        """Unscaled value; may overflow/underflow for large k, by design."""
        return self.mantissa * math.exp(-k * self.exponent)


@dataclass(frozen=True)
class BoundCheck:
    """Samples of G(x) = int_0^x f^2 - x f(x)^2/3 and H(x) = f - x f' on
    [0, x_star], plus the checks that make K_drop_leading >= 0 certain."""
    x: np.ndarray
    G: np.ndarray
    H: np.ndarray
    identity_residual: float
    h_nonpositive: bool
    h_decreasing: bool
    g_nonnegative: bool
    g_nondecreasing: bool

    @property
    def ok(self):
        return (self.h_nonpositive and self.h_decreasing
                and self.g_nonnegative and self.g_nondecreasing)


def _root_residual_check(profile, x, a, roots):
    g = profile.f(np.asarray(roots)) + a * (np.asarray(roots) - x)
    worst = float(np.max(np.abs(g)))
    if worst > 1e-12 * max(1.0, a):
        raise RuntimeError(f"stationary-point residual {worst:.2e} at "
                           f"x={x}, a={a}")


def _g_root(profile, x, a, lo, hi):
    g = lambda s: profile.f(s) + a * (s - x)
    dg = lambda s: profile.f_prime(s) + a
    return bracketed_root(g, lo, hi, dg=dg, iters=54, polish=3)


def _mirror_point(profile, a):
    """sigma in (0, 1/2) with f'(sigma) = -a; s_c = -sigma."""
    h = lambda s: profile.f_prime(s) + a
    dh = lambda s: profile.f_double_prime(s)
    return bracketed_root(h, 0.0, 0.5, dg=dh, iters=54, polish=2)


def fold_location(profile, a):
    """x0(a): the fold where s_minus and s_mid merge, for 0 < a < |f'(0)|."""
    apf = abs(profile.f_prime_at_zero)
    if not (0.0 < a < apf):
        raise ValueError(f"fold exists only for a in (0, {apf:.6g}); got {a}")
    sigma = _mirror_point(profile, a)
    s_c = -sigma
    return s_c + float(profile.f(s_c)) / a


def _int_f(profile, lo, hi):
    return float(quadrature.fixed_gk(
        lambda ys: np.atleast_2d(profile.f(ys)), lo, hi, n_panels=16)[0])


def find_roots(profile, x, a):
    """Classify (x, a) and return the stationary points; x in [0, 1/2]."""
    if not (0.0 <= x <= 0.5):
        raise ValueError("find_roots expects x in [0, 1/2]; use oddness")
    if a <= 0:
        raise ValueError("a must be positive")
    apf = abs(profile.f_prime_at_zero)

    if a >= apf:
        if a == apf:
            warnings.warn("a equals the pitchfork value |f'(0)|; treating "
                          "as the single-root regime", RuntimeWarning)
        w = 0.5
        g = lambda s: profile.f(s) + a * (s - x)
        for _ in range(60):
            if g(x - w) < 0 < g(x + w):
                break
            w *= 2.0
        s = _g_root(profile, x, a, x - w, x + w)
        _root_residual_check(profile, x, a, [s])
        return RootSet(regime=SINGLE, s_plus=s)

    sigma = _mirror_point(profile, a)
    s_c = -sigma
    x0 = s_c + float(profile.f(s_c)) / a

    if x >= x0:
        s_plus = _g_root(profile, x, a, sigma, 0.5)
        _root_residual_check(profile, x, a, [s_plus])
        return RootSet(regime=POST_FOLD, s_plus=s_plus)

    s_minus = _g_root(profile, x, a, -0.5, s_c)
    s_mid = _g_root(profile, x, a, s_c, sigma)
    s_plus = _g_root(profile, x, a, sigma, 0.5)
    _root_residual_check(profile, x, a, [s_minus, s_mid, s_plus])

    varphi = (0.5 * a * (s_minus - s_plus) * (s_plus + s_minus - 2.0 * x)
              - _int_f(profile, s_minus, s_plus))
    cp = float(profile.f_prime(s_plus)) + a
    cm = float(profile.f_prime(s_minus)) + a
    if cp <= 0 or cm <= 0:
        raise RuntimeError("non-positive curvature at a phase minimum")
    chi = math.sqrt(cp / cm)
    return RootSet(regime=TRIPLE, s_plus=s_plus, s_minus=s_minus,
                   s_mid=s_mid, varphi=varphi, chi=chi)


def matching_point(profile, a, k):
    """x1: where the two-spike and one-spike descriptions are glued.

    Smallest x with k*varphi(x) >= 36, clamped into [x0/100, x0/2]; varphi
    is increasing in x so a bisection on the gap does it.
    """
    x0 = fold_location(profile, a)
    lo, hi = x0 / 100.0, x0 / 2.0
    gap = lambda x: k * find_roots(profile, x, a).varphi - 36.0
    if gap(hi) < 0:
        return hi
    if gap(lo) >= 0:
        return lo
    return bracketed_root(gap, lo, hi, iters=48)


def bifurcation_data(profile, k):
    """t0, the two critical curvatures, and the fold/matching maps."""
    apf = abs(profile.f_prime_at_zero)
    fxs = abs(float(profile.f(profile.x_star)))
    a_star = fxs / profile.x_star
    if not (0.0 < a_star < apf):
        raise ProfileError(
            f"need |f(x_star)|/x_star < |f'(0)| (got {a_star:.6g} vs "
            f"{apf:.6g}): the enstrophy maximizer would precede the "
            "pitchfork and the asymptotics do not apply")
    return BifurcationData(
        t0=1.0 / (2.0 * k * apf),
        a_pitchfork=apf,
        a_star=a_star,
        x0=lambda a: fold_location(profile, a),
        x1=lambda a: matching_point(profile, a, k),
    )


# ----------------------------------------------------------------------
# Laplace evaluations of exponential integrals

# Step of the central differences that give phi' and phi''.
FD_STEP = 1e-6


def laplace_interior(phi, theta, c, k):
    """Interior-minimum Laplace value of int theta(y) e^{-k phi(y)} dy.

    Returns ScaledIntegral(sqrt(2 pi / (k phi''(c))) * theta(c), phi(c));
    relative accuracy O(1/k).  c must be a genuine interior minimum.
    """
    h = FD_STEP
    lo, mid, hi = phi(c - h), phi(c), phi(c + h)
    d1 = float((hi - lo) / (2 * h))
    d2 = float((hi - 2 * mid + lo) / (h * h))
    if d2 <= 1e-12:
        raise ValueError(f"phi''({c}) = {d2:.3g} is not positive")
    if abs(d1) > 1e-5 * max(1.0, d2):
        raise ValueError(f"phi'({c}) = {d1:.3g}: not a stationary point")
    val = math.sqrt(2.0 * math.pi / (k * d2)) * float(theta(c))
    return ScaledIntegral(mantissa=val, exponent=float(mid))


def laplace_endpoint(phi, theta, k):
    """Endpoint Laplace value of int_0^{...} theta e^{-k phi} dy when the
    phase increases away from y = 0: theta(0) / (k phi'(0)), accurate to
    O(1/k) relatively."""
    d1 = float((phi(FD_STEP) - phi(-FD_STEP)) / (2 * FD_STEP))
    if d1 <= 0:
        raise ValueError(f"phi'(0) = {d1:.3g} must be positive")
    return ScaledIntegral(mantissa=float(theta(0.0)) / (k * d1),
                          exponent=float(phi(0.0)))


# ----------------------------------------------------------------------
# matched asymptotic fields

def _two_spike(profile, rs, k):
    fp_ = float(profile.f(rs.s_plus))
    fm_ = float(profile.f(rs.s_minus))
    e = rs.chi * math.exp(-k * rs.varphi)
    u = k * (fp_ + e * fm_) / (1.0 + e)
    ux = -k * k * e * (fp_ - fm_) ** 2 / (1.0 + e) ** 2
    return u, ux


def _one_spike(profile, s, a, k):
    fs = float(profile.f(s))
    fps = float(profile.f_prime(s))
    return k * fs, k * a * fps / (a + fps)


def _asym_fields(profile, x, a, k):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    apf = abs(profile.f_prime_at_zero)
    u = np.empty_like(x)
    ux = np.empty_like(x)
    x1 = matching_point(profile, a, k) if a < apf else None
    for i, xi in enumerate(x):
        s = abs(xi)
        rs = find_roots(profile, s, a)
        if rs.regime == TRIPLE and s <= x1:
            ui, uxi = _two_spike(profile, rs, k)
        else:
            ui, uxi = _one_spike(profile, rs.s_plus, a, k)
        u[i] = -ui if xi < 0 else ui
        ux[i] = uxi
    return u, ux


def asymptotic_u(profile, x, a, k):
    """Matched leading-order u at curvature a; x may be an array."""
    u, _ = _asym_fields(profile, x, a, k)
    return u if np.ndim(x) else float(u[0])


def asymptotic_ux(profile, x, a, k):
    """Matched leading-order u_x (even in x); x may be an array."""
    _, ux = _asym_fields(profile, x, a, k)
    return ux if np.ndim(x) else float(ux[0])


# ----------------------------------------------------------------------
# leading-order diagnostics and predictions

def leading_enstrophy(profile, a, k):
    """Leading E(t) at fixed a: k^2-order before the pitchfork, the
    k^3-order spike formula after it (0 exactly at a = |f'(0)|).

    The spike formula carries the stated (1/2) prefactor; the measured
    enstrophy tends to (2/3) k^3 |f(s+)|^3, the enstrophy of a viscous
    shock of half-jump k |f(s+)| (see the README)."""
    apf = abs(profile.f_prime_at_zero)
    if a > apf:
        val = quadrature.integral(
            lambda y: a * profile.f_prime(y) ** 2 / (a + profile.f_prime(y)),
            0.0, 0.5)
        return k * k * float(val[0])
    if a == apf:
        return 0.0
    s0 = find_roots(profile, 0.0, a).s_plus
    return 0.5 * k ** 3 * abs(float(profile.f(s0))) ** 3


def leading_energy(profile, a, k):
    """Leading K(t) at fixed a; K(u0) before the pitchfork, and after it
    k^2 ( int_{s+_{0,a}}^{1/2} f^2 + |f(s+_{0,a})|^3 / (3a) )."""
    apf = abs(profile.f_prime_at_zero)
    if a >= apf:
        return diagnostics.initial_energy(profile, k)
    s0 = find_roots(profile, 0.0, a).s_plus
    tail = float(quadrature.integral(lambda y: profile.f(y) ** 2, s0, 0.5)[0])
    return k * k * (tail + abs(float(profile.f(s0))) ** 3 / (3.0 * a))


def predict(profile, k):
    """Leading-order maximizer data: T_star, E at the max, the drop in K.

    E_max_leading is (1/2) k^3 |f(x*)|^3, with the stated (1/2) prefactor
    that the reference values are computed from; the measured maximum
    tends to (2/3) k^3 |f(x*)|^3, so measured/predicted tends to 4/3 (see
    the README).  T_star and K_drop_leading match the measured values."""
    xs = profile.x_star
    fxs = abs(float(profile.f(xs)))
    K0 = diagnostics.initial_energy(profile, k)
    head = float(quadrature.integral(lambda y: profile.f(y) ** 2, 0.0, xs)[0])
    k_drop = k * k * (head - xs * fxs ** 2 / 3.0)
    return Predictions(
        T_star=xs / (2.0 * k * fxs),
        E_max_leading=0.5 * k ** 3 * fxs ** 3,
        K_drop_leading=k_drop,
        K_at_max_leading=K0 - k_drop,
    )


def check_required_bound(profile):
    """Verify the sign structure that makes the predicted K-drop positive.

    G(x) = int_0^x f^2 - x f(x)^2 / 3 and H(x) = f(x) - x f'(x) satisfy
    G' = (2/3) f H, H' = -x f'', so admissibility (f <= 0, f'' >= 0) forces
    H decreasing from H(0) = 0 and G nondecreasing from G(0) = 0 on
    [0, x_star].  Reports grid samples plus a finite-difference check of
    the G' identity.
    """
    xs = np.linspace(0.0, profile.x_star, BOUND_GRID + 1)
    f2 = lambda y: np.atleast_2d(profile.f(y) ** 2)
    seg = quadrature._panel_eval(quadrature._per_panel(f2),
                                 np.zeros(BOUND_GRID, dtype=np.intp),
                                 xs[:-1], xs[1:])[0][:, 0]
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    fv = profile.f(xs)
    G = cum - xs * fv ** 2 / 3.0
    H = fv - xs * profile.f_prime(xs)

    h = 1e-5
    resid = 0.0
    for xq in np.linspace(0.12, 0.88, 7) * profile.x_star:
        gp = quadrature.fixed_gk(f2, 0.0, xq + h, 64)[0] \
            - (xq + h) * float(profile.f(xq + h)) ** 2 / 3.0
        gm = quadrature.fixed_gk(f2, 0.0, xq - h, 64)[0] \
            - (xq - h) * float(profile.f(xq - h)) ** 2 / 3.0
        fd = (gp - gm) / (2.0 * h)
        ident = (2.0 / 3.0) * float(profile.f(xq)) * (
            float(profile.f(xq)) - xq * float(profile.f_prime(xq)))
        resid = max(resid, abs(fd - ident))

    tol = 1e-10 * max(1.0, float(np.max(np.abs(H))), float(np.max(np.abs(G))))
    return BoundCheck(
        x=xs, G=G, H=H, identity_residual=resid,
        h_nonpositive=bool(np.all(H <= tol)),
        h_decreasing=bool(np.all(np.diff(H) <= tol)),
        g_nonnegative=bool(np.all(G >= -tol)),
        g_nondecreasing=bool(np.all(np.diff(G) >= -tol)),
    )
