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

Every function here that takes k raises ValueError, naming k, for a k
outside (0, inf); find_roots and the leading_* functions do the same for a.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics, quadrature
from .profiles import ProfileError
from .rootfind import bisect, newton_polish, bracketed_root

SINGLE = "single"
TRIPLE = "triple"
POST_FOLD = "post-fold"

# Grid intervals on [0, x_star] sampled by check_required_bound.
BOUND_GRID = 512


class RootSet(NamedTuple):
    """Stationary points of the phase at one a, for every x.

    Each field has the shape of find_roots' x (a str and floats for a
    scalar x); regime names each row's regime.  s_plus always holds the
    dominant (right) minimum; s_minus, s_mid and the competition
    quantities varphi, chi are NaN outside the triple regime.
    """
    regime: str | np.ndarray
    s_plus: float | np.ndarray
    s_minus: float | np.ndarray
    s_mid: float | np.ndarray
    varphi: float | np.ndarray
    chi: float | np.ndarray


class BifurcationData(NamedTuple):
    """Organizing constants of the shock formation for one (profile, k)."""
    t0: float
    a_pitchfork: float
    a_star: float
    x0: Callable[[float], float]
    x1: Callable[[float], float]


class Predictions(NamedTuple):
    """Leading-order predictions at the enstrophy maximizer."""
    T_star: float
    E_max_leading: float
    K_drop_leading: float
    K_at_max_leading: float


class ScaledIntegral(NamedTuple):
    """I = mantissa * exp(-k * exponent); exponent is the phase where the
    integral localizes, so mantissa carries no exponential factor."""
    mantissa: float
    exponent: float

    def value(self, k):
        """Unscaled value; may overflow/underflow for large k, by design."""
        return self.mantissa * math.exp(-k * self.exponent)


class BoundCheck(NamedTuple):
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


def _check_positive(name, value):
    """Raise ValueError naming `name` unless value is in (0, inf)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite; got "
                         f"{name}={value}")


def _root_residual_check(profile, x, a, roots):
    """Raise unless every root has |g| <= 1e-12 max(1, a); a NaN fails."""
    g = np.abs(profile.f(roots) + a * (roots - x))
    if not np.all(g <= 1e-12 * max(1.0, a)):
        raise RuntimeError(f"stationary-point residual {np.max(g):.2e} at "
                           f"x in [{np.min(x)}, {np.max(x)}], a={a}")


def _fold(profile, a):
    """(sigma, x0(a)) for 0 < a < |f'(0)|: sigma in (0, 1/2) solves
    f'(sigma) = -a, and s_c = -sigma gives x0 = s_c + f(s_c)/a.  Any
    other a raises ValueError."""
    apf = abs(profile.f_prime_at_zero)
    if not (0.0 < a < apf):
        raise ValueError(f"fold exists only for a in (0, {apf:.6g}); got {a}")
    h = lambda s: profile.f_prime(s) + a
    sigma = bracketed_root(h, 0.0, 0.5, dg=profile.f_double_prime,
                           iters=54, polish=2)
    return sigma, -sigma + float(profile.f(-sigma)) / a


def fold_location(profile, a):
    """x0(a): the fold where s_minus and s_mid merge, for 0 < a < |f'(0)|."""
    return _fold(profile, a)[1]


def find_roots(profile, x, a):
    """Classify (x, a) and return the stationary points; x in [0, 1/2].

    x is a scalar or an array, solved at one a: sigma and x0 once, s_plus
    for every row in one bisection and Newton pass, s_minus and s_mid only
    for the rows with x < x0.  The RootSet's fields have x's shape.
    varphi's int f is F(s_plus) - F(s_minus), from the exact antiderivative.
    An x outside [0, 1/2] or an a outside (0, inf) raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 0.5)):
        raise ValueError("find_roots expects x in [0, 1/2]; use oddness")
    _check_positive("a", a)
    apf = abs(profile.f_prime_at_zero)
    if a == apf:
        warnings.warn("a equals the pitchfork value |f'(0)|; treating "
                      "as the single-root regime", RuntimeWarning)
    return _roots(profile, x, a, _fold(profile, a) if a < apf else None)


def _roots(profile, x, a, fold):
    """find_roots on a checked x array, given fold = _fold(profile, a)
    below the pitchfork and None at or above it."""
    def roots(xs, lo, hi):
        g = lambda s: profile.f(s) + a * (s - xs)
        lo, hi = np.broadcast_to(lo, xs.shape), np.broadcast_to(hi, xs.shape)
        s = newton_polish(g, lambda s: profile.f_prime(s) + a,
                          bisect(g, lo, hi, iters=54), lo, hi, steps=3)
        _root_residual_check(profile, xs, a, s)
        return s

    if fold is None:
        # f'' >= 0 gives f' >= f'(0) on [0, 1/2], so with f odd, periodic
        # and f(1/2) = 0, |f| < |f'(0)|/2 <= a/2: g(x - 1/2) < 0 < g(x + 1/2)
        s_plus = roots(x, x - 0.5, x + 0.5)
        regime = np.full(x.shape, SINGLE)
    else:
        sigma, x0 = fold
        s_plus = roots(x, sigma, 0.5)
        regime = np.where(x < x0, TRIPLE, POST_FOLD)

    triple = regime == TRIPLE
    s_minus, s_mid, varphi, chi = (np.full(x.shape, np.nan) for _ in range(4))
    if triple.any():
        xt, sp = x[triple], s_plus[triple]
        s_minus[triple] = sm = roots(xt, -0.5, -sigma)
        s_mid[triple] = roots(xt, -sigma, sigma)
        varphi[triple] = (0.5 * a * (sm - sp) * (sp + sm - 2.0 * xt)
                          - (profile.F(sp) - profile.F(sm)))
        cp = profile.f_prime(sp) + a
        cm = profile.f_prime(sm) + a
        if np.any(cp <= 0) or np.any(cm <= 0):
            raise RuntimeError("non-positive curvature at a phase minimum")
        chi[triple] = np.sqrt(cp / cm)
    return RootSet(regime=regime[()], s_plus=s_plus[()],
                   s_minus=s_minus[()], s_mid=s_mid[()], varphi=varphi[()],
                   chi=chi[()])


def matching_point(profile, a, k):
    """x1: where the two-spike and one-spike descriptions are glued.

    Smallest x with k*varphi(x) >= 36, clamped into [x0/100, x0/2]; varphi
    is increasing in x so a bisection on the gap does it.  The fold is
    solved once, not at every bisection step.
    """
    _check_positive("k", k)
    fold = _fold(profile, a)
    lo, hi = fold[1] / 100.0, fold[1] / 2.0

    def gap(x):
        return k * _roots(profile, np.asarray(x, dtype=float), a,
                          fold).varphi - 36.0

    if gap(hi) < 0:
        return hi
    if gap(lo) >= 0:
        return lo
    return bracketed_root(gap, lo, hi, iters=48)


def bifurcation_data(profile, k):
    """t0, the two critical curvatures, and the fold/matching maps."""
    _check_positive("k", k)
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

def _asym_fields(profile, x, a, k):
    """(u, u_x) at every x, each with x's shape: the two-spike fields on
    the triple rows with |x| <= x1, the one-spike fields elsewhere."""
    _check_positive("k", k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.abs(x)
    rs = find_roots(profile, s, a)
    fps = profile.f_prime(rs.s_plus)
    u, ux = k * profile.f(rs.s_plus), k * a * fps / (a + fps)
    two = rs.regime == TRIPLE
    if two.any():
        two &= s <= matching_point(profile, a, k)
        fp_, fm_ = profile.f(rs.s_plus[two]), profile.f(rs.s_minus[two])
        e = rs.chi[two] * np.exp(-k * rs.varphi[two])
        u[two] = k * (fp_ + e * fm_) / (1.0 + e)
        ux[two] = -k * k * e * (fp_ - fm_) ** 2 / (1.0 + e) ** 2
    return np.where(x < 0, -u, u), ux


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
    _check_positive("k", k)
    _check_positive("a", a)
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
    _check_positive("k", k)
    _check_positive("a", a)
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
    _check_positive("k", k)
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
    the G' identity, whose G(xq + h) - G(xq - h) integrates f^2 over
    [xq - h, xq + h] only.  The f^2 integrals (one adaptive batch row per
    grid interval) raise QuadratureError when they do not converge.
    """
    xs = np.linspace(0.0, profile.x_star, BOUND_GRID + 1)
    f2 = lambda y: profile.f(y) ** 2
    res = quadrature.adaptive_batch(lambda rows, ys: f2(ys),
                                    np.arange(BOUND_GRID), xs[:-1], xs[1:],
                                    n_rows=BOUND_GRID, epsrel=1e-12)
    if not res.converged.all():
        raise quadrature.QuadratureError(
            f"int f^2 on [0, {profile.x_star}] did not converge")
    cum = np.concatenate([[0.0], np.cumsum(res.value[:, 0])])
    fv = profile.f(xs)
    G = cum - xs * fv ** 2 / 3.0
    H = fv - xs * profile.f_prime(xs)

    h = 1e-5
    resid = 0.0
    for xq in np.linspace(0.12, 0.88, 7) * profile.x_star:
        lo, hi = xq - h, xq + h
        fd = float(quadrature.integral(f2, lo, hi)[0]
                   - (hi * f2(hi) - lo * f2(lo)) / 3.0) / (2.0 * h)
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
