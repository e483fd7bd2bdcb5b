"""Initial-condition profiles on the unit circle T = [-1/2, 1/2].

A profile is the shape function f in the odd initial data u0(x) = k*f(x).
Admissibility, matching the hypotheses under which the exact solution is
analyzed, means:

    * f is odd and 1-periodic, f(0) = f(1/2) = 0,
    * f < 0 on (0, 1/2)  (so u0 transports mass toward x = 0),
    * f'' >= 0 on [0, 1/2]  (one-sided convexity),
    * f' has the single interior zero x_star on (0, 1/2), f'(0) < 0.

Profiles carry closures for f, f', f'' and the antiderivative
F(x) = int_0^x f, plus a few cached ranges the solver uses to size its
integration window.  Every profile is a sine series with exact closures,
built by make_sine_series_profile: the reference sine is the one-term
series.  The exact solver evaluates these closures only at finite
points: a non-finite x, a or k raises there (QuadratureError or
ValueError) instead of returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .rootfind import bracketed_root

_TWO_PI = 2.0 * math.pi
# Uniform grid points of validate_profile.
FIT_GRID = 4096


class ProfileError(ValueError):
    """Raised when a candidate profile violates an admissibility invariant."""


@dataclass(frozen=True)
class Profile:
    """Bundle of shape-function closures and cached constants."""
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    f_double_prime: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    x_star: float
    f_prime_at_zero: float
    f_prime_max: float
    F_min: float
    F_max: float
    label: str = "custom"

    def __repr__(self):  # closures make the default repr useless
        return (f"Profile({self.label!r}, x_star={self.x_star:.6g}, "
                f"f'(0)={self.f_prime_at_zero:.6g})")


def make_sine_profile() -> Profile:
    """The reference profile f(x) = -2*pi*sin(2*pi*x), the one-term series.

    Its closed forms: F(x) = cos(2*pi*x) - 1, x_star = 1/4,
    f'(0) = -4*pi^2.
    """
    return make_sine_series_profile([_TWO_PI], label="sine")


def make_sine_series_profile(coeffs: Sequence[float], validate: bool = True,
                             label: Optional[str] = None) -> Profile:
    """Profile f(x) = -sum_n a_n sin(2*pi*n*x) from coefficients a_1, a_2, ...

    All derivatives and F are exact term-by-term.  An empty or non-finite
    coefficient list raises ProfileError, naming any non-finite a_n,
    before anything is evaluated.  With validate=True the
    admissibility invariants are checked on a dense grid and violations
    raise ProfileError; validate=False skips that (useful for building
    deliberately bad profiles to exercise validate_profile).
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ProfileError("need a non-empty 1-d coefficient sequence")
    bad = np.flatnonzero(~np.isfinite(a))
    if len(bad):
        raise ProfileError("non-finite coefficient(s): " + ", ".join(
            f"a_{n + 1} = {a[n]}" for n in bad))
    wn = _TWO_PI * np.arange(1, len(a) + 1, dtype=float)
    # the sine-series coefficients of f, f'' and cosine-series ones of f', F
    b_f, b_fp, b_fpp, b_F = -a, -a * wn, a * wn ** 2, a / wn
    F0 = float(np.sum(b_F))

    def f(x):
        return _sin_sum(x, b_f)

    def fp(x):
        return _cos_sum(x, b_fp)

    def fpp(x):
        return _sin_sum(x, b_fpp)

    def F(x):
        out = _cos_sum(x, b_F)
        out -= F0
        return out

    # cached ranges from dense samples; x_star, the interior zero of f' on
    # (0, 1/2), by bisection then one Newton polish (NaN when f' does not
    # change sign from - to + there)
    grid = np.linspace(-0.5, 0.5, 4097)
    Fg = F(grid)
    lo, hi = 1e-9, 0.5 - 1e-9
    x_star = (bracketed_root(fp, lo, hi, dg=fpp, iters=48, polish=1)
              if fp(lo) < 0 < fp(hi) else math.nan)
    prof = Profile(f=f, f_prime=fp, f_double_prime=fpp, F=F, x_star=x_star,
                   f_prime_at_zero=float(np.sum(b_fp)),
                   f_prime_max=float(np.max(fp(grid))),
                   F_min=float(np.min(Fg)), F_max=float(np.max(Fg)),
                   label=label or f"sine-series[{len(a)}]")
    if validate:
        _raise_on_violation(prof)
    return prof


# With theta = 2 pi x and c = cos(theta), cos(n theta) = T_n(c) and
# sin(n theta) = sin(theta) U_{n-1}(c): one cos (and for the sine sum one
# sin) per point, then Clenshaw's recurrence over the coefficients
def _sin_sum(x, b):
    """sum_n b_n sin(2 pi n x)."""
    theta = _TWO_PI * np.asarray(x, dtype=float)
    return np.sin(theta) * _clenshaw(lambda: np.cos(theta), b)[0]


def _cos_sum(x, b):
    """sum_n b_n cos(2 pi n x), formed in a new array that holds
    cos(2 pi x) first (a scalar for a scalar x)."""
    c = _TWO_PI * np.asarray(x, dtype=float)
    c = np.cos(c, out=c if c.ndim else None)
    y1, y2 = _clenshaw(lambda: c, b)
    c *= y1
    if len(b) > 1:      # y_2 = 0 for one term
        c -= y2
    return c


def _clenshaw(cos, b):
    """(y_1, y_2) of Clenshaw's recurrence y_n = b_n + 2c y_{n+1} - y_{n+2},
    run from n = N down to 1 with y_{N+1} = y_{N+2} = 0, for the
    coefficients b = (b_1..b_N).  Then sum b_n T_n(c) = c y_1 - y_2 and
    sum b_n U_{n-1}(c) = y_1.  The recurrence starts from the scalars
    y_N = b_N and y_{N+1} = 0 and takes no step for N = 1, so both outputs
    are then scalars, and c = cos() is read (and 2c formed) only when
    N > 1."""
    y1, y2 = b[-1], 0.0
    if len(b) > 1:
        two_c = 2.0 * cos()
        for bn in b[-2::-1]:
            y = two_c * y1
            y -= y2
            y += bn
            y1, y2 = y, y1
    return y1, y2


# ----------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ProfileReport:
    """Grid residuals of every admissibility invariant; zeros mean clean."""
    oddness: float
    endpoints: float
    sign_violation: float
    convexity_violation: float
    fprime_zero_residual: float
    antiderivative_residual: float
    F_evenness: float
    names: tuple = field(default_factory=tuple)

    @property
    def ok(self):
        return not self.names


def validate_profile(profile: Profile) -> ProfileReport:
    """Check the admissibility invariants on a dense grid.

    Purely a reporting operation: nothing raises, the report carries the
    residuals and the list of violated invariant names.  Tolerances are
    relative to the profile's own scale except where noted.
    """
    xs = np.linspace(0.0, 0.5, FIT_GRID + 1)
    fv = profile.f(xs)
    scale = float(np.max(np.abs(fv))) + 1e-300

    odd = float(np.max(np.abs(profile.f(-xs) + fv)))
    ends = float(max(abs(profile.f(0.0)), abs(profile.f(0.5))))
    interior = fv[1:-1]
    sign = float(max(np.max(interior), 0.0)) if len(interior) else 0.0

    d2 = profile.f_double_prime(xs)
    d2scale = max(1.0, float(np.max(np.abs(d2))))
    convex = float(max(-np.min(d2), 0.0))

    fp_res = (abs(float(profile.f_prime(profile.x_star)))
              if math.isfinite(profile.x_star) else math.inf)

    h = xs[1] - xs[0]
    Fv = profile.F(xs)
    fd = (Fv[2:] - Fv[:-2]) / (2 * h)
    anti = float(np.max(np.abs(fd - fv[1:-1])))
    F_even = float(np.max(np.abs(profile.F(-xs) - Fv)))

    names = []
    if odd > 1e-9 * scale:
        names.append("oddness")
    if ends > 1e-9 * scale:
        names.append("endpoints")
    if sign > 1e-9 * scale:
        names.append("sign")
    if convex > 1e-10 * d2scale:
        names.append("convexity")
    if not fp_res < 1e-7 * scale:
        names.append("critical-point")
    # central differences are O(h^2) with an f'' coefficient
    if anti > h * h * d2scale:
        names.append("antiderivative")
    if F_even > 1e-9 * max(scale, abs(profile.F_min), abs(profile.F_max)):
        names.append("F-evenness")

    return ProfileReport(oddness=odd, endpoints=ends, sign_violation=sign,
                         convexity_violation=convex,
                         fprime_zero_residual=fp_res,
                         antiderivative_residual=anti, F_evenness=F_even,
                         names=tuple(names))


def _raise_on_violation(profile):
    rep = validate_profile(profile)
    if not rep.ok:
        raise ProfileError(
            "profile violates admissibility invariant(s): "
            + ", ".join(rep.names))
