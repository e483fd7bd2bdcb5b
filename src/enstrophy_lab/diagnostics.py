"""Energy, enstrophy and the enstrophy production rate of a state.

On the circle with unit period, for u with zero mean:

    K = (1/2) int u^2,   E = (1/2) int u_x^2,   R = -int (u_xx^2 + u_x^3),

and along solutions dK/dt = -2E, dE/dt = R.  Two a-priori inequalities are
tracked as residuals wherever a state is computed: the production bound
R <= (3/2) E^{5/3} and the Poincare inequality K <= E / (4 pi^2); and the
no-blowup envelope E(T) <= (E0^{1/3} + E0/(16 pi^2))^3 for all T > 0.

Grid states use uniform-grid means for the integrals (spectrally accurate
for smooth periodic data) and one FFT for u_xx.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import quadrature

FOUR_PI_SQ = 4.0 * math.pi ** 2


class Diagnostics(NamedTuple):
    """Integral functionals of one state plus inequality residuals.

    bound_R_residual = (3/2) E^{5/3} - R  (>= 0 when the production bound
    holds); poincare_residual = E / (4 pi^2) - K (>= 0 always for zero-mean
    circle data).  tail_fraction measures how much of u's spectrum sits in
    the top quarter of resolved modes; large values mean the grid is too
    coarse to trust u_xx.
    """
    K: float
    E: float
    R: float
    bound_R_residual: float
    poincare_residual: float
    tail_fraction: float


def compute(snap) -> Diagnostics:
    """Diagnostics of a StateSnapshot (grid-based)."""
    u = snap.u_values
    ux = snap.ux_values
    n = len(u)
    K = 0.5 * float(np.mean(u * u))
    E = 0.5 * float(np.mean(ux * ux))

    spec = np.fft.rfft(u)
    power = np.abs(spec[1:]) ** 2
    tot = float(np.sum(power)) + 1e-300
    cut = max(1, (len(power) * 3) // 4)
    tail = float(np.sum(power[cut:])) / tot
    if tail > 1e-6:
        warnings.warn(f"grid tail fraction {tail:.2e}: u_xx (and R) are "
                      f"under-resolved at n={n}", RuntimeWarning)

    w = 2.0 * math.pi * np.arange(len(spec))
    uxx = np.fft.irfft(-(w * w) * spec, n=n)
    R = -float(np.mean(uxx * uxx) + np.mean(ux ** 3))

    return Diagnostics(K=K, E=E, R=R,
                       bound_R_residual=1.5 * E ** (5.0 / 3.0) - R,
                       poincare_residual=E / FOUR_PI_SQ - K,
                       tail_fraction=tail)


def from_functionals(K, E, R) -> Diagnostics:
    """Diagnostics from already-computed integrals (the adaptive-quadrature
    values of a T* search, where no fixed grid could resolve the
    shock)."""
    return Diagnostics(K=float(K), E=float(E), R=float(R),
                       bound_R_residual=1.5 * E ** (5.0 / 3.0) - R,
                       poincare_residual=E / FOUR_PI_SQ - K,
                       tail_fraction=0.0)


def integral_bound_rhs(E0: float) -> float:
    """The time-global enstrophy envelope (E0^{1/3} + E0/(16 pi^2))^3."""
    if not E0 >= 0:
        raise ValueError(f"E0 must be nonnegative; got E0={E0}")
    return (E0 ** (1.0 / 3.0) + E0 / (16.0 * math.pi ** 2)) ** 3


def initial_energy(profile, k: float) -> float:
    """K(u0) = k^2 int_0^{1/2} f^2 (exact, adaptive quadrature)."""
    return k * k * float(
        quadrature.integral(lambda ys: profile.f(ys) ** 2, 0.0, 0.5)[0])


def initial_enstrophy(profile, k: float) -> float:
    """E(u0) = k^2 int_0^{1/2} f'^2 (exact, adaptive quadrature)."""
    return k * k * float(
        quadrature.integral(lambda ys: profile.f_prime(ys) ** 2, 0.0, 0.5)[0])
