"""Independent pseudospectral integrator for u_t + 2 u u_x = u_xx.

This is the cross-check path: it never touches the heat-kernel machinery.
The equation is advanced in Fourier space in conservative form,

    d/dt u_hat = -w^2 u_hat - i w (u^2)_hat,   w = 2 pi n,

with 2/3-rule dealiasing of the quadratic term.  The time stepper is
ETDRK4 (Kassam & Trefethen 2005): exact stiff linear part, fourth-order
nonlinear part, with the phi-coefficients evaluated by the complex contour
average so small h*L is not a cancellation hazard.  An advective CFL bound
clamps the step, and a spectral tail monitor doubles the resolution when
the top of the band fills up.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .exact_solver import StateSnapshot, grid

# Fourier modes of the first run, and the most the tail monitor doubles to.
N_MODES = 1024
MAX_N_MODES = 8192
# Target time step, and the advective CFL constant that may shrink it.
DT = 2e-6
CFL_CONSTANT = 0.5
# Share of the resolved band kept by the dealiasing mask (the 2/3 rule).
DEALIAS_FRACTION = 2.0 / 3.0
# Spectral tail fraction above which the run is repeated at double modes.
TAIL_THRESHOLD = 1e-8


class OracleError(RuntimeError):
    """The oracle solution stopped being trustworthy (blow-up, NaN)."""


def _etdrk4_coeffs(L, h, m=32):
    """phi-function coefficients via the half-circle contour average."""
    E = np.exp(h * L)
    E2 = np.exp(0.5 * h * L)
    r = np.exp(1j * math.pi * (np.arange(m) + 0.5) / m)
    LR = h * L[:, None] + r[None, :]
    Q = h * np.real(np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1))
    f1 = h * np.real(np.mean(
        (-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR ** 2)) / LR ** 3, axis=1))
    f2 = h * np.real(np.mean(
        (2.0 + LR + np.exp(LR) * (LR - 2.0)) / LR ** 3, axis=1))
    f3 = h * np.real(np.mean(
        (-4.0 - 3.0 * LR - LR ** 2 + np.exp(LR) * (4.0 - LR)) / LR ** 3, axis=1))
    return E, E2, Q, f1, f2, f3


class _Spectral:
    """One resolution level: grids, masks, and the nonlinear term."""

    def __init__(self, n):
        self.n = n
        self.x = grid(n)
        self.w = 2.0 * math.pi * np.arange(n // 2 + 1)
        self.L = -self.w ** 2
        cut = int(DEALIAS_FRACTION * (n // 2))
        self.mask = (np.arange(n // 2 + 1) <= cut)
        self.cut = cut

    def nonlinear(self, v):
        u = np.fft.irfft(np.where(self.mask, v, 0.0), n=self.n)
        w_hat = np.fft.rfft(u * u)
        return -1j * self.w * np.where(self.mask, w_hat, 0.0)

    def tail_fraction(self, v):
        p = np.abs(v[1:self.cut + 1]) ** 2
        tot = float(np.sum(p)) + 1e-300
        lo = max(1, (3 * self.cut) // 4)
        return float(np.sum(p[lo - 1:])) / tot


def _advance(sp, v, t_span, h_target, coeff_cache):
    """Advance v over t_span with uniform substeps close to h_target."""
    if t_span <= 0:
        return v
    nstep = max(1, int(math.ceil(t_span / h_target - 1e-12)))
    h = t_span / nstep
    key = round(math.log(h), 12)
    if key not in coeff_cache:
        coeff_cache[key] = _etdrk4_coeffs(sp.L, h)
    E, E2, Q, f1, f2, f3 = coeff_cache[key]
    for _ in range(nstep):
        Nv = sp.nonlinear(v)
        a = E2 * v + Q * Nv
        Na = sp.nonlinear(a)
        b = E2 * v + Q * Na
        Nb = sp.nonlinear(b)
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = sp.nonlinear(c)
        v = E * v + Nv * f1 + 2.0 * (Na + Nb) * f2 + Nc * f3
        if not np.all(np.isfinite(v)):
            raise OracleError("spectral solution blew up (non-finite "
                              "coefficients) during a step")
    return v


def _resample(v, n_src, n_dst):
    """Spectral interpolation of rfft coefficients to n_dst points."""
    out = np.zeros(n_dst // 2 + 1, dtype=complex)
    take = min(len(v), len(out))
    out[:take] = v[:take]
    return np.fft.irfft(out * (n_dst / n_src), n=n_dst)


def _make_snapshot(sp, v, t, k, gp):
    return StateSnapshot(k=k, t=float(t), u_values=_resample(v, sp.n, gp),
                         ux_values=_resample(1j * sp.w * v, sp.n, gp))


def integrate(profile, k, save_times, snapshot_points=512):
    """Run the oracle and return StateSnapshots at the requested times,
    each sampled on snapshot_points grid points.

    save_times must be sorted, finite and >= 0, and k finite; anything
    else raises ValueError naming the value.  The step is DT, clamped by
    the advective CFL bound dt <= CFL_CONSTANT / (2 |k| max|f| n_modes).
    The first run uses N_MODES; while the tail fraction exceeds
    TAIL_THRESHOLD the run is repeated at double resolution, up to
    MAX_N_MODES, and a tail still above it there is reported as a warning.
    """
    if not math.isfinite(k):
        raise ValueError(f"need finite k, got k={k}")
    ts = [float(t) for t in save_times]
    for t in ts:
        if not 0 <= t < math.inf:
            raise ValueError(f"need finite save times >= 0, got t={t}")
    if sorted(ts) != ts:
        raise ValueError("save_times must be sorted")

    n = N_MODES
    while True:
        snaps, worst_tail = _single_run(profile, k, ts, snapshot_points, n)
        if worst_tail <= TAIL_THRESHOLD or n >= MAX_N_MODES:
            break
        n *= 2
    if worst_tail > TAIL_THRESHOLD:
        warnings.warn(
            f"oracle tail fraction {worst_tail:.2e} above threshold at "
            f"n_modes={n}; results may be under-resolved", RuntimeWarning)
    return snaps


def _single_run(profile, k, ts, snapshot_points, n):
    sp = _Spectral(n)
    u0 = k * profile.f(sp.x)
    speed = 2.0 * float(np.max(np.abs(u0))) + 1e-300
    h_cfl = CFL_CONSTANT / (speed * n)
    h_target = min(DT, h_cfl)
    if h_target < DT:
        warnings.warn(f"dt clamped to {h_target:.3e} by the advective CFL "
                      "bound", RuntimeWarning)

    v = np.fft.rfft(u0)
    coeff_cache = {}
    snaps = []
    worst_tail = 0.0
    t_now = 0.0
    for t_save in ts:
        v = _advance(sp, v, t_save - t_now, h_target, coeff_cache)
        t_now = t_save
        worst_tail = max(worst_tail, sp.tail_fraction(v))
        snaps.append(_make_snapshot(sp, v, t_save, k, snapshot_points))
    return snaps, worst_tail
