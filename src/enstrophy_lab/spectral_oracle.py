"""Independent pseudospectral integrator for u_t + 2 u u_x = u_xx.

This is the cross-check path: it never touches the heat-kernel machinery.
The equation is advanced in Fourier space in conservative form,

    d/dt u_hat = -w^2 u_hat - i w (u^2)_hat,   w = 2 pi n,

with 2/3-rule dealiasing of the quadratic term.  The time stepper is
ETDRK4 (Kassam & Trefethen 2005): exact stiff linear part, fourth-order
nonlinear part.  Its phi-coefficients come from the complex contour
average where |h L| < CONTOUR_LIMIT, so small h*L is not a cancellation
hazard, and from the direct formulas elsewhere.

The step is chosen by step doubling.  It starts at the advective CFL bound
h = CFL_CONSTANT / (2 max|k f| n_modes); a coarse pass takes steps of at
most 2h and a fine pass exactly half as long, and (fine - coarse) / 15
estimates the fine pass's error, because ETDRK4 is fourth order.  The step
is halved until that estimate meets STEP_RTOL * max|k f|.  The estimate
uses only the oracle's own passes, never the exact solver.  A spectral
tail monitor doubles the resolution when the top of the band fills up.

Only the dealiased band is stepped: the nonlinear term is zero above the
cut, so the modes there just decay by their exact factor exp(L t).  The
first coarse and fine passes are stepped in lockstep, as the two rows of
one array, so one FFT call serves both; each row does the arithmetic it
would do alone, so the result is the same bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .exact_solver import StateSnapshot, grid

# Fourier modes of the first run, and the most the tail monitor doubles to.
N_MODES = 1024
MAX_N_MODES = 8192
# Advective CFL constant: no fine-pass step exceeds
# CFL_CONSTANT / (2 max|k f| n_modes).
CFL_CONSTANT = 0.5
# Bound on the step-doubling error estimate, relative to max|k f|.
STEP_RTOL = 1e-10
# Share of the resolved band kept by the dealiasing mask (the 2/3 rule).
DEALIAS_FRACTION = 2.0 / 3.0
# Spectral tail fraction above which the run is repeated at double modes:
# the share of the band's energy whose amplitude is STEP_RTOL.
TAIL_THRESHOLD = STEP_RTOL ** 2
# |h L| below which the phi-coefficients take the contour average.
CONTOUR_LIMIT = 4.0


class OracleError(RuntimeError):
    """The oracle solution stopped being trustworthy (blow-up, NaN)."""


def _phi(z, ez):
    """(Q, f1, f2, f3) / h of ETDRK4 at z = h L, with ez = e^z: the
    closed forms of Kassam & Trefethen (2005)."""
    z3 = z ** 3
    return ((np.exp(z / 2) - 1.0) / z,
            (-4.0 - z + ez * (4.0 - 3.0 * z + z ** 2)) / z3,
            (2.0 + z + ez * (z - 2.0)) / z3,
            (-4.0 - 3.0 * z - z ** 2 + ez * (4.0 - z)) / z3)


def _etdrk4_coeffs(L, h, m=32):
    """phi-function coefficients: _phi averaged over a half-circle contour
    for |h L| < CONTOUR_LIMIT, _phi at h L itself (no cancellation there,
    since h L <= -CONTOUR_LIMIT) elsewhere."""
    z = h * L
    E = np.exp(z)
    coeffs = np.empty((4,) + z.shape)
    near = np.abs(z) < CONTOUR_LIMIT
    far = ~near

    # circles of radius 1 + |z| keep every node at least 1 from the
    # origin, where the closed forms would cancel
    zn = z[near, None]
    LR = zn + (1.0 - zn) * np.exp(1j * math.pi * (np.arange(m) + 0.5) / m)
    for c, phi in zip(coeffs, _phi(LR, np.exp(LR))):
        c[near] = np.real(np.mean(phi, axis=1))
    coeffs[:, far] = _phi(z[far], E[far])
    Q, f1, f2, f3 = h * coeffs
    return E, np.exp(0.5 * z), Q, f1, f2, f3


class _Spectral:
    """One resolution level: grids, the dealiased band, and the nonlinear
    term on it."""

    def __init__(self, n):
        self.n = n
        self.x = grid(n)
        self.w = 2.0 * math.pi * np.arange(n // 2 + 1)
        self.L = -self.w ** 2
        cut = int(DEALIAS_FRACTION * (n // 2))
        self.cut = cut
        # -i w on the kept band; above it the dealiased (u^2)_hat is 0
        self.minus_iw = -1j * self.w[:cut + 1]

    def nonlinear(self, v):
        """-i w (u^2)_hat on the band, for each row of band coefficients v."""
        u = np.fft.irfft(v, self.n)
        u *= u
        return self.minus_iw * np.fft.rfft(u)[..., :self.cut + 1]

    def band_coeffs(self, h):
        """_etdrk4_coeffs on the band, with the 2 of the f2 term folded in."""
        E, E2, Q, f1, f2, f3 = _etdrk4_coeffs(self.L[:self.cut + 1], h)
        return E, E2, Q, f1, 2.0 * f2, f3

    def tail_fraction(self, v):
        p = np.abs(v[1:self.cut + 1]) ** 2
        tot = float(np.sum(p)) + 1e-300
        lo = max(1, (3 * self.cut) // 4)
        return float(np.sum(p[lo - 1:])) / tot


def _step(sp, v, coeffs):
    """One ETDRK4 step of the band rows v with sp.band_coeffs (stacked to
    one set per row when v has several):

        a = E2 v + Q N(v),  b = E2 v + Q N(a),  c = E2 a + Q (2 N(b) - N(v)),
        v' = E v + f1 N(v) + 2 f2 (N(a) + N(b)) + f3 N(c),

    each product and sum formed as written (the 2 comes folded into f2,
    which is exact), in place where a term is not needed again."""
    E, E2, Q, f1, f2x2, f3 = coeffs
    Nv = sp.nonlinear(v)
    E2v = E2 * v
    a = Q * Nv
    a += E2v
    Na = sp.nonlinear(a)
    b = Q * Na
    b += E2v
    Nb = sp.nonlinear(b)
    c = 2.0 * Nb
    c -= Nv
    c *= Q
    a *= E2
    c += a
    Nc = sp.nonlinear(c)
    out = E * v
    Nv *= f1
    out += Nv
    Na += Nb
    Na *= f2x2
    out += Na
    Nc *= f3
    out += Nc
    return out


def _advance(sp, v, t_span, h_target, coeff_cache):
    """Advance v over t_span with uniform substeps close to h_target.

    v is one rfft row, or two in lockstep: row 1 takes the substeps and
    row 0 half as many, each twice as long, so the two rows are a coarse
    and a fine pass of step doubling.  Only the dealiased band is stepped;
    the modes above it get no forcing, so they take their exact factor
    exp(L t_span).  A result that is not finite raises OracleError (a NaN
    or inf reaches every mode through the next FFT, so none is lost by
    checking once)."""
    if t_span <= 0:
        return v
    pair = v.ndim == 2
    # substeps per step of row 0: a pair's coarse row takes whole steps
    per = 2 if pair else 1
    nstep = per * max(1, int(math.ceil(t_span / (per * h_target) - 1e-12)))
    h = t_span / nstep
    key = round(math.log(h), 12)
    if key not in coeff_cache:
        fine = sp.band_coeffs(h)
        coeff_cache[key] = (tuple(map(np.stack, zip(sp.band_coeffs(2.0 * h),
                                                    fine)))
                            if pair else fine)
    coeffs = coeff_cache[key]
    fine = tuple(c[1] for c in coeffs) if pair else coeffs
    band = v[..., :sp.cut + 1]
    for _ in range(nstep // per):
        band = _step(sp, band, coeffs)
        if pair:
            band[1] = _step(sp, band[1], fine)
    if not np.all(np.isfinite(band)):
        raise OracleError("spectral solution blew up (non-finite "
                          "coefficients) during a step")
    out = np.empty_like(v)
    out[..., :sp.cut + 1] = band
    out[..., sp.cut + 1:] = v[..., sp.cut + 1:] * np.exp(
        sp.L[sp.cut + 1:] * t_span)
    return out


def _resample(v, n_src, n_dst):
    """The n_dst grid values of the field whose rfft on n_src points is v.

    One irfft on n = max(n_src, n_dst) points, zero-padded when the grid
    is the larger, gives the field at every point of grid(n); every
    (n / n_dst)-th of them is a point of grid(n_dst).  So a grid coarser
    than the run samples every mode of v, those above its own Nyquist
    included."""
    n = max(n_src, n_dst)
    return np.fft.irfft(v, n=n)[::n // n_dst] * (n / n_src)


def _make_snapshot(sp, v, t, k, gp):
    return StateSnapshot(k=k, t=float(t), u_values=_resample(v, sp.n, gp),
                         ux_values=_resample(1j * sp.w * v, sp.n, gp))


def integrate(profile, k, save_times, snapshot_points=512):
    """Run the oracle and return StateSnapshots at the requested times,
    each sampled on snapshot_points grid points.

    save_times must be sorted, finite and >= 0, k finite and
    snapshot_points a positive power of two; anything else raises
    ValueError naming the value.  The step starts at the
    advective CFL bound CFL_CONSTANT / (2 max|k f| n_modes) and is halved
    until the step-doubling estimate of sup_x |u error| over the save
    times is at most STEP_RTOL * max|k f|; an estimate that stops
    shrinking (the round-off floor) is reported as a warning.  The first
    run uses N_MODES; while the tail fraction exceeds TAIL_THRESHOLD the
    run is repeated at double resolution, up to MAX_N_MODES, and a tail
    still above it there is reported as a warning.
    """
    if not math.isfinite(k):
        raise ValueError(f"need finite k, got k={k}")
    ts = [float(t) for t in save_times]
    for t in ts:
        if not 0 <= t < math.inf:
            raise ValueError(f"need finite save times >= 0, got t={t}")
    if sorted(ts) != ts:
        raise ValueError("save_times must be sorted")
    p = snapshot_points
    if not (isinstance(p, (int, np.integer)) and p > 0 and p & (p - 1) == 0):
        raise ValueError(f"need a positive power of two, got "
                         f"snapshot_points={p}")

    n = N_MODES
    while True:
        snaps, worst_tail, _ = _single_run(profile, k, ts, snapshot_points,
                                           n)
        if worst_tail <= TAIL_THRESHOLD or n >= MAX_N_MODES:
            break
        n *= 2
    if worst_tail > TAIL_THRESHOLD:
        warnings.warn(
            f"oracle tail fraction {worst_tail:.2e} above threshold at "
            f"n_modes={n}; results may be under-resolved", RuntimeWarning)
    return snaps


def _single_run(profile, k, ts, snapshot_points, n):
    """One resolution: (snapshots, worst tail fraction, error estimate).

    The first coarse and fine passes run in lockstep, one _advance call
    per save interval for both.  When n < MAX_N_MODES and the coarse
    pass's tail at a save time is above TAIL_THRESHOLD, the run stops
    there and returns that tail, with None for the snapshots and the
    estimate, so no more steps are paid at a resolution integrate
    discards.  Otherwise the step is halved until the step-doubling
    estimate meets STEP_RTOL * max|k f|, and the snapshots come from the
    finest pass that met it (or, at the round-off floor, from the pass
    with the smallest estimate).
    """
    sp = _Spectral(n)
    u0 = k * profile.f(sp.x)
    u_max = float(np.max(np.abs(u0)))
    h = CFL_CONSTANT / ((2.0 * u_max + 1e-300) * n)
    v0 = np.fft.rfft(u0)
    spans = np.diff(ts, prepend=0.0)
    # coarse substeps per save interval, each at most 2h
    m = [max(1, math.ceil(span / (2.0 * h))) for span in spans]

    def run(per_m):
        """v at every save time for a halving round's new pass, with
        m_i * per_m substeps per interval and a coefficient cache of its
        own, since its step lengths are new."""
        v, out, coeff_cache = v0, [], {}
        for span, m_i in zip(spans, m):
            v = _advance(sp, v, span, span / (m_i * per_m), coeff_cache)
            out.append(v)
        return out

    def estimate(fine, coarse):
        return max((float(np.max(np.abs(np.fft.irfft(vf - vc, n))))
                    for vf, vc in zip(fine, coarse)), default=0.0) / 15.0

    # rows 0 and 1: the coarse pass (m_i steps) and the fine one (2 m_i)
    pair, coarse, fine, coeff_cache = np.stack([v0, v0]), [], [], {}
    worst_tail = 0.0
    for span, m_i in zip(spans, m):
        pair = _advance(sp, pair, span, span / (2 * m_i), coeff_cache)
        worst_tail = max(worst_tail, sp.tail_fraction(pair[0]))
        if worst_tail > TAIL_THRESHOLD and n < MAX_N_MODES:
            return None, worst_tail, None
        coarse.append(pair[0])
        fine.append(pair[1])

    tol = STEP_RTOL * u_max
    per_m = 2
    err = estimate(fine, coarse)
    while err > tol:
        per_m *= 2
        finer = run(per_m)
        finer_err = estimate(finer, fine)
        if finer_err >= err:
            warnings.warn(
                f"oracle step-doubling estimate {err:.2e} above tolerance "
                f"{tol:.2e} and no longer shrinking when the step is "
                f"halved (round-off floor) at n_modes={n}", RuntimeWarning)
            break
        fine, err = finer, finer_err
    return ([_make_snapshot(sp, v, t, k, snapshot_points)
             for v, t in zip(fine, ts)], worst_tail, err)
