"""Fourier time stepper: linear limits, resolution control, guards."""

import math
import random
import warnings

import numpy as np
import pytest

from enstrophy_lab import asymptotics, exact_solver, spectral_oracle

# exp(-4 pi^2 * 0.01), frozen
HEAT_FACTOR = 0.67382545123143356


def test_zero_amplitude_stays_zero(sine):
    snaps = spectral_oracle.integrate(sine, 0.0, [0.0, 1e-3])
    for s in snaps:
        assert np.max(np.abs(s.u_values)) == 0.0


def test_linear_heat_decay(sine, monkeypatch):
    # k -> 0 freezes the nonlinearity; mode 1 must decay by e^{-4 pi^2 t},
    # and mode 100, above the dealiasing cut (mode 85 of a 256-point run)
    # where nothing is stepped, by its own factor e^{-4 pi^2 100^2 t}
    k = 1e-6
    monkeypatch.setattr(spectral_oracle, "N_MODES", 256)
    snap = spectral_oracle.integrate(sine, k, [0.01])[0]
    ref = k * sine.f(snap.x_grid) * HEAT_FACTOR
    assert np.max(np.abs(snap.u_values - ref)) < 1e-11

    def high(x):
        return np.sin(200.0 * np.pi * x)

    t = 1e-5
    both = sine._replace(f=lambda x: sine.f(x) + high(x))
    snap = spectral_oracle.integrate(both, k, [t])[0]
    ref = k * (sine.f(snap.x_grid) * math.exp(-4.0 * math.pi ** 2 * t)
               + high(snap.x_grid) * math.exp(-4e4 * math.pi ** 2 * t))
    assert np.max(np.abs(snap.u_values - ref)) < 1e-11


def test_snapshot_time_zero_and_oddness(sine):
    snaps = spectral_oracle.integrate(sine, 5.0, [0.0, 1e-3])
    assert snaps[0].t == 0.0
    assert np.max(np.abs(snaps[0].u_values
                         - 5.0 * sine.f(snaps[0].x_grid))) < 1e-12
    for s in snaps:
        assert s.oddness_residual < 1e-9


def test_substeps_respect_cfl_bound(sine, monkeypatch):
    # at k = 2e4 the advective bound h = CFL_CONSTANT / (2 max|k f| n),
    # not the error estimate, sets the step.  The coarse pass steps by at
    # most 2h; every finer pass, whose result is kept, by at most h.  Each
    # step's length per row is read off its coefficients, E = exp(h L) at
    # the top of the band; row 0 of a two-row step is the coarse pass.
    k = 2e4
    calls = []
    real = spectral_oracle._step

    def step(sp, v, coeffs):
        lengths = np.log(coeffs[0][..., -1]) / sp.L[sp.cut]
        calls.append((sp.n, v.ndim, np.atleast_1d(lengths)))
        return real(sp, v, coeffs)

    monkeypatch.setattr(spectral_oracle, "_step", step)
    snap = spectral_oracle.integrate(sine, k, [1e-8])[0]
    assert np.all(np.isfinite(snap.u_values))
    assert np.all(np.isfinite(snap.ux_values))
    u_max = k * float(np.max(np.abs(sine.f(exact_solver.grid(1024)))))
    n = calls[-1][0]
    coarse = [steps[0] for m, rows, steps in calls if m == n and rows == 2]
    kept = [steps[-1] for m, rows, steps in calls if m == n]
    h = spectral_oracle.CFL_CONSTANT / (2.0 * u_max * n)
    assert coarse and len(kept) > len(coarse)
    assert all(step <= 2.0 * h * (1.0 + 1e-12) for step in coarse)
    assert all(step <= h * (1.0 + 1e-12) for step in kept)


def test_negative_amplitude_is_half_period_shift(sine):
    # sin(2 pi (x + 1/2)) = -sin(2 pi x), so k -> -k shifts u by half a
    # period; the CFL bound must use |k| and step both runs alike
    n = 512
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = spectral_oracle.integrate(sine, 5.0, [1e-3], n)[0]
        neg = spectral_oracle.integrate(sine, -5.0, [1e-3], n)[0]
    assert np.max(np.abs(np.roll(pos.u_values, n // 2)
                         - neg.u_values)) < 1e-12


def test_tail_warning_without_headroom(sine, monkeypatch):
    # 64 modes cannot hold a k=30 shock; with doubling frozen the tail
    # monitor must complain
    monkeypatch.setattr(spectral_oracle, "N_MODES", 64)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 64)
    t = 1.0 / (480.0 * math.pi)
    with pytest.warns(RuntimeWarning, match="tail"):
        spectral_oracle.integrate(sine, 30.0, [t])


def test_discarded_resolution_stops_at_the_first_wide_tail(sine,
                                                          monkeypatch):
    # the same shock at 64 modes with room to double: the run stops after
    # the first save interval, whose coarse tail is already too wide, and
    # steps none of the later ones
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 128)
    calls = []
    real = spectral_oracle._advance

    def advance(sp, v, t_span, h_target):
        calls.append(t_span)
        return real(sp, v, t_span, h_target)

    monkeypatch.setattr(spectral_oracle, "_advance", advance)
    t = 1.0 / (480.0 * math.pi)
    snaps, tail, est = spectral_oracle._single_run(sine, 30.0,
                                                   [t, 2 * t, 3 * t], 512, 64)
    assert snaps is None and est is None
    assert tail > spectral_oracle.TAIL_THRESHOLD
    assert len(calls) == 1


def test_auto_doubling_resolves(sine, monkeypatch):
    # same shock as above, but with headroom: doubling must quiet the tail
    # monitor.
    monkeypatch.setattr(spectral_oracle, "N_MODES", 128)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 4096)
    t = 1.0 / (480.0 * math.pi)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message=".*tail.*")
        snaps = spectral_oracle.integrate(sine, 30.0, [t])
    assert len(snaps) == 1


def test_blowup_raises(sine, monkeypatch):
    monkeypatch.setattr(spectral_oracle, "CFL_CONSTANT", 1e9)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        with pytest.raises(spectral_oracle.OracleError):
            spectral_oracle.integrate(sine, 100.0, [0.05])


def test_save_time_validation(sine):
    assert spectral_oracle.integrate(sine, 5.0, []) == []
    with pytest.raises(ValueError):
        spectral_oracle.integrate(sine, 5.0, [1e-3, 5e-4])
    # a bad time or amplitude is named before any stepping
    for k, times, named in ((5.0, [0.0, math.nan], "t=nan"),
                            (5.0, [0.0, math.inf], "t=inf"),
                            (5.0, [-1e-3, 0.0], "t=-0.001"),
                            (math.nan, [1e-3], "k=nan"),
                            (math.inf, [1e-3], "k=inf")):
        with pytest.raises(ValueError, match=named):
            spectral_oracle.integrate(sine, k, times)
    # so is a snapshot grid that is not a power of two
    for points in (300, 768, 0, -512, 512.0):
        with pytest.raises(ValueError, match=f"snapshot_points={points}"):
            spectral_oracle.integrate(sine, 5.0, [1e-3], points)


def _phi_weights(z):
    """(Q, f1, f2, f3) / h of ETDRK4 at z = h L, from phi_1..phi_3 in
    mpmath at 30 digits: Q = phi_1(z/2)/2, f1 = phi_1 - 3 phi_2 + 4 phi_3,
    f2 = phi_2 - 2 phi_3, f3 = -phi_2 + 4 phi_3."""
    mp = pytest.importorskip("mpmath")

    def phi(j, z):
        # phi_j(z) = sum_i z^i / (i + j)!, summed directly where the
        # closed form (e^z - sum_{i<j} z^i/i!) / z^j would cancel
        if abs(z) < 1:
            return mp.nsum(lambda i: z ** i / mp.factorial(i + j),
                           [0, mp.inf])
        return (mp.exp(z) - sum(z ** i / mp.factorial(i)
                                for i in range(j))) / z ** j

    with mp.workdps(30):
        z = mp.mpf(z)
        p1, p2, p3 = phi(1, z), phi(2, z), phi(3, z)
        return (phi(1, z / 2) / 2, p1 - 3 * p2 + 4 * p3, p2 - 2 * p3,
                -p2 + 4 * p3)


def test_etdrk4_coeffs_match_mpmath_phi_functions():
    # mode 0, a fine scan of the contour region, both sides of the
    # contour/direct switch at |h L| = 4, and out to h L = -1e5
    h = 1e-4
    z = np.concatenate([[0.0], -np.linspace(0.05, 4.5, 90),
                        -np.geomspace(1e-10, 1e5, 60),
                        [-3.999, -4.0, -4.001]])
    L = z / h
    E, E2, Q, f1, f2, f3 = spectral_oracle._etdrk4_coeffs(L, h)
    for i, zi in enumerate(h * L):
        ref = _phi_weights(float(zi))
        for j, (got, want) in enumerate(zip((Q[i], f1[i], f2[i], f3[i]),
                                            ref)):
            want = h * float(want)
            # f1 changes sign near h L = -2.69, where no relative bound
            # can hold; there it is held to 1e-14 of its h L = 0 value h/6
            scale = h / 6.0 if j == 1 and -3.2 < zi < -2.2 else abs(want)
            assert abs(got - want) <= 1e-14 * scale, (j, zi, got, want)
        assert E[i] == np.exp(zi) and E2[i] == np.exp(0.5 * zi)


@pytest.mark.parametrize("h", [1e-6, 3.7e-5])
def test_band_coeffs_fold_minus_iw_into_the_phi_coefficients(h):
    # the nonlinear evaluation is (u^2)_hat, so the band's coefficients
    # carry the -i w of the equation: E and E2 as _etdrk4_coeffs gives
    # them, and -i w times its Q, f1, 2 f2 and f3, bit for bit
    sp = spectral_oracle._Spectral(1024)
    band = sp.cut + 1
    E, E2, Q, f1, f2, f3 = spectral_oracle._etdrk4_coeffs(sp.L[:band], h)
    miw = -1j * sp.w[:band]
    got = sp.band_coeffs(h)
    want = (E, E2, miw * Q, miw * f1, miw * (2.0 * f2), miw * f3)
    for g, w in zip(got, want):
        assert g.shape == (band,) and np.array_equal(g, w)


def _solve_oracle_times():
    """The 16 jittered save times in (0, 4e-3] of the benchmark's
    solve-oracle workload at seed 7."""
    rng = random.Random("solve-oracle:7")
    return [4e-3 * (i + 1 - 0.5 * rng.random()) / 16 for i in range(16)]


def _alone(sp, v, span, nstep):
    """v after nstep ETDRK4 steps of span / nstep, one row with its own
    coefficients, the band stepped and the modes above it decayed."""
    coeffs = sp.band_coeffs(span / nstep)
    band = v[:sp.cut + 1]
    for _ in range(nstep):
        band = spectral_oracle._step(sp, band, coeffs)
    return np.concatenate([band, v[sp.cut + 1:]
                           * np.exp(sp.L[sp.cut + 1:] * span)])


def _first_round(sine, k):
    """The oracle's resolution, the Fourier coefficients of k f on it, and
    the first round's coarse steps per interval of the seed-7 times."""
    sp = spectral_oracle._Spectral(spectral_oracle.N_MODES)
    u0 = k * sine.f(sp.x)
    h = spectral_oracle.CFL_CONSTANT / (2.0 * float(np.max(np.abs(u0)))
                                        * sp.n)
    spans = np.diff(_solve_oracle_times(), prepend=0.0)
    return sp, np.fft.rfft(u0), spans, [max(1, math.ceil(span / (2.0 * h)))
                                        for span in spans]


def test_lockstep_pair_matches_each_pass_alone(sine):
    # a round steps the coarse and fine passes as the two rows of one
    # array; each row must come out bit for bit as that pass stepped
    # alone, one row at a time with its own coefficients
    sp, v0, spans, ms = _first_round(sine, 5.0)
    pair, coarse, fine = np.stack([v0, v0]), v0, v0
    for span, m in zip(spans, ms):
        pair = spectral_oracle._advance(sp, pair, span, span / (2 * m))
        coarse = _alone(sp, coarse, span, m)
        fine = _alone(sp, fine, span, 2 * m)
        assert np.array_equal(pair[0], coarse)
        assert np.array_equal(pair[1], fine)
    assert not np.array_equal(coarse, fine)


def test_halving_round_coarse_pass_is_the_previous_fine_pass(sine):
    # 2 (span / 4m) is exactly span / 2m, so a halving round's coarse row
    # repeats the previous round's fine row bit for bit: one stepping path
    # serves every round without changing what it computes
    sp, v0, spans, ms = _first_round(sine, 5.0)
    first = second = np.stack([v0, v0])
    for span, m in zip(spans, ms):
        first = spectral_oracle._advance(sp, first, span, span / (2 * m))
        second = spectral_oracle._advance(sp, second, span, span / (4 * m))
        assert np.array_equal(second[0], first[1])
    assert not np.array_equal(second[0], second[1])


def test_step_estimate_meets_tolerance_and_bounds_error(sine):
    # the estimate comes from the oracle's own passes; the exact solver
    # then shows it bounds the real error, far below criterion 03's 1e-6
    k = 5.0
    ts = _solve_oracle_times()
    snaps, tail, est = spectral_oracle._single_run(
        sine, k, ts, 512, spectral_oracle.N_MODES)
    u_max = k * float(np.max(np.abs(sine.f(exact_solver.grid(1024)))))
    assert tail <= spectral_oracle.TAIL_THRESHOLD
    assert 0.0 < est <= spectral_oracle.STEP_RTOL * u_max
    worst = max(float(np.max(np.abs(exact_solver.snapshot(sine, t, k).u_values
                                    - s.u_values)))
                for t, s in zip(ts, snaps))
    assert worst <= 2.0 * est + 1e-11


def test_halving_case_estimate_is_pinned(sine):
    # sine k = 5 at [1e-3, 2e-3] takes one halving round at 1024 modes;
    # the estimate was 8.443312492910556e-10 before every round stepped a
    # lockstep pair, and the pair must reproduce it
    snaps, tail, est = spectral_oracle._single_run(sine, 5.0, [1e-3, 2e-3],
                                                   512, 1024)
    assert est == pytest.approx(8.443312492910556e-10, rel=1e-12)
    assert len(snaps) == 2


def test_round_off_floor_estimate_is_pinned(sine, monkeypatch):
    # the round-off-floor case below, run directly: it returns the last
    # estimate that still shrank, 2.6288585987072086e-15 before every round
    # stepped a lockstep pair
    monkeypatch.setattr(spectral_oracle, "STEP_RTOL", 1e-16)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 64)
    with pytest.warns(RuntimeWarning, match="round-off floor"):
        snaps, tail, est = spectral_oracle._single_run(
            sine, 1.0, [5e-4, 1e-3], 512, 64)
    assert est == pytest.approx(2.6288585987072086e-15, rel=1e-12)
    assert len(snaps) == 2


def test_round_off_floor_warns_and_returns(sine, monkeypatch):
    # a tolerance below round-off cannot be met: halving stops once the
    # estimate no longer shrinks, with a warning, and the run still returns
    monkeypatch.setattr(spectral_oracle, "STEP_RTOL", 1e-16)
    monkeypatch.setattr(spectral_oracle, "N_MODES", 64)
    monkeypatch.setattr(spectral_oracle, "MAX_N_MODES", 64)
    with pytest.warns(RuntimeWarning, match="round-off floor"):
        snaps = spectral_oracle.integrate(sine, 1.0, [5e-4, 1e-3])
    assert len(snaps) == 2
    assert all(np.all(np.isfinite(s.u_values)) for s in snaps)


def test_resample_keeps_modes_above_the_grid_nyquist():
    # a field with modes up to 300 on 1024 points, sampled on 64 and on
    # 2048 points: every mode counts at each grid point, so the samples
    # are the field's values there
    def field(x):
        return np.sin(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * 300 * x)

    v = np.fft.rfft(field(exact_solver.grid(1024)))
    for n in (64, 2048):
        got = spectral_oracle._resample(v, 1024, n)
        assert np.max(np.abs(got - field(exact_solver.grid(n)))) < 1e-12


def test_oracle_matches_exact_snapshot_past_the_grid_nyquist(sine):
    """At k = 40 the oracle resolves u with more modes than the 512-point
    grid holds; sampled with every mode, it matches the exact snapshot to
    1e-9 of max|k f| at T*_pred / 2 and T*_pred."""
    k = 40.0
    t_pred = asymptotics.predict(sine, k).T_star
    ts = [0.5 * t_pred, t_pred]
    u_max = k * float(np.max(np.abs(sine.f(exact_solver.grid(1024)))))
    for t, snap in zip(ts, spectral_oracle.integrate(sine, k, ts, 512)):
        exact = exact_solver.snapshot(sine, t, k)
        assert len(snap.u_values) == len(exact.u_values) == 512
        assert np.max(np.abs(snap.u_values - exact.u_values)) \
            <= 1e-9 * u_max, t
