"""Heat-kernel integral evaluation: closed forms, symmetry, dual routes."""

import math
import re

import numpy as np
import pytest

from enstrophy_lab import (asymptotics, exact_solver, harness, profiles,
                          quadrature, rootfind)
from enstrophy_lab.quadrature import QuadratureError


def _flat_profile():
    return profiles.make_sine_series_profile([0.0], validate=False,
                                             label="flat")


def _log_I(profile, x, a, k):
    """log I_{x,a}(k) = log r0 - k*m from the scaled zeroth moment."""
    m, r = exact_solver._phase_moments(profile, np.array([float(x)]), a, k,
                                       n_moments=0)
    return math.log(r[0, 0]) - k * m[0]


def _u(profile, x, a, k):
    return float(exact_solver.eval_fields(profile, [x], a, k)[0][0])


def _ux(profile, x, a, k):
    return float(exact_solver.eval_fields(profile, [x], a, k)[1][0])


def _scan_radius(profile, x, a, k, n_moments):
    """The stationary-scan radius `_phase_moments` uses for the batch x."""
    return float(exact_solver._window_halfwidth(
        profile, a, k, n_moments, np.max(profile.F(x) - profile.F_min)))


def _row_halfwidths(profile, x, a, k, n_moments):
    """(m, r, L): each row's phase minimum, scaled moments and y-window
    half-width."""
    m, r = exact_solver._phase_moments(profile, x, a, k, n_moments=n_moments)
    return m, r, exact_solver._window_halfwidth(profile, a, k, n_moments,
                                                m - profile.F_min)


def test_gaussian_integral_closed_form():
    # with f = 0 the phase is purely quadratic: I = sqrt(2 pi / (k a))
    flat = _flat_profile()
    for x, a, k in ((0.0, 1.0, 1.0), (0.2, 3.0, 7.5), (-0.3, 0.4, 20.0)):
        ref = math.sqrt(2.0 * math.pi / (k * a))
        assert abs(math.exp(_log_I(flat, x, a, k)) / ref - 1.0) < 1e-12


def test_flat_profile_velocity_vanishes():
    flat = _flat_profile()
    u, ux = exact_solver.eval_fields(flat, [0.1, 0.3], 2.0, 4.0)
    assert np.max(np.abs(u)) < 1e-10
    assert np.max(np.abs(ux)) < 1e-8


def test_scaled_integral_value():
    si = asymptotics.ScaledIntegral(mantissa=2.0, exponent=0.5)
    assert si.value(3.0) == 2.0 * math.exp(-1.5)


def test_snapshot_oddness(sine):
    snap = exact_solver.snapshot(sine, 1e-3, 50.0)
    assert snap.oddness_residual < 1e-9


def test_time_zero_snapshot_echoes_data(sine):
    snap = exact_solver.snapshot(sine, 0.0, 7.0)
    assert snap.t == 0.0
    assert np.array_equal(snap.u_values, 7.0 * sine.f(snap.x_grid))


def test_snapshot_evaluates_a_large_grid_in_slices(sine, monkeypatch):
    # a grid of more than SNAPSHOT_ROWS points goes to eval_fields in
    # slices, each with a y-skeleton of its own; they agree with one batch
    # within the y-tolerance
    whole = exact_solver.snapshot(sine, 4e-3, 5.0)
    sizes = []
    eval_fields = exact_solver.eval_fields

    def counted(profile, x, a, k):
        sizes.append(len(x))
        return eval_fields(profile, x, a, k)

    monkeypatch.setattr(exact_solver, "eval_fields", counted)
    monkeypatch.setattr(exact_solver, "SNAPSHOT_ROWS", 96)
    sliced = exact_solver.snapshot(sine, 4e-3, 5.0)
    assert sizes == [96] * 5 + [32]
    for got, want in ((sliced.u_values, whole.u_values),
                      (sliced.ux_values, whole.ux_values)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_snapshot_on_a_grid_past_max_panels_in_one_batch(sine):
    # the 32768-point grid at k = 5 holds about 341000 y-skeleton panels,
    # more than quadrature.MAX_PANELS would let one batch refine
    fine = exact_solver.snapshot(sine, 4e-3, 5.0,
                                 exact_solver.SolverConfig(grid_size=16384))
    coarse = exact_solver.snapshot(sine, 4e-3, 5.0)
    for got, want in ((fine.u_values[::64], coarse.u_values),
                      (fine.ux_values[::64], coarse.ux_values)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_large_a_limit_recovers_initial_data(sine):
    # a = 1/(2 k t) = 1e8
    snap = exact_solver.snapshot(sine, 1.0 / (2.0 * 5.0 * 1e8), 5.0)
    sup = np.max(np.abs(snap.u_values - 5.0 * sine.f(snap.x_grid)))
    assert sup < 1e-4, f"sup = {sup:.3e}"


def test_u_matches_log_derivative_of_I(sine):
    # dual route: u = - d/dx log I, via centered differences of log I
    x, a, k = 0.1, 50.0, 5.0
    h = 1e-5
    fd = -(_log_I(sine, x + h, a, k) - _log_I(sine, x - h, a, k)) / (2.0 * h)
    u = _u(sine, x, a, k)
    assert abs(fd - u) < 1e-5 * max(1.0, abs(u))


def test_ux_matches_derivative_of_u(sine):
    x, a, k = 0.15, 50.0, 5.0
    h = 1e-5
    fd = (_u(sine, x + h, a, k) - _u(sine, x - h, a, k)) / (2.0 * h)
    ux = _ux(sine, x, a, k)
    assert abs(fd - ux) < 1e-4 * max(1.0, abs(ux))


def test_uxx_consistent_with_moment_identity(sine):
    # third route: u_xx from the moment formula vs differences of u_x
    x, a, k = 0.2, 60.0, 4.0
    h = 1e-5
    _, _, uxx = exact_solver.eval_fields(sine, [x], a, k, want_uxx=True)
    fd = (_ux(sine, x + h, a, k) - _ux(sine, x - h, a, k)) / (2.0 * h)
    assert abs(fd - uxx[0]) < 1e-3 * max(1.0, abs(uxx[0]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        exact_solver.SolverConfig(grid_size=100)


def test_unconverged_quadrature_names_the_point(sine, monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 0)
    with pytest.raises(QuadratureError, match=r"x=0\.1"):
        exact_solver.eval_fields(sine, [0.1], 25.0, 2000.0)


def test_phase_below_located_minimum_names_the_row(sine, monkeypatch):
    # x = 0.08 has two minima at a = 10; with the scan made to drop its
    # global one, the phase falls k * 0.63 = 63 below the located minimum
    # on that row's panels, and the error must name that row's x
    x = np.array([-0.3, -0.12, -0.04, 0.08, 0.2, 0.41])
    scan = exact_solver._stationary_points

    def drop_global_minimum(profile, xs, a, L):
        rows, roots, curv = scan(profile, xs, a, L)
        phase = profile.F(roots) + 0.5 * a * (xs[rows] - roots) ** 2
        mins = np.nonzero((rows == 3) & (curv > 0))[0]
        assert len(mins) == 2
        keep = np.arange(len(rows)) != mins[np.argmin(phase[mins])]
        return rows[keep], roots[keep], curv[keep]

    monkeypatch.setattr(exact_solver, "_stationary_points",
                        drop_global_minimum)
    with pytest.raises(QuadratureError,
                       match=r"below its located minimum at x=0\.08,"):
        exact_solver.eval_fields(sine, x, 10.0, 100.0)


def test_negative_time_rejected(sine):
    with pytest.raises(ValueError):
        exact_solver.snapshot(sine, -1.0, 5.0)


def test_non_finite_time_rejected(sine):
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t={t}"):
            exact_solver.snapshot(sine, t, 5.0)


@pytest.mark.parametrize("x, a, k, named", [
    (math.nan, 2.0, 10.0, "x=nan"), (math.inf, 2.0, 10.0, "x=inf"),
    (0.1, math.inf, 10.0, "a=inf"), (0.1, 2.0, math.inf, "k=inf")])
def test_non_finite_input_raises_naming_the_value(sine, x, a, k, named):
    with np.errstate(invalid="ignore"), \
            pytest.raises((QuadratureError, ValueError), match=named):
        exact_solver.eval_fields(sine, [0.1, x], a, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [1e36, 1e300])
def test_window_below_float_spacing_raises_naming_the_row(sine, a):
    # once the y-window is narrower than the float spacing at x = 0.2,
    # every panel of that row has zero width and r0 = 0: the fields came
    # back NaN (or -0) with only a RuntimeWarning, and at a = 1e300 the
    # scan's products overflowed and u_x raised a bare OverflowError
    named = re.escape(f"(x=0.2, a={a:.6g}, k=1)")
    with pytest.raises(QuadratureError, match=r"r0 is not positive.*"
                       + named):
        exact_solver.eval_fields(sine, [0.1, 0.2], a, 1.0)


@pytest.mark.parametrize("x, a", [(0.1, 1e35), (0.3, 1e34), (0.05, 1e20)])
def test_narrow_window_in_float_spacings_raises_naming_the_row(sine, x, a):
    # each row converges with r0 > 0, but its y-window half-width is only
    # 2.0 (x = 0.1), 1.6 (x = 0.3) and 1.6e8 (x = 0.05) float spacings of
    # x: the fields came back as u = -0, -974.6 and -1.928, where u =
    # k f(x) = -3.69, -5.98 and -1.942
    named = re.escape(f"(x={x:.6g}, a={a:.6g}, k=1)")
    with pytest.raises(QuadratureError,
                       match=r"y-window below MIN_WINDOW_SPACINGS.*" + named):
        exact_solver.eval_fields(sine, [x], a, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("want_uxx", [False, True])
def test_overflowing_power_of_ka_raises_naming_the_row(sine, want_uxx):
    # the float spacing at x = 0 is fine enough for the row's moments to
    # converge at a = 1e300, and (k a)^2 then overflowed a Python float
    # with a bare OverflowError
    named = re.escape("(x=0, a=1e+300, k=1)")
    with pytest.raises(QuadratureError, match=r"overflows at " + named):
        exact_solver.eval_fields(sine, [0.0], 1e300, 1.0, want_uxx=want_uxx)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_radius_below_float_spacing_raises_naming_the_row(sine):
    # at a = 1e36 the scan radius 1e-17 about x = 0.25 is below the float
    # spacing there, so the scan has no cell about the zero at 0.25 and
    # the row raised "phase has no finite minimum", which names a cause (a
    # NaN or infinite x) that does not apply
    named = re.escape("(x=0.25, a=1e+36, k=1)")
    with pytest.raises(QuadratureError,
                       match=r"below the float spacing\) at " + named):
        exact_solver.eval_fields(sine, [0.25], 1e36, 1.0)


def test_pitchfork_row_whose_minima_the_scan_misses(sine):
    # just below a = |f'(0)| the two minima at x = 0 sit within one scan
    # cell of the maximum between them; the row still evaluates, and u_x(0)
    # moves by O(1e-6) relatively across the pitchfork
    apf = abs(sine.f_prime_at_zero)
    a = apf * (1 - 1e-6)
    R = _scan_radius(sine, np.array([0.0]), a, 5.0, 2)
    _, _, curv = exact_solver._stationary_points(sine, np.array([0.0]), a, R)
    assert list(curv > 0) == [True, False, True]
    below = exact_solver.eval_fields(sine, [0.0], a, 5.0)
    above = exact_solver.eval_fields(sine, [0.0], apf * (1 + 1e-6), 5.0)
    assert abs(below[0][0]) < 1e-12
    assert abs(below[1][0] / above[1][0] - 1.0) < 1e-5
    snap = exact_solver.snapshot(sine, 1.0 / (2.0 * 5.0 * apf), 5.0)
    assert np.all(np.isfinite(snap.ux_values))
    assert snap.oddness_residual < 1e-9


def _skeleton_by_row(x, L, coarse, rows, roots, is_min, ladder, gap):
    """Row-by-row reference: np.unique of the clipped breakpoints, then
    drop each point within gap of its predecessor."""
    out_rows, out_lo, out_hi = [np.empty(0, np.intp)], [np.empty(0)], \
        [np.empty(0)]
    half = np.broadcast_to(L, x.shape)
    for i in range(len(x)):
        ri = roots[rows == i]
        pts = [x[i] + coarse, ri]
        mins = ri[is_min[rows == i]]
        if len(mins):
            pts.append((mins[:, None] + ladder[None, :]).ravel())
        b = np.unique(np.clip(np.concatenate(pts), x[i] - half[i],
                              x[i] + half[i]))
        if len(b) > 1:
            b = np.concatenate([b[:1], b[1:][np.diff(b) > gap]])
        out_rows.append(np.full(len(b) - 1, i, dtype=np.intp))
        out_lo.append(b[:-1])
        out_hi.append(b[1:])
    return tuple(np.concatenate(p) for p in (out_rows, out_lo, out_hi))


def _assert_same_skeleton(*args):
    got = exact_solver._panel_skeleton(*args)
    ref = _skeleton_by_row(*args)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)
    return got


def test_panel_skeleton_matches_row_by_row_reference():
    L, gap = 0.5, 2.0 ** -10
    coarse = np.linspace(-L, L, 9)
    ladder = np.array([-0.2, -0.05, -0.01, 0.01, 0.05, 0.2])
    x = np.array([0.0, 0.1, 0.3, -0.2])
    rows = np.array([0, 0, 0, 0, 1, 1, 1, 3, 3], dtype=np.intp)
    roots = np.array([
        0.125,              # on the coarse node x_0 + L/4
        0.25 + gap,         # exactly gap above a node: dropped
        0.2, 0.2,           # the same breakpoint twice
        0.1 + 0.3 * gap,    # closer than gap to the node x_1
        0.4, 0.55,          # ladders reaching past x_1 + L are clipped
        -0.35, -0.35 + 0.01 + 0.5 * gap,  # a ladder rung within gap
    ])
    is_min = np.array([True, False, True, True, False, True, True, True,
                       False])
    # row 2 has no stationary point and so no minimum
    prow, lo, hi = _assert_same_skeleton(x, L, coarse, rows, roots, is_min,
                                         ladder, gap)
    assert set(prow) == {0, 1, 2, 3}
    assert np.all(hi - lo > gap)
    # the same with the stationary points listed in no particular order
    perm = np.random.default_rng(3).permutation(len(rows))
    _assert_same_skeleton(x, L, coarse, rows[perm], roots[perm],
                          is_min[perm], ladder, gap)
    # an empty batch gives no panels
    prow, lo, hi = _assert_same_skeleton(
        np.empty(0), L, coarse, np.empty(0, np.intp), np.empty(0),
        np.empty(0, bool), ladder, gap)
    assert len(prow) == len(lo) == len(hi) == 0


def test_panel_skeleton_matches_reference_on_solver_input(sine, two_term):
    for profile, a, k in ((sine, 3.0, 160.0), (two_term, 0.25, 40.0)):
        x = np.linspace(-0.5, 0.5, 33)
        R = _scan_radius(profile, x, a, k, 2)
        _, _, L = _row_halfwidths(profile, x, a, k, 2)
        rows, roots, curv = exact_solver._stationary_points(profile, x, a, R)
        coarse = np.linspace(-R, R, exact_solver.COARSE_PANELS + 1)
        w = 1.0 / math.sqrt(k * (a + profile.f_prime_max) + 1.0)
        ladder = w * 2.0 ** np.arange(6)
        ladder = np.concatenate([-ladder[::-1], ladder])
        _assert_same_skeleton(x, L, coarse, rows, roots, curv > 0, ladder,
                              max(w / 8.0, 4e-16 * R))


def test_empty_batch_gives_empty_fields(sine):
    u, ux, uxx = exact_solver.eval_fields(sine, [], 2.0, 10.0,
                                          want_uxx=True)
    assert u.shape == ux.shape == uxx.shape == (0,)


# (profile, k, t), t absolute or relative to the predicted T*: at T*, at
# T*/5 (a = 5 a* lies above the pitchfork, one minimum per row), and three
# fixed times; at two-term k = 5, t = 0.2 the per-row window (about 6.2) is
# wider than the global one it replaced (5.43)
T_STAR_SHARE = {"T*": 1.0, "T*/5": 0.2}
WINDOW_CASES = [(which, k, t) for which in ("sine", "two_term")
                for k in (5.0, 40.0, 160.0, 2560.0) for t in T_STAR_SHARE]
WINDOW_CASES += [("two_term", 40.0, 0.05), ("sine", 2560.0, 7.8e-6),
                 ("two_term", 5.0, 0.2)]


def _window_case(which, k, t, request):
    profile = request.getfixturevalue(which)
    if t in T_STAR_SHARE:
        t = T_STAR_SHARE[t] * asymptotics.predict(profile, k).T_star
    return profile, 1.0 / (2.0 * k * t)


@pytest.mark.parametrize("which, k, t", WINDOW_CASES)
def test_window_tail_below_row_tolerance(which, k, t, request):
    """Outside each row's |y - x| = L_i, each moment integrand
    |y-x|^j exp(-k(phi - m)), j = 0..3, holds less mass than TAIL_SHARE of
    the row tolerance the quadrature works to, QUAD_TOL *
    max(|r_j|, FLOOR_FRAC * integral of |.|), measured with
    scipy.integrate.quad on [L_i, 3 L_i] on both sides."""
    from scipy.integrate import quad

    profile, a = _window_case(which, k, t, request)
    xs = np.linspace(0.0, 0.5, 11)
    m, r, L = _row_halfwidths(profile, xs, a, k, 3)
    rows, roots, _ = exact_solver._stationary_points(
        profile, xs, a, _scan_radius(profile, xs, a, k, 3))
    if (which, k, t) == ("two_term", 5.0, 0.2):
        assert L.max() > 6.0
    for i, x in enumerate(xs):
        inside_pts = roots[(rows == i) & (np.abs(roots - x) < L[i])]
        for j in range(4):
            def g(y):
                d = abs(y - x)
                ph = profile.F(y) + 0.5 * a * d * d - m[i]
                return d ** j * math.exp(-k * ph)

            inside = quad(g, x - L[i], x + L[i], points=inside_pts,
                          epsabs=0.0, epsrel=1e-8, limit=400)[0]
            # past |y - x| = 3L the weight is below exp(-4 k a L^2) of
            # its value at L
            tail = sum(quad(g, lo, hi, epsabs=0.0, epsrel=1e-6,
                            limit=400)[0]
                       for lo, hi in ((x + L[i], x + 3 * L[i]),
                                      (x - 3 * L[i], x - L[i])))
            row_tol = exact_solver.QUAD_TOL * max(
                abs(r[i, j]), quadrature.FLOOR_FRAC * inside)
            assert tail < exact_solver.TAIL_SHARE * row_tol, \
                (x, j, tail, row_tol)


@pytest.mark.parametrize("which, k, t", WINDOW_CASES)
def test_window_keeps_the_half_gaussian_past_the_minimum(which, k, t,
                                                         request):
    """Each row's located phase minimum y* sits at least sqrt(2M/(ka))
    inside the row's window: |y* - x| + sqrt(2M/(ka)) <= L_i."""
    profile, a = _window_case(which, k, t, request)
    xs = np.linspace(-0.5, 0.5, 41)
    m, _, L = _row_halfwidths(profile, xs, a, k, 3)
    pad = float(exact_solver._window_halfwidth(profile, a, k, 3, 0.0))
    rows, roots, curv = exact_solver._stationary_points(
        profile, xs, a, _scan_radius(profile, xs, a, k, 3))
    phase = profile.F(roots) + 0.5 * a * (xs[rows] - roots) ** 2
    for i, x in enumerate(xs):
        mine = (rows == i) & (curv > 0)
        y_star = roots[mine][np.argmin(phase[mine])]
        assert phase[mine].min() == m[i]
        assert abs(y_star - x) + pad <= L[i] * (1.0 + 1e-12)


def test_scan_finds_the_root_pair_born_at_the_fold(sine):
    """Just before the fold x0(a*) the minimum s_minus and the saddle
    s_mid are 2.4e-3 apart, closer than one scan cell, and g keeps its
    sign on every sample around them; the scan still finds both."""
    a = asymptotics.bifurcation_data(sine, 50.0).a_star
    x = asymptotics.fold_location(sine, a) * (1.0 - 1e-4)
    ref = asymptotics.find_roots(sine, x, a)
    assert ref.regime == asymptotics.TRIPLE
    xs = np.array([x])
    _, roots, curv = exact_solver._stationary_points(
        sine, xs, a, _scan_radius(sine, xs, a, 50.0, 2))
    want = np.array([ref.s_minus, ref.s_mid, ref.s_plus])
    assert len(roots) == 3
    assert np.allclose(np.sort(roots), want, rtol=0.0, atol=1e-12)
    assert list(curv[np.argsort(roots)] > 0) == [True, False, True]


def _dense_brentq_roots(profile, x, a, L, per_unit=2 ** 16):
    """Zeros of g(y) = f(y) + a (y - x) on [x - L, x + L]: every sign
    change of g on a grid of per_unit samples per unit, polished by
    scipy.optimize.brentq, plus any sample where g is exactly 0."""
    from scipy.optimize import brentq

    ys = x + np.linspace(-L, L, int(math.ceil(2 * L * per_unit)) + 1)
    g = profile.f(ys) + a * (ys - x)
    roots = list(ys[g == 0])
    for j in np.nonzero(g[:-1] * g[1:] < 0)[0]:
        roots.append(brentq(lambda y: float(profile.f(y) + a * (y - x)),
                            ys[j], ys[j + 1], xtol=1e-300, rtol=8.9e-16))
    return np.sort(roots)


# a as a share of the pitchfork curvature |f'(0)|, where row 0's minimum
# splits into two; just below it the two minima and the maximum between
# them lie closer together than one scan cell
PITCHFORK_SHARES = (0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 + 1e-6)


@pytest.mark.parametrize("which", ["sine", "two_term"])
def test_scan_finds_every_root_of_a_dense_reference(which, request):
    """Every row gets the same number of roots as a dense per-row brentq
    reference, each within 1e-12; non-finite rows get none.  2.37 is row
    0.37 one period over two."""
    profile = request.getfixturevalue(which)
    xs = np.array([0.0, 1e-9, -1e-9, 1e-4, 0.37, 0.5, -0.5, 2.37,
                   math.nan, math.inf])
    L = 1.0
    for share in PITCHFORK_SHARES:
        a = share * abs(profile.f_prime_at_zero)
        with np.errstate(invalid="ignore"):
            rows, roots, curv = exact_solver._stationary_points(
                profile, xs, a, L)
        assert np.all(np.isfinite(xs[rows]))
        for i, x in enumerate(xs[:-2]):
            got = roots[rows == i]
            want = _dense_brentq_roots(profile, x, a, L)
            assert len(got) == len(want), (share, x, got, want)
            assert np.all(np.diff(got) > 0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, \
                (share, x)
        assert np.allclose(curv, profile.f_prime(roots) + a, rtol=0.0,
                           atol=1e-12)


# coefficients c_n of f(y) = -sum c_n sin(2 pi n y) for the sine and
# two_term fixtures
SERIES = {"sine": [2.0 * math.pi], "two_term": [1.0, 0.1]}


@pytest.mark.parametrize("which", ["sine", "two_term"])
@pytest.mark.parametrize("share", [1 - 1e-12, 1 - 1e-15])
def test_scan_keeps_both_minima_just_below_the_pitchfork(which, share,
                                                          request):
    """Closer to a = |f'(0)| than the dense reference resolves, row 0 still
    has its maximum at 0 and a minimum on each side: the turning points
    of G about 0, where f'' is near 0, are bisected before Newton polishes
    them.  The minima, about sqrt(6 (1 - share) |f'(0)| / f'''(0)) from 0,
    match mpmath.findroot at 30 digits on f written with the profile's
    float constants.  One rounding of g = f(y) + a y, about eps a |y|,
    moves a root by eps |y| / (2 (1 - share)), since g' = f' + a is about
    2 (1 - share) |f'(0)| there; each minimum must lie within four times
    that (10 bisections of its cell left it 2e4 times that off at share
    1 - 1e-12)."""
    mp = pytest.importorskip("mpmath")
    profile = request.getfixturevalue(which)
    a = share * abs(profile.f_prime_at_zero)
    rows, roots, curv = exact_solver._stationary_points(
        profile, np.array([0.0]), a, 1.0)
    assert list(curv > 0) == [True, False, True], (roots, curv)
    assert roots[0] < roots[1] == 0.0 < roots[2]
    with mp.workdps(30):
        two_pi = mp.mpf(2.0 * math.pi)
        terms = [(mp.mpf(c), n * two_pi)
                 for n, c in enumerate(SERIES[which], start=1)]

        def g(y):
            return -sum(c * mp.sin(w * y) for c, w in terms) + mp.mpf(a) * y

        fp0 = -sum(c * w for c, w in terms)
        f3 = sum(c * w ** 3 for c, w in terms)
        ref = float(mp.findroot(g, mp.sqrt(-6 * (fp0 + a) / f3)))
    tol = 4.0 * np.finfo(float).eps * ref / (2.0 * (1.0 - share))
    assert abs(roots[2] - ref) <= tol, (roots, ref, tol)
    assert abs(roots[0] + ref) <= tol, (roots, ref, tol)


def test_scan_at_large_a_keeps_each_root_beside_its_row(sine):
    """At a = 1e8, G(y) = f(y) + a y rounds f away near x = +-1/2, so G
    can put a root in a cell on which g keeps one sign; that root is the
    cell end where |g| is smaller, not the far end bisection runs to.
    Each row's one root lies where a Newton step from x puts it."""
    x, a = exact_solver.grid(512), 1e8
    rows, roots, _ = exact_solver._stationary_points(
        sine, x, a, _scan_radius(sine, x, a, 5.0, 2))
    assert np.array_equal(rows, np.arange(len(x)))
    step = x - sine.f(x) / (sine.f_prime(x) + a)
    assert np.max(np.abs(roots - step)) <= 1e-15


def _counting(profile):
    """(profile, counter): the profile with f, f' and f'' wrapped to add
    the number of points they evaluate to counter[0]."""
    counted = [0]

    def counting(fn):
        def wrapped(y):
            counted[0] += np.size(y)
            return fn(y)
        return wrapped

    return profile._replace(
        f=counting(profile.f), f_prime=counting(profile.f_prime),
        f_double_prime=counting(profile.f_double_prime)), counted


def test_scan_work_has_no_rows_times_samples_term(sine):
    """One scan of 450 rows evaluates f, f' and f'' at no more than 24
    points per scan sample and per root: polishing costs a fixed number of
    evaluations per bracket, and no row is sampled on its own grid (which
    costs 103 per sample and root here)."""
    profile, counted = _counting(sine)
    x, a, k = np.linspace(-0.5, 0.5, 450), 25.0, 2560.0
    L = _scan_radius(sine, x, a, k, 2)
    _, roots, _ = exact_solver._stationary_points(profile, x, a, L)
    samples = (math.ceil((x.max() + L) * exact_solver.SCAN_DENSITY)
               - math.floor((x.min() - L) * exact_solver.SCAN_DENSITY) + 1)
    assert len(roots) >= len(x)
    assert counted[0] <= 24 * (samples + len(roots)), counted[0]


def _x_nodes(profile, a, k):
    """The x-rows of a first x-round: the Kronrod nodes of every panel of
    the harness's x-skeleton."""
    bps = harness._x_breakpoints(profile, a, k)
    lo, hi = bps[:-1], bps[1:]
    return (0.5 * (lo + hi)[:, None]
            + 0.5 * (hi - lo)[:, None] * quadrature.NODES).ravel()


def _mp_root_ulps(which, x, a, roots):
    """|root - r| in units of np.spacing(|r|) for each root, with r the
    mpmath.findroot zero of g(y) = f(y) + a (y - x) at 40 digits, on f
    written with the profile's float constants, started at the root."""
    import mpmath as mp

    out = []
    with mp.workdps(40):
        two_pi = mp.mpf(2.0 * math.pi)
        terms = [(mp.mpf(c), n * two_pi)
                 for n, c in enumerate(SERIES[which], start=1)]
        for xi, root in zip(x, roots):
            xm, am = mp.mpf(xi), mp.mpf(a)
            ref = mp.findroot(lambda y: am * (y - xm) - sum(
                c * mp.sin(w * y) for c, w in terms), mp.mpf(root))
            out.append(float(abs(mp.mpf(root) - ref))
                       / np.spacing(abs(float(ref))))
    return np.array(out)


@pytest.mark.parametrize("which", ["sine", "two_term"])
def test_scan_roots_within_16_ulps_of_mpmath(which, request):
    """Roots of the rows of a first x-round at k = 5 ... 2560 and 0.3, 1
    and 3 T*_pred, eight spread over each scan, lie within 16 ulps of
    mpmath's.  (Beside a turning point of G, where g' = f' + a is small,
    one rounding of g moves a root by more: the pitchfork tests bound
    those.)"""
    pytest.importorskip("mpmath")
    profile = request.getfixturevalue(which)
    for k in 5.0 * 2.0 ** np.arange(10):
        t_pred = asymptotics.predict(profile, k).T_star
        for share in (0.3, 1.0, 3.0):
            a = 1.0 / (2.0 * k * share * t_pred)
            x = _x_nodes(profile, a, k)
            rows, roots, _ = exact_solver._stationary_points(
                profile, x, a, _scan_radius(profile, x, a, k, 3))
            pick = np.linspace(0, len(roots) - 1, 8).astype(int)
            ulps = _mp_root_ulps(which, x[rows[pick]], a, roots[pick])
            assert ulps.max() <= 16.0, (k, share, ulps)


def test_scan_roots_from_the_bisection_fallback(sine, monkeypatch):
    """With SETTLE = -1 no Newton-polished bracket counts as settled, so
    every root comes from the bisection fallback; those roots also lie
    within 16 ulps of mpmath's, and of the Newton ones."""
    pytest.importorskip("mpmath")
    k = 160.0
    a = 1.0 / (2.0 * k * asymptotics.predict(sine, k).T_star)
    x = _x_nodes(sine, a, k)
    L = _scan_radius(sine, x, a, k, 3)
    rows, fast, _ = exact_solver._stationary_points(sine, x, a, L)
    bisected = []

    def counting(g, lo, hi, iters=52):
        bisected.append(np.size(lo))
        return rootfind.bisect(g, lo, hi, iters=iters)

    monkeypatch.setattr(exact_solver, "SETTLE", -1.0)
    monkeypatch.setattr(exact_solver, "bisect", counting)
    rows_b, roots, _ = exact_solver._stationary_points(sine, x, a, L)
    assert np.array_equal(rows_b, rows)
    assert sum(bisected) >= len(roots)
    assert np.all(np.abs(roots - fast) <= 16 * np.spacing(np.abs(roots)))
    pick = np.linspace(0, len(roots) - 1, 12).astype(int)
    assert _mp_root_ulps("sine", x[rows[pick]], a, roots[pick]).max() <= 16


def test_rows_whole_periods_apart_share_one_scan(sine):
    """f is 1-periodic, so row x + n has row x's roots shifted by n; a
    batch holding both costs at most twice the work of row x alone, not a
    scan across the n periods between them."""
    profile, counted = _counting(sine)
    a, L = 25.0, 0.5
    _, alone, _ = exact_solver._stationary_points(profile, np.array([0.1]),
                                                  a, L)
    work = counted[0]
    rows, roots, _ = exact_solver._stationary_points(
        profile, np.array([0.1, 1000.1]), a, L)
    assert counted[0] - work <= 2 * work
    assert np.array_equal(roots[rows == 0], alone)
    assert np.allclose(roots[rows == 1], alone + 1000.0, rtol=0.0,
                       atol=1e-12)


@pytest.mark.parametrize("t", [0.0, 1e-3])
@pytest.mark.parametrize("k", [math.nan, math.inf, -3.0, 0.0])
def test_snapshot_rejects_k_outside_zero_to_inf(sine, t, k):
    with pytest.raises(ValueError, match=f"k={k}"):
        exact_solver.snapshot(sine, t, k)


def test_panels_holding_finds_roots_the_gap_merge_dropped():
    """The gap merge compares each point with its sorted predecessor,
    kept or not, so a chain of close points can drop a stationary point
    more than gap from the kept panel end: here the minimum at 0.2 + 1.8
    gap.  `_panels_holding` marks each panel holding a root strictly
    inside, and no panel whose end is the root."""
    L, gap = 0.5, 2.0 ** -10
    coarse = np.linspace(-L, L, 5)
    ladder = np.array([-0.05, -0.01, 0.01, 0.05])
    x = np.array([0.0, 0.3])
    rows = np.array([0, 0, 0, 1, 1], dtype=np.intp)
    roots = np.array([0.2, 0.2 + 0.9 * gap, 0.2 + 1.8 * gap,
                      0.3 + 0.125,   # on row 1's coarse node
                      0.95])         # beyond row 1's window: clipped
    is_min = np.array([True, False, True, True, False])
    prow, lo, hi = _assert_same_skeleton(x, L, coarse, rows, roots, is_min,
                                         ladder, gap)
    kept = np.concatenate([lo, hi])
    assert np.min(np.abs(kept - roots[2])) > gap
    held = exact_solver._panels_holding(prow, lo, hi, rows, roots)
    want = (prow == 0) & (lo == 0.2)
    assert want.sum() == 1 and np.array_equal(held, want)
    assert not exact_solver._panels_holding(
        np.empty(0, np.intp), np.empty(0), np.empty(0), rows, roots).size


def test_panel_holding_a_dropped_minimum_is_kept(sine, monkeypatch):
    """With every skeleton point within 10 w of each minimum merged away,
    the panel holding the minimum has ends at least 16 w from it, where
    k (phi - m) >= 128: its end phases alone would prove it negligible.
    It is kept because it holds a stationary point, and the fields come
    out as without the merge."""
    x, a, k = np.array([-0.3, 0.05, 0.2, 0.4]), 10.0, 160.0
    want = exact_solver.eval_fields(sine, x, a, k)
    w = 1.0 / math.sqrt(k * (a + sine.f_prime_max) + 1.0)
    skeleton = exact_solver._panel_skeleton

    def merge_minima_away(x, L, coarse, rows, roots, is_min, ladder, gap):
        prow, lo, hi = skeleton(x, L, coarse, rows, roots, is_min, ladder,
                                gap)
        out = [], [], []
        for i in range(len(x)):
            pts = np.union1d(lo[prow == i], hi[prow == i])
            mins = roots[(rows == i) & is_min]
            far = np.abs(pts[:, None] - mins[None, :]).min(axis=1) >= 10 * w
            pts = pts[far]
            for part, v in zip(out, (np.full(len(pts) - 1, i), pts[:-1],
                                     pts[1:])):
                part.append(v)
        return tuple(np.concatenate(p) for p in out)

    monkeypatch.setattr(exact_solver, "_panel_skeleton", merge_minima_away)
    got = exact_solver.eval_fields(sine, x, a, k)
    for g, v in zip(got, want):
        assert np.allclose(g, v, rtol=1e-8, atol=1e-8 * np.max(np.abs(v)))


def _mp_moments(coeffs, x, a, k, m, pts):
    """(r, A): r_j = integral of (y - x)^j exp(-k(phi - m)) and A_j of its
    |.|, j = 0..3, by mpmath.quad at 30 digits on phi written from the
    series coefficients, over [pts[0], pts[-1]] split at every point."""
    import mpmath as mp

    with mp.workdps(30):
        terms = [(mp.mpf(c), 2 * n * mp.pi) for n, c in enumerate(coeffs, 1)]
        xm, am, km, mm = (mp.mpf(v) for v in (x, a, k, m))

        weights = {}    # the four moments' quads share their nodes

        def weight(y):
            if y not in weights:
                F = sum(c / wn * (mp.cos(wn * y) - 1) for c, wn in terms)
                weights[y] = mp.exp(-km * (F + am / 2 * (y - xm) ** 2 - mm))
            return weights[y]

        pts = [mp.mpf(p) for p in pts]
        r, A = [mp.mpf(0)] * 4, [mp.mpf(0)] * 4
        for lo, hi in zip(pts[:-1], pts[1:]):
            for j in range(4):
                v = mp.quad(lambda y: (y - xm) ** j * weight(y), [lo, hi])
                r[j] += v
                A[j] += abs(v)
        return np.array([float(v) for v in r]), np.array([float(v)
                                                           for v in A])


@pytest.mark.parametrize("which, k, xs", [
    ("sine", 2560.0, (0.0005, 0.01, 0.45, 0.5)),
    ("two_term", 160.0, (0.003, 0.4, 0.5))])
def test_moments_match_mpmath_on_the_lean_skeleton(which, k, xs, request):
    """r_0..r_3 from `_phase_moments` near T* against mpmath.quad at 30
    digits, split at x, at the stationary points of a dense brentq scan
    and 2 and 8 spike widths w either side of each: 1e-9 relative on r_0 and r_2, and 1e-9 of max(|r_j|, FLOOR_FRAC
    A_j), the floor the quadrature's tolerance uses, on r_1 and r_3.  At
    x = 1/2 the minimum sits at y = 1/2, where f' is largest: its
    curvature is C, the spike is the narrowest possible, and the ladder's
    first rung is 4 of its widths out."""
    pytest.importorskip("mpmath")
    profile = request.getfixturevalue(which)
    t = asymptotics.predict(profile, k).T_star
    a, x = 1.0 / (2.0 * k * t), np.array(xs)
    m, r = exact_solver._phase_moments(profile, x, a, k, n_moments=3)
    w = 1.0 / math.sqrt(k * (a + profile.f_prime_max))
    for i, xi in enumerate(x):
        # beyond W, k (phi - m) >= k (a/2 W^2 - (m - F_min)) = 80
        W = math.sqrt(2.0 * (80.0 / k + m[i] - profile.F_min) / a)
        pts = {xi - W, xi, xi + W}
        for s in _dense_brentq_roots(profile, xi, a, W, per_unit=2 ** 14):
            pts.update(s + d * w for d in (-8, -2, 0, 2, 8))
        ref, A = _mp_moments(SERIES[which], xi, a, k, m[i],
                             sorted(p for p in pts if abs(p - xi) <= W))
        for j in (0, 2):
            assert abs(r[i, j] / ref[j] - 1.0) <= 1e-9, (xi, j)
        for j in (1, 3):
            bar = max(abs(ref[j]), quadrature.FLOOR_FRAC * A[j])
            assert abs(r[i, j] - ref[j]) <= 1e-9 * bar, (xi, j)
