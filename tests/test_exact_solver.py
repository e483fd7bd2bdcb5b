"""Heat-kernel integral evaluation: closed forms, symmetry, dual routes."""

import math

import numpy as np
import pytest

from enstrophy_lab import asymptotics, exact_solver, profiles, quadrature
from enstrophy_lab.quadrature import QuadratureError


def _flat_profile():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return profiles.make_custom_profile(
        f=zero, f_prime=zero, f_double_prime=zero, F=zero, validate=False,
        label="flat")


def _log_I(profile, x, a, k):
    """log I_{x,a}(k) = log r0 - k*m from the scaled zeroth moment."""
    m, r = exact_solver._phase_moments(profile, np.array([float(x)]), a, k,
                                       exact_solver.DEFAULT_CONFIG,
                                       n_moments=0)
    return math.log(r[0, 0]) - k * m[0]


def _u(profile, x, a, k):
    return float(exact_solver.eval_fields(profile, [x], a, k)[0][0])


def _ux(profile, x, a, k):
    return float(exact_solver.eval_fields(profile, [x], a, k)[1][0])


def _scan_radius(profile, x, a, k, n_moments):
    """The stationary-scan radius `_phase_moments` uses for the batch x."""
    return float(exact_solver._window_halfwidth(
        profile, a, k, exact_solver.DEFAULT_CONFIG, n_moments,
        np.max(profile.F(x) - profile.F_min)))


def _row_halfwidths(profile, x, a, k, n_moments):
    """(m, r, L): each row's phase minimum, scaled moments and y-window
    half-width."""
    cfg = exact_solver.DEFAULT_CONFIG
    m, r = exact_solver._phase_moments(profile, x, a, k, cfg,
                                       n_moments=n_moments)
    return m, r, exact_solver._window_halfwidth(profile, a, k, cfg,
                                                n_moments, m - profile.F_min)


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
    assert snap.a == math.inf
    assert np.array_equal(snap.u_values, 7.0 * sine.f(snap.x_grid))


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
        exact_solver.SolverConfig(quad_tolerance=1e-3)
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


def test_pitchfork_row_whose_minima_the_scan_misses(sine):
    # just below a = |f'(0)| the two minima at x = 0 sit within one scan
    # cell of the maximum between them; the row still evaluates, and u_x(0)
    # moves by O(1e-6) relatively across the pitchfork
    apf = abs(sine.f_prime_at_zero)
    a = apf * (1 - 1e-6)
    R = _scan_radius(sine, np.array([0.0]), a, 5.0, 2)
    _, _, curv = exact_solver._stationary_points(sine, np.array([0.0]), a, R)
    assert not np.any(curv > 0)
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
    the row tolerance the quadrature works to, quad_tolerance *
    max(|r_j|, FLOOR_FRAC * integral of |.|), measured with
    scipy.integrate.quad on [L_i, 3 L_i] on both sides."""
    from scipy.integrate import quad

    profile, a = _window_case(which, k, t, request)
    cfg = exact_solver.DEFAULT_CONFIG
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
            row_tol = cfg.quad_tolerance * max(
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
    pad = float(exact_solver._window_halfwidth(
        profile, a, k, exact_solver.DEFAULT_CONFIG, 3, 0.0))
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
