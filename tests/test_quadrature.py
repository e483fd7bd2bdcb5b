"""Batched Gauss-Kronrod engine against scipy.integrate.quad and closed
forms."""

import numpy as np
import pytest

from enstrophy_lab import quadrature

# frozen oracle values from scipy.integrate.quad (epsabs=epsrel=1e-14)
GAUSS_BUMP = 0.32034613934901607    # int_0^1 exp(-30 (y - 0.3)^2) dy
SIN3_EXP = 0.29634605026546512      # int_0^4 sin(3y) exp(-y) dy


def test_gauss_bump_matches_scipy_oracle():
    val, err, ok = quadrature.adaptive_quad(
        lambda ys: np.atleast_2d(np.exp(-30.0 * (ys - 0.3) ** 2)),
        np.linspace(0.0, 1.0, 5), epsrel=1e-12)
    assert ok
    assert abs(val[0] - GAUSS_BUMP) < 1e-12
    assert err[0] < 1e-10


def test_oscillatory_decay_matches_scipy_oracle():
    val, _, ok = quadrature.adaptive_quad(
        lambda ys: np.atleast_2d(np.sin(3.0 * ys) * np.exp(-ys)),
        np.array([0.0, 1.0, 2.0, 4.0]), epsrel=1e-12)
    assert ok
    assert abs(val[0] - SIN3_EXP) < 1e-12


def test_runtime_scipy_cross_check():
    # same integrand, scipy evaluated here rather than frozen
    scipy_integrate = pytest.importorskip("scipy.integrate")
    g = lambda y: np.cos(5.0 * y) / (1.0 + y * y)
    ref, _ = scipy_integrate.quad(g, -2.0, 3.0, epsabs=1e-13, epsrel=1e-13)
    val, _, ok = quadrature.adaptive_quad(
        lambda ys: np.atleast_2d(g(ys)), np.linspace(-2.0, 3.0, 6),
        epsrel=1e-12)
    assert ok and abs(val[0] - ref) < 1e-11


def test_vector_components_share_panels():
    # component j is y^j on [0, 1]; exact values 1/(j+1)
    def fvec(ys):
        return np.vstack([ys ** j for j in range(4)])

    val, _, ok = quadrature.adaptive_quad(fvec, [0.0, 0.5, 1.0])
    assert ok
    assert np.allclose(val, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-13)


def test_adaptive_batch_rows_are_independent():
    # row r integrates (y + r)^2 on [0, 1]: ((1+r)^3 - r^3) / 3
    def f(rows, ys):
        return np.atleast_2d((ys + rows[:, None]) ** 2)

    rows = np.arange(6, dtype=np.intp)
    res = quadrature.adaptive_batch(f, rows, np.zeros(6), np.ones(6))
    expect = (((np.arange(6) + 1.0) ** 3) - np.arange(6) ** 3) / 3.0
    assert res.converged.all()
    assert np.allclose(res.value[:, 0], expect, rtol=1e-14)
    assert res.panels.shape == (6,)


def test_fixed_gk_exponential():
    val = quadrature.fixed_gk(lambda ys: np.atleast_2d(np.exp(ys)),
                              0.0, 1.0, n_panels=8)
    assert abs(val[0] - (np.e - 1.0)) < 1e-14


def test_unconverged_flag_not_raise(monkeypatch):
    # integrable endpoint singularity, refinement capped: must report,
    # not die
    def f(rows, ys):
        return np.atleast_2d(np.abs(ys - 0.37) ** -0.5)

    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 2)
    res = quadrature.adaptive_batch(
        f, np.zeros(1, dtype=np.intp), [0.0], [1.0], epsrel=1e-13)
    assert not res.converged[0]


def test_error_type_is_runtime_error():
    assert issubclass(quadrature.QuadratureError, RuntimeError)


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        quadrature.adaptive_quad(lambda ys: np.atleast_2d(ys), [0.0])


def test_zero_width_interval_integrates_to_zero():
    # every panel is dropped; the component count still comes from f
    def fvec(ys):
        return np.vstack([np.ones_like(ys), ys, ys * ys])

    assert np.array_equal(quadrature.integral(fvec, 0.3, 0.3), np.zeros(3))
    val, err, ok = quadrature.adaptive_quad(fvec, [0.2, 0.2])
    assert ok
    assert val.shape == err.shape == (3,)
    assert not val.any() and not err.any()


def test_row_totals_match_add_at_bit_for_bit():
    rng = np.random.default_rng(11)
    n_rows, n_panels = 40, 3000
    rows = rng.permutation(np.repeat(np.arange(n_rows - 3), 100)[:n_panels])
    val = rng.standard_normal((n_panels, 3)) * 10.0 ** rng.integers(
        -12, 4, (n_panels, 1))
    err = np.abs(rng.standard_normal((n_panels, 3))) * 1e-9
    absv = np.abs(val) + err
    got = quadrature._row_totals(rows, val, err, absv, n_rows, 1e-10)
    for out, comp in zip(got[:3], (val, err, absv)):
        ref = np.zeros((n_rows, 3))
        np.add.at(ref, rows, comp)
        assert np.array_equal(out, ref)
    assert np.array_equal(got[3], np.bincount(rows, minlength=n_rows))
    assert got[5][-3:].all()            # rows without panels read converged


def test_infinite_node_value_reads_unconverged():
    # an infinite value at any one of the 15 nodes makes value, error and
    # tolerance infinite together; the row must still read unconverged
    for j in range(15):
        def f(rows, ys):
            v = np.ones_like(ys)
            v[:, j] = np.inf
            return v

        res = quadrature.adaptive_batch(f, np.zeros(1, dtype=np.intp),
                                        [0.0], [1.0])
        assert not res.converged[0], j

        def fvec(ys):
            v = np.ones_like(ys)
            v[j::15] = np.inf           # node j of every panel
            return v

        with pytest.raises(quadrature.QuadratureError):
            quadrature.integral(fvec, 0.0, 1.0)


def test_panel_eval_matches_per_panel_reference():
    # K15, the K15 - G7 error and the |f| sum against separate per-panel
    # Kronrod and Gauss sums; the callback sees one row entry per panel
    rng = np.random.default_rng(5)
    n = 40
    lo = rng.uniform(-2.0, 2.0, n)
    hi = lo + rng.uniform(1e-3, 1.5, n)
    rows = rng.integers(0, 6, n).astype(np.intp)
    shift = rng.uniform(-3.0, 3.0, (4, 6))
    w_gauss = quadrature.W_GAUSS[1::2]      # the 7 Gauss nodes
    assert np.all(w_gauss > 0) and not quadrature.W_GAUSS[::2].any()

    def comps(ncomp, r, ys):
        return np.cos(3.0 * ys + shift[:ncomp, r, None]) * np.exp(ys)

    for ncomp in (1, 4):
        shapes = []

        def f(r, ys):
            shapes.append((r.shape, ys.shape))
            out = comps(ncomp, r, ys)
            return out[0] if ncomp == 1 else out

        k15, err, absv = quadrature._panel_eval(f, rows, lo, hi)
        assert shapes == [((n,), (n, 15))]
        assert k15.shape == err.shape == absv.shape == (n, ncomp)
        for p in range(n):
            half = 0.5 * (hi[p] - lo[p])
            ys = 0.5 * (lo[p] + hi[p]) + half * quadrature.NODES
            fv = comps(ncomp, np.array([rows[p]]), ys[None, :])[:, 0, :]
            ref_k = half * np.sum(fv * quadrature.W_KRONROD, axis=1)
            ref_g = half * np.sum(fv[:, 1::2] * w_gauss, axis=1)
            ref_abs = half * np.sum(np.abs(fv) * quadrature.W_KRONROD,
                                    axis=1)
            bar = 1e-14 * ref_abs
            assert np.all(np.abs(k15[p] - ref_k) <= bar)
            assert np.all(np.abs(err[p] - np.abs(ref_k - ref_g)) <= bar)
            assert np.all(np.abs(absv[p] - ref_abs) <= bar)
