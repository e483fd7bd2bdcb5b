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
    res = quadrature.adaptive_batch(f, rows, np.zeros(6), np.ones(6), 6)
    expect = (((np.arange(6) + 1.0) ** 3) - np.arange(6) ** 3) / 3.0
    assert res.converged.all()
    assert np.allclose(res.value[:, 0], expect, rtol=1e-14)
    assert res.panels.shape == (6,)


def test_unconverged_flag_not_raise(monkeypatch):
    # integrable endpoint singularity, refinement capped: must report,
    # not die
    def f(rows, ys):
        return np.atleast_2d(np.abs(ys - 0.37) ** -0.5)

    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 2)
    res = quadrature.adaptive_batch(
        f, np.zeros(1, dtype=np.intp), [0.0], [1.0], 1, epsrel=1e-13)
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
    # an infinite value at any one of the 21 nodes makes value, error and
    # tolerance infinite together; the row must still read unconverged
    n_nodes = len(quadrature.NODES)
    for j in range(n_nodes):
        def f(rows, ys):
            v = np.ones_like(ys)
            v[:, j] = np.inf
            return v

        res = quadrature.adaptive_batch(f, np.zeros(1, dtype=np.intp),
                                        [0.0], [1.0], 1)
        assert not res.converged[0], j

        def fvec(ys):
            v = np.ones_like(ys)
            v[j::n_nodes] = np.inf      # node j of every panel
            return v

        with pytest.raises(quadrature.QuadratureError):
            quadrature.integral(fvec, 0.0, 1.0)


def test_panel_eval_matches_per_panel_reference():
    # K21, the K21 - G10 error and the |f| sum against separate per-panel
    # Kronrod and Gauss sums; the callback sees one row entry per panel
    rng = np.random.default_rng(5)
    n = 40
    lo = rng.uniform(-2.0, 2.0, n)
    hi = lo + rng.uniform(1e-3, 1.5, n)
    rows = rng.integers(0, 6, n).astype(np.intp)
    shift = rng.uniform(-3.0, 3.0, (4, 6))
    w_gauss = quadrature.W_GAUSS[1::2]      # the 10 Gauss nodes
    assert np.all(w_gauss > 0) and not quadrature.W_GAUSS[::2].any()

    def comps(ncomp, r, ys):
        return np.cos(3.0 * ys + shift[:ncomp, r, None]) * np.exp(ys)

    for ncomp in (1, 4):
        shapes = []

        def f(r, ys):
            shapes.append((r.shape, ys.shape))
            out = comps(ncomp, r, ys)
            return out[0] if ncomp == 1 else out

        kron, err, absv = quadrature._panel_eval(f, rows, lo, hi)
        assert shapes == [((n,), (n, 21))]
        assert kron.shape == err.shape == absv.shape == (n, ncomp)
        for p in range(n):
            half = 0.5 * (hi[p] - lo[p])
            ys = 0.5 * (lo[p] + hi[p]) + half * quadrature.NODES
            fv = comps(ncomp, np.array([rows[p]]), ys[None, :])[:, 0, :]
            ref_k = half * np.sum(fv * quadrature.W_KRONROD, axis=1)
            ref_g = half * np.sum(fv[:, 1::2] * w_gauss, axis=1)
            ref_abs = half * np.sum(np.abs(fv) * quadrature.W_KRONROD,
                                    axis=1)
            bar = 1e-14 * ref_abs
            assert np.all(np.abs(kron[p] - ref_k) <= bar)
            assert np.all(np.abs(err[p] - np.abs(ref_k - ref_g)) <= bar)
            assert np.all(np.abs(absv[p] - ref_abs) <= bar)


def test_rule_exactness():
    # QUADPACK's dqk21 pair: the 21-point Kronrod rule is exact to degree
    # 31, its embedded 10-point Gauss rule to degree 19 and not 20, and the
    # Gauss half is numpy's 10-point Gauss-Legendre rule
    x = quadrature.NODES
    assert len(x) == 21 and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])

    def moment(w, d):
        return np.sum(w * x ** d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0)

    for d in range(32):
        assert abs(moment(quadrature.W_KRONROD, d)) <= 1e-15, d
    for d in range(20):
        assert abs(moment(quadrature.W_GAUSS, d)) <= 1e-15, d
    assert abs(moment(quadrature.W_GAUSS, 20)) > 1e-6
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.allclose(x[1::2], gx, rtol=0, atol=2e-16)
    assert np.allclose(quadrature.W_GAUSS[1::2], gw, rtol=0, atol=2e-16)
    assert not quadrature.W_GAUSS[::2].any()
    assert np.array_equal(quadrature.W_ERROR,
                          quadrature.W_KRONROD - quadrature.W_GAUSS)


def _retotal_reference(f, rows, lo, hi, n_rows, epsrel):
    """`adaptive_batch` re-totalling every panel of the batch each round,
    converged rows' panels included, and counting them all against
    MAX_PANELS; also returns the round in which each row first
    converged (-1 for never)."""
    keep = hi > lo
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    val, err, absv = quadrature._panel_eval(f, rows, lo, hi)
    first = np.full(n_rows, -1)
    for rnd in range(quadrature.MAX_ROUNDS + 1):
        tot, toterr, totabs, npan, tol, conv = quadrature._row_totals(
            rows, val, err, absv, n_rows, epsrel)
        first[(first < 0) & conv] = rnd
        if (conv.all() or len(rows) > quadrature.MAX_PANELS
                or rnd == quadrature.MAX_ROUNDS):
            break
        share = tol / np.maximum(npan, 1)[:, None]
        splittable = (hi - lo) > np.abs(lo) * 4e-16 + 1e-300
        split = (~conv[rows]) & (err > share[rows]).any(axis=1) & splittable
        if not split.any():
            break
        l, h = lo[split], hi[split]
        m = 0.5 * (l + h)
        nrows = np.concatenate([rows[split], rows[split]])
        nlo, nhi = np.concatenate([l, m]), np.concatenate([m, h])
        nval, nerr, nabs = quadrature._panel_eval(f, nrows, nlo, nhi)
        keep = ~split
        rows = np.concatenate([rows[keep], nrows])
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        absv = np.concatenate([absv[keep], nabs])
    return quadrature.BatchQuadResult(tot, toterr, totabs, conv, npan), first


@pytest.mark.parametrize("max_panels", [None, 40])
def test_frozen_rows_match_a_retotal_of_every_panel(max_panels,
                                                    monkeypatch):
    # rows of spikes of falling width converge in rounds 0 to 7; the last
    # row has only a zero-width panel.  Freezing converged rows gives
    # bit for bit what re-totalling the whole batch gives, and with a
    # low MAX_PANELS the frozen rows' panels still count towards it
    if max_panels is not None:
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    width = np.array([1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.2, 0.05])

    def f(rows, ys):
        d = (ys - 0.3) / width[rows][:, None]
        w = np.exp(-d * d)
        return np.stack([w, d * w, np.cos(7.0 * ys) * w])

    n = len(width) + 1
    rows = np.repeat(np.arange(n), 2)
    lo, hi = np.tile([0.0, 0.5], n), np.tile([0.5, 1.0], n)
    lo[-2:] = hi[-2:] = 0.7
    ref, first = _retotal_reference(f, rows, lo, hi, n, 1e-10)
    got = quadrature.adaptive_batch(f, rows, lo, hi, n_rows=n,
                                    epsrel=1e-10)
    if max_panels is None:
        assert {1, 2, 3} <= set(first) and ref.converged.all()
    else:
        assert not ref.converged.all() and (first > 0).any()
    for name in ("value", "error", "abs_value", "converged", "panels"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
