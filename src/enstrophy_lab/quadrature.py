"""Adaptive Gauss-Kronrod quadrature, batched over many independent integrals.

The integrands in this package are smooth except for sharp near-Gaussian
spikes whose locations are known in advance (minima of the phase function),
so panels are seeded from caller-supplied breakpoints and then refined by
comparing the 15-point Kronrod value against the embedded 7-point Gauss
value on each panel.  The batch interface carries many integrals at once
(one per grid point) with a shared vector of integrand components, which is
what keeps the harness sweep fast: one callback evaluates every pending
panel of every pending integral in a single numpy call.

The batch callback works per panel: it gets the panels' rows, shape
(npanels,), and their nodes ys, shape (npanels, 15), and returns
(ncomp, npanels, 15), or (npanels, 15) for one component, so a row's
parameters are gathered once per panel and broadcast over its 15 nodes.
The Kronrod value, the Kronrod-minus-Gauss error and the integral of |f|
are then three weighted sums over the node axis, taken with np.einsum in
numpy's own single-threaded loop, whose CPU time equals its wall time.  A
BLAS product (@, np.dot) gives the same sums but runs a large batch on
BLAS's own threads, which compete with the harness's thread pool.

`adaptive_quad`, `integral` and `fixed_gk` take a plain fvec(ys) of a 1-d
array and adapt it with `_per_panel`.  `integral` is the one checked
routine for a plain integral over a fixed interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gauss-Kronrod 7-15 nodes and weights (QUADPACK dqk15 constants).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
ORDER = np.argsort(NODES)
NODES = NODES[ORDER]
W_KRONROD = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])[ORDER]
# the embedded 7-point Gauss rule lives on the odd-indexed Kronrod nodes
_wg_full = np.zeros(15)
_wg_full[1::2] = np.concatenate([_WG[:3], [_WG[3]], _WG[:3][::-1]])
W_GAUSS = _wg_full
# K15 - G7 on each node: nonzero everywhere, so the error sum sees every node
W_ERROR = W_KRONROD - W_GAUSS

# Share of the integral of |f| that bounds each row's tolerance from below.
FLOOR_FRAC = 1e-3
# A batch stops refining once it holds more panels than this.
MAX_PANELS = 200_000
# Cap on the adaptive refinement rounds of one batch.
MAX_ROUNDS = 64


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge (or misbehaved) somewhere."""


@dataclass
class BatchQuadResult:
    """Aggregated result of a batch of adaptive quadratures.

    value/error/abs_value have shape (n_rows, n_components); converged is a
    per-row flag, panels the per-row panel count at exit.
    """
    value: np.ndarray
    error: np.ndarray
    abs_value: np.ndarray
    converged: np.ndarray
    panels: np.ndarray


def _panel_eval(f, rows, lo, hi):
    """Kronrod value, error and |f| integral of each panel.

    The per-panel callback f(rows, ys) gets rows of shape (npanels,) and
    the nodes ys of shape (npanels, 15); it returns (ncomp, npanels, 15),
    or (npanels, 15) for one component.  The error is |sum (w_K - w_G) f|,
    the Kronrod-minus-Gauss difference in one sum.  The three sums are
    einsum contractions, not BLAS products (@, np.dot): BLAS starts its own
    threads, which compete with the harness's thread pool.  Returns (k15,
    err, absv), each of shape (npanels, ncomp).
    """
    half = 0.5 * (hi - lo)
    ys = (0.5 * (lo + hi))[:, None] + half[:, None] * NODES
    fv = f(rows, ys)
    if fv.ndim == 2:
        fv = fv[None]
    k15 = np.einsum("cpj,j->cp", fv, W_KRONROD) * half
    err = np.abs(np.einsum("cpj,j->cp", fv, W_ERROR)) * half
    absv = np.einsum("cpj,j->cp", np.abs(fv), W_KRONROD) * half
    return k15.T, err.T, absv.T


def _per_panel(fvec):
    """Per-panel callback of a 1-d fvec(ys) -> (ncomp, len(ys)) or
    (len(ys),): it ravels the nodes, calls fvec and reshapes."""
    def f(rows, ys):
        fv = np.asarray(fvec(ys.ravel()))
        return fv.reshape(fv.shape[:-1] + ys.shape)
    return f


def _row_totals(rows, val, err, absv, n_rows, epsrel):
    """Per-row value, error, |f| integral, panel count, tolerance, flag.

    Each component is totalled by one np.bincount, which adds a row's
    panels one at a time in index order.  A row converges only when its
    totals are finite: an infinite integrand value makes the error and
    the tolerance infinite together.
    """
    def total(a):
        return np.stack([np.bincount(rows, weights=c, minlength=n_rows)
                         for c in a.T], axis=1)

    tot, toterr, totabs = total(val), total(err), total(absv)
    npan = np.bincount(rows, minlength=n_rows)
    tol = epsrel * np.maximum(np.abs(tot), FLOOR_FRAC * totabs) + 1e-300
    conv = ((toterr <= tol) & np.isfinite(tot)
            & np.isfinite(totabs)).all(axis=1)
    return tot, toterr, totabs, npan, tol, conv


def adaptive_batch(f, rows, lo, hi, n_rows=None, epsrel=1e-10):
    """Adaptively integrate many rows at once.

    rows/lo/hi describe the initial panels: panel i spans [lo[i], hi[i]] and
    belongs to integral rows[i].  The callback f(rows, ys) is called per
    panel, as `_panel_eval` describes: rows has shape (npanels,), ys shape
    (npanels, 15), and it returns (ncomp, npanels, 15) or, for one
    component, (npanels, 15).  Every row shares the component layout but
    may use its rows entry to select its own parameters (e.g. its own x),
    once per panel.  The node sums are einsum contractions in numpy's own
    single-threaded loop, not BLAS products, whose threads would compete
    with the harness's thread pool.

    A row converges when its totals are finite and, for every component,
    the summed panel error is below epsrel * max(|integral|, FLOOR_FRAC *
    integral of |f|).  The floor keeps components whose exact value is ~0
    by cancellation (odd moments at symmetric points) from demanding
    impossible relative accuracy.
    Refinement stops after MAX_ROUNDS rounds or once the batch holds more
    than MAX_PANELS panels; rows still over tolerance then read unconverged.
    Zero-width panels are dropped, so a row with none integrates to zero.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if n_rows is None:
        n_rows = int(rows.max()) + 1 if rows.size else 0
    keep = hi > lo
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    val, err, absv = _panel_eval(f, rows, lo, hi)

    for rnd in range(MAX_ROUNDS + 1):
        tot, toterr, totabs, npan, tol, conv = _row_totals(
            rows, val, err, absv, n_rows, epsrel)
        if conv.all() or len(rows) > MAX_PANELS or rnd == MAX_ROUNDS:
            break
        share = tol / np.maximum(npan, 1)[:, None]
        splittable = (hi - lo) > np.abs(lo) * 4e-16 + 1e-300
        split = (~conv[rows]) & (err > share[rows]).any(axis=1) & splittable
        if not split.any():
            break
        l, h = lo[split], hi[split]
        m = 0.5 * (l + h)
        nrows = np.concatenate([rows[split], rows[split]])
        nlo = np.concatenate([l, m])
        nhi = np.concatenate([m, h])
        nval, nerr, nabs = _panel_eval(f, nrows, nlo, nhi)
        keep = ~split
        rows = np.concatenate([rows[keep], nrows])
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        val = np.concatenate([val[keep], nval])
        err = np.concatenate([err[keep], nerr])
        absv = np.concatenate([absv[keep], nabs])
    return BatchQuadResult(tot, toterr, totabs, conv, npan)


def adaptive_quad(fvec, breakpoints, epsrel=1e-10):
    """Single adaptive integral of a vector integrand.

    fvec(ys) -> (ncomp, len(ys)); breakpoints is the ordered panel skeleton.
    Returns (value, error, converged) with value/error shaped (ncomp,).
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or len(bp) < 2:
        raise ValueError("need at least two breakpoints")
    res = adaptive_batch(_per_panel(fvec),
                         np.zeros(len(bp) - 1, dtype=np.intp),
                         bp[:-1], bp[1:], n_rows=1, epsrel=epsrel)
    return res.value[0], res.error[0], bool(res.converged[0])


def integral(fvec, lo, hi, epsrel=1e-12):
    """Adaptive integral over [lo, hi], seeded with eight equal panels.

    fvec(ys) -> (ncomp, len(ys)), or a 1-d array for one component.
    Returns the value shaped (ncomp,); raises QuadratureError naming the
    interval when it does not converge.
    """
    v, _, ok = adaptive_quad(lambda ys: np.atleast_2d(fvec(ys)),
                             np.linspace(lo, hi, 9), epsrel=epsrel)
    if not ok:
        raise QuadratureError(f"integral on [{lo}, {hi}] did not converge")
    return v


def fixed_gk(fvec, lo, hi, n_panels=16):
    """Non-adaptive composite Kronrod rule; deterministic and symmetric.

    Used where the integrand is an entire function on a short interval and a
    reproducible panel layout matters more than error control.
    """
    edges = np.linspace(lo, hi, n_panels + 1)
    v, _, _ = _panel_eval(_per_panel(fvec),
                          np.zeros(n_panels, dtype=np.intp),
                          edges[:-1], edges[1:])
    return v.sum(axis=0)
