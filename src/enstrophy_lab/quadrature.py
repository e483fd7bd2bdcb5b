"""Adaptive Gauss-Kronrod quadrature, batched over many independent integrals.

The integrands in this package are smooth except for sharp near-Gaussian
spikes whose locations are known in advance (minima of the phase function),
so panels are seeded from caller-supplied breakpoints and then refined by
comparing the 21-point Kronrod value against the embedded 10-point Gauss
value on each panel: QUADPACK's dqk21 pair, the package's one rule.  The
error estimate is the Gauss rule's error, and that rule is exact to degree
19, so on the smooth panels of a skeleton the estimate is already small
where a 7-point Gauss rule (degree 13) would still ask for a split.  The
batch interface carries many integrals at once (one per grid point) with a
shared vector of integrand components, which is what keeps the harness
sweep fast: one callback evaluates every pending panel of every pending
integral in a single numpy call.

The batch callback works per panel: it gets the panels' rows, shape
(npanels,), and their nodes ys, shape (npanels, 21), and returns
(ncomp, npanels, 21), or (npanels, 21) for one component, so a row's
parameters are gathered once per panel and broadcast over its 21 nodes.
The Kronrod value, the Kronrod-minus-Gauss error and the integral of |f|
are then three weighted sums over the node axis, taken with np.einsum in
numpy's own single-threaded loop, whose CPU time equals its wall time.  A
BLAS product (@, np.dot) gives the same sums but runs a large batch on
BLAS's own threads, which would compete with the sweep's worker processes
for the same cores.

`adaptive_quad` and `integral` take a plain fvec(ys) of a 1-d array and
adapt it with `_per_panel`; `integral` is the one checked routine for a
plain integral over a fixed interval.  The per-panel kernel `_panel_eval`
and its layout are private to this module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Gauss-Kronrod 10-21 nodes and weights (QUADPACK dqk21 constants): the
# 21-point Kronrod rule integrates polynomials exactly to degree 31, the
# embedded 10-point Gauss rule to degree 19.
_XGK_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK_HALF = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980138580,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
])
_WGK_CENTER = 0.149445554002916905664936468389821
_WG_HALF = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# ascending nodes: the negated half, the centre, the mirrored half
NODES = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
W_KRONROD = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
# the embedded 10-point Gauss rule lives on the odd-indexed Kronrod nodes
W_GAUSS = np.zeros(len(NODES))
W_GAUSS[1::2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])
# K21 - G10 on each node: nonzero everywhere, so the error sum sees every
# node
W_ERROR = W_KRONROD - W_GAUSS

# Share of the integral of |f| that bounds each row's tolerance from below.
FLOOR_FRAC = 1e-3
# A batch stops refining once it holds more panels than this.
MAX_PANELS = 200_000
# Cap on the adaptive refinement rounds of one batch.
MAX_ROUNDS = 64


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge (or misbehaved) somewhere."""


class BatchQuadResult(NamedTuple):
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
    the nodes ys of shape (npanels, 21); it returns (ncomp, npanels, 21),
    or (npanels, 21) for one component, in an array it does not keep: the
    kernel takes |f| in place once the Kronrod and error sums are formed.
    The error is |sum (w_K - w_G) f|, the Kronrod-minus-Gauss difference in
    one sum.  The three sums are einsum contractions, not BLAS products (@,
    np.dot): BLAS starts its own threads, which would compete with the
    sweep's worker processes for the same cores.  Returns (kron, err,
    absv), each of shape (npanels, ncomp).
    """
    half = 0.5 * (hi - lo)
    ys = (0.5 * (lo + hi))[:, None] + half[:, None] * NODES
    fv = f(rows, ys)
    if fv.ndim == 2:
        fv = fv[None]
    kron = np.einsum("cpj,j->cp", fv, W_KRONROD) * half
    err = np.abs(np.einsum("cpj,j->cp", fv, W_ERROR)) * half
    absv = np.einsum("cpj,j->cp", np.abs(fv, out=fv), W_KRONROD) * half
    return kron.T, err.T, absv.T


def _per_panel(fvec):
    """Per-panel callback of a 1-d fvec(ys) -> (ncomp, len(ys)) or
    (len(ys),): it ravels the nodes, calls fvec and reshapes."""
    def f(rows, ys):
        fv = np.asarray(fvec(ys.ravel()))
        return fv.reshape(fv.shape[:-1] + ys.shape)
    return f


def _row_totals(rows, val, err, absv, n_rows, epsrel):
    """Per-row value, error, |f| integral, panel count, tolerance, flag.

    The sums are (npanels, ncomp) arrays; each component is totalled by
    one np.bincount, which adds a row's panels one at a time in index
    order (over a contiguous column when the array is the transpose of a
    component-major one, as `adaptive_batch` passes).  A row converges
    only when its totals are finite: an infinite integrand value makes
    the error and the tolerance infinite together.
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


def adaptive_batch(f, rows, lo, hi, n_rows, epsrel=1e-10):
    """Adaptively integrate many rows at once.

    rows/lo/hi describe the initial panels: panel i spans [lo[i], hi[i]] and
    belongs to integral rows[i], one of 0..n_rows-1.  The callback
    f(rows, ys) is called per panel, as `_panel_eval` describes: rows has
    shape (npanels,), ys shape (npanels, 21), and it returns
    (ncomp, npanels, 21) or, for one component, (npanels, 21).  Every row
    shares the component layout but may use its rows entry to select its
    own parameters (e.g. its own x), once per panel.  The node sums are einsum contractions in numpy's own
    single-threaded loop, not BLAS products, whose threads would compete
    with the sweep's worker processes for the same cores.

    A row converges when its totals are finite and, for every component,
    the summed panel error is below epsrel * max(|integral|, FLOOR_FRAC *
    integral of |f|).  The floor keeps components whose exact value is ~0
    by cancellation (odd moments at symmetric points) from demanding
    impossible relative accuracy.
    Refinement stops after MAX_ROUNDS rounds or once the batch holds more
    than MAX_PANELS panels, frozen rows' panels included; rows still over
    tolerance then read unconverged.  Zero-width panels are dropped, so a
    row with none integrates to zero.

    The panel sums are held component-major, (ncomp, npanels): the
    transposes of `_panel_eval`'s results, which are views of its
    contiguous sums.  Once a row converges its totals, tolerance, flag and
    panel count are frozen and its panels leave the batch, so each round
    totals and concatenates only the panels of rows still refining.  A
    converged row's panels are never split, and np.bincount adds a row's
    panels in index order, which dropping other rows' panels keeps: the
    frozen totals are those a re-total of every panel would give.
    """
    rows = np.asarray(rows, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    keep = hi > lo
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    val, err, absv = (s.T for s in _panel_eval(f, rows, lo, hi))
    live = np.ones(n_rows, dtype=bool)      # rows whose panels are carried
    frozen_panels = 0

    for rnd in range(MAX_ROUNDS + 1):
        totals = _row_totals(rows, val.T, err.T, absv.T, n_rows, epsrel)
        if rnd == 0:
            tot, toterr, totabs, npan, tol, conv = totals
        else:
            for out, new in zip((tot, toterr, totabs, npan, tol, conv),
                                totals):
                out[live] = new[live]
        if (conv.all() or frozen_panels + len(rows) > MAX_PANELS
                or rnd == MAX_ROUNDS):
            break
        share = (tol / np.maximum(npan, 1)[:, None]).T
        carry = ~conv[rows]
        splittable = (hi - lo) > np.abs(lo) * 4e-16 + 1e-300
        split = carry & (err > share[:, rows]).any(axis=0) & splittable
        if not split.any():
            break
        live &= ~conv
        frozen_panels += len(rows) - np.count_nonzero(carry)
        l, h = lo[split], hi[split]
        m = 0.5 * (l + h)
        nrows = np.concatenate([rows[split], rows[split]])
        nlo = np.concatenate([l, m])
        nhi = np.concatenate([m, h])
        nval, nerr, nabs = (s.T for s in _panel_eval(f, nrows, nlo, nhi))
        keep = carry & ~split
        rows = np.concatenate([rows[keep], nrows])
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        val = np.concatenate([val[:, keep], nval], axis=1)
        err = np.concatenate([err[:, keep], nerr], axis=1)
        absv = np.concatenate([absv[:, keep], nabs], axis=1)
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
