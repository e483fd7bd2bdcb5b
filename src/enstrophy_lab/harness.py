"""Measurement harness: locate the enstrophy maximum, sweep k, fit scalings.

E(t), K(t), R(t) at large k cannot be read off a fixed grid (the u_x spike
at the shock has width ~ 1/(k a (s_plus - s_minus))), so the circle
integrals are themselves adaptive quadratures in x, with the exact-solver
batch evaluator as the integrand and panels nested geometrically toward
x = 0, by the ratio X_NEST_RATIO from one ratio step outside the narrowest
possible spike width out to 1/2.  Every x-round is one `eval_fields`
batch, so the ratio is chosen for the nest to pass its first convergence
check: one E(t) is then one batch (the threshold table is in
`_x_breakpoints`).  Oddness of u halves every integral to [0, 1/2].

T* is the zero of R = dE/dt (computed from the u_xx moment) where R turns
from + to -: the search opens at the Laplace prediction T*_pred, sizes its
first step from rho = R t / E = d ln E / d ln t there (about -c ln(t/T*)
near the maximum, so a step of |rho| / C in ln t with C below every c
steps past T*), steps on by GROW until R changes sign, and polishes the
root by safeguarded Hermite steps (`rootfind.hermite`), which fit R, its
antiderivative E and E's antiderivative -K/2 together (dK/dt = -2E
exactly: u(0) = u(1/2) = 0 and the integral of u^2 u_x vanishes), so K,
which every evaluation computes anyway, gives each interval between two
evaluations a third exact condition; every (t, K, E, R) it evaluates is
kept on the result.  The k-sweep fits log-log scaling exponents of T*,
E_max and K_drop against the initial enstrophy E0.

The sweep's searches run in worker processes, because each is Python
driving numpy on small arrays and threads would take turns on the GIL.
ENSTROPHY_LAB_THREADS counts the workers (by default the CPUs this process
may run on, at most one per k).  The caller is worker 0; on Linux the
others are forked children that pickle their results back through pipes,
merged in k order, so the output does not depend on the worker count.
Elsewhere every search runs in the caller: Windows has no fork, and fork
is unsafe on macOS.  From Python 3.12, os.fork warns (DeprecationWarning)
whenever the process has another thread, and importing numpy starts one
(OpenBLAS's); the warning is not silenced.  A tracer in the caller sees
only worker 0's searches.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from . import asymptotics, diagnostics, exact_solver, quadrature, rootfind

# The T* search steps t from T*_pred by this ratio until R changes sign.
GROW = 1.25
# Lower bound on the curvature c of ln E against ln t at the maximum, where
# rho = R t / E = d ln E / d ln t is about -c ln(t / T*).  Measured c: 2.3
# (sine, k = 5) rising to 7.4 (sine, k = 2560), and about 6.9 for the
# two-term profile [1, 0.1] at k = 153.  A first step of |rho| / C in ln t
# therefore overshoots T* and brackets it.
C = 2.0
# Width of the final R bracket, relative to T*_pred.
T_REL_TOL = 1e-9
# Relative tolerance of the x-integrals of K, E and R.
X_REL_TOL = 1e-8
# Ratio of the geometric x-nest toward the shock (see _x_breakpoints).
X_NEST_RATIO = 2.4


@dataclass(frozen=True)
class MaxSearchResult:
    """Measured enstrophy maximum for one k."""
    k: float
    T_star_measured: float
    E_max_measured: float
    K_at_max: float
    K_drop_measured: float
    n_evaluations: int
    E0: float
    K0: float
    R_at_max: float
    # (t, K, E, R) of every evaluation of the T* search, in order.
    search_trace: tuple = ()


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(quantity) against log(E0)."""
    exponent: float
    log_prefactor: float
    r_squared: float
    k_list: tuple
    excluded: tuple


@dataclass(frozen=True)
class SweepResult:
    results: tuple
    fits: dict


@dataclass(frozen=True)
class ComparisonReport:
    """Per-k measured/predicted ratios plus Richardson extrapolation of the
    ratios to k = infinity from the two largest k."""
    rows: tuple
    extrapolated: dict


def _x_breakpoints(profile, a, k):
    """Panel skeleton on [0, 1/2]: {0, 1/2} and the geometric nest w r^j
    < 1/2, j >= 1, against the shock at 0, with w = 1/(k (a + f'_max) + 1)
    and r = X_NEST_RATIO.

    w is the width of the narrowest possible spike, but the u_x spike at 0
    is wider: u there is about -k a s_plus tanh(k a s_plus x), with s_plus
    the phase's positive minimum at x = 0, and its width 1/(k a s_plus) is
    9.0 to 12.4 times w for the sine at k = 5, 80 and 2560 and [1, 0.1] at
    k = 20 and 160, at 0.8, 1, 1.2 and 2 T*_pred.  [0, w] lies inside the
    shock's flat core, so the nest starts at w r and [0, w r] is its first
    panel.

    The ratio is chosen so that the first x-round already converges: each
    round of `quadrature.adaptive_quad` is a whole `eval_fields` call, with
    its own stationary-point scan, skeleton and y-rounds, so a nest that
    fails its first check pays for a second batch however few x-panels it
    adds.  Worst first-round err/tol over 51 evaluations (sine at k = 5 ...
    2560 doubling, [1, 0.1] at k = 20, 80, 320, heat-smoothed triangle
    waves with a_1 = 2 pi and sigma = 0.08 and 0.02 at k = 20 and 160,
    each at 0.8, 1 and 1.2 T*_pred), with the 10-21 Gauss-Kronrod rule of
    `quadrature`, y-panels evaluated against r = 1.6:

        r      worst err/tol   evaluations over 1   y-panels
        1.6    0.011           0 of 51              0
        2.0    2.04            1 of 51              -30%
        2.2    12.2            1 of 51              -39%
        2.4    21.9            1 of 51              -45%
        2.6    104             15 of 51             -42%
        2.8    164             21 of 51             -43%

    The one evaluation over 1 up to r = 2.4 is sigma = 0.02 at k = 160
    and 0.8 T*_pred; past r = 2.4 the second rounds come back and cost
    more than the coarser nest saves.  Over 96 evaluations (sine up to
    k = 5000, [1, 0.1] up to 640, sigma = 0.04 added, the triangles up to
    k = 320) r = 2.4 took 98 x-rounds, two more than one per evaluation
    (sigma = 0.02, 0.8 T*_pred, k = 160 and 320), and 45% fewer y-panels
    than r = 1.6; r = 2.6 took 124.  Starting the nest at w instead gives
    the same err/tol and x-rounds to three digits, with 13% more y-panels
    at r = 2.4 on both sets.
    """
    w = 1.0 / (k * (a + max(profile.f_prime_max, 0.0)) + 1.0)
    pts = [0.0, 0.5]
    s = w * X_NEST_RATIO
    while 0.0 < s < 0.5:        # s = 0 when a overflows to inf
        pts.append(s)
        s *= X_NEST_RATIO
    return np.unique(pts)


def state_functionals(profile, k, t, with_rate=False):
    """K, E (and R when with_rate) at time t by adaptive x-integration.

    A k outside (0, inf) or a t outside [0, inf) raises ValueError naming
    it, before any integral.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"need finite k > 0, got k={k}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"need finite t >= 0, got t={t}")
    if t == 0:
        K0 = diagnostics.initial_energy(profile, k)
        E0 = diagnostics.initial_enstrophy(profile, k)
        if not with_rate:
            return K0, E0
        v = quadrature.integral(
            lambda ys: np.stack([
                profile.f_double_prime(ys) ** 2 * k * k,
                profile.f_prime(ys) ** 3 * k ** 3]),
            0.0, 0.5, epsrel=1e-10)
        return K0, E0, -2.0 * float(v.sum())
    a = 1.0 / (2.0 * k * t)
    bps = _x_breakpoints(profile, a, k)

    def comps(xs):
        if with_rate:
            u, ux, uxx = exact_solver.eval_fields(profile, xs, a, k,
                                                  want_uxx=True)
            return np.stack([u * u, ux * ux, uxx * uxx + ux ** 3])
        u, ux = exact_solver.eval_fields(profile, xs, a, k)
        return np.stack([u * u, ux * ux])

    v, _, ok = quadrature.adaptive_quad(comps, bps, epsrel=X_REL_TOL)
    if not ok:
        raise quadrature.QuadratureError(
            f"x-integration of the state functionals failed at t={t}, k={k}")
    K, E = float(v[0]), float(v[1])
    if with_rate:
        return K, E, -2.0 * float(v[2])
    return K, E


def _enstrophy_of_t(profile, k):
    """The T* search's evaluator and its record: (RE_of, trace), where
    RE_of(t) appends (t, K, E, R) to trace and returns (R, E, -K/2), each
    the antiderivative in t of the one before it (dK/dt = -2E)."""
    trace = []

    def RE_of(t):
        K, E, R = state_functionals(profile, k, t, with_rate=True)
        trace.append((t, K, E, R))
        return R, E, -0.5 * K

    return RE_of, trace


def find_enstrophy_max(profile, k):
    """T* as the zero of R = dE/dt where R turns from + to -, for one k.

    The search opens with one evaluation at T*_pred, the Laplace prediction,
    which is O(1/k) accurate.  If R(T*_pred) > 0 it steps t up until R < 0,
    otherwise down until R > 0, inside [t0/4, 8 T*_pred]: the first step
    is |ln(t1 / T*_pred)| = min(ln GROW, max(|rho| / C, 100 T_REL_TOL))
    with rho = R t / E at T*_pred, which overshoots T* when the curvature
    of ln E against ln t exceeds C, and every later step is GROW.
    `rootfind.hermite` then polishes the root between the last two points
    on (R, E, -K/2): each step goes to the root of one polynomial that
    matches R at the bracket's ends and the point before the last, the rise
    of E over each interval between them and, where it carries signal, the
    rise of -K/2 (degree 3 from the bracket ends, up to 6 after).  A
    search takes 3-5 evaluations for the sine at k = 5...10240 and for
    [1, 0.1] at k = 23...2560, and 7 for [1, 0.1] at k = 20, whose
    bracket takes four.
    K, E and R are those of the final iterate, `search_trace` holds every
    (t, K, E, R) in evaluation order and `n_evaluations` is its length.
    No sign change in that range raises with the (t, R) table, and a k
    outside (0, inf) raises ValueError.
    """
    if not 0.0 < k < np.inf:
        raise ValueError(f"k must be positive and finite; got k={k}")
    bd = asymptotics.bifurcation_data(profile, k)   # validates a* < |f'(0)|
    t_pred = asymptotics.predict(profile, k).T_star
    t_min, t_max = bd.t0 / 4.0, 8.0 * t_pred
    RE_of, trace = _enstrophy_of_t(profile, k)
    t, y = t_pred, RE_of(t_pred)
    R, E, _ = y
    up = R > 0                  # the maximum lies above t
    rho = R * t / E
    grow = min(GROW, math.exp(max(abs(rho) / C, 100.0 * T_REL_TOL)))
    while True:
        t_next = min(t * grow, t_max) if up else max(t / grow, t_min)
        if t_next == t:
            table = "\n".join(f"  t={s:.6e}  R={r:.6e}"
                              for s, _, _, r in sorted(trace))
            raise RuntimeError(
                f"R = dE/dt has no sign change from + to - in "
                f"[{t_min:.6e}, {t_max:.6e}] for k={k}; (t, R) table:\n"
                f"{table}")
        y_next = RE_of(t_next)
        if (y_next[0] < 0) if up else (y_next[0] > 0):
            break
        t, y, grow = t_next, y_next, GROW

    # hermite returns the last point it evaluated, so its (K, E, R) are
    # the last ones traced
    t_star = rootfind.hermite(RE_of, t, t_next, y, y_next,
                              T_REL_TOL * t_pred)
    _, K_at, E_at, R_at = trace[-1]
    K0 = diagnostics.initial_energy(profile, k)
    E0 = diagnostics.initial_enstrophy(profile, k)
    return MaxSearchResult(
        k=float(k), T_star_measured=float(t_star), E_max_measured=E_at,
        K_at_max=K_at, K_drop_measured=K0 - K_at,
        n_evaluations=len(trace),
        E0=E0, K0=K0, R_at_max=R_at, search_trace=tuple(trace))


def _loglog_fit(x, y):
    lx, ly = np.log(np.asarray(x)), np.log(np.asarray(y))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2)) + 1e-300
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


def _worker_count(n_tasks):
    """Worker processes for a sweep of n_tasks k values: ENSTROPHY_LAB_THREADS
    if set, else the CPUs this process may run on (its affinity mask can be
    smaller than os.cpu_count()), at most n_tasks either way.  A value that
    is not a positive integer raises ValueError."""
    env = os.environ.get("ENSTROPHY_LAB_THREADS", "")
    if env.strip():
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError("ENSTROPHY_LAB_THREADS must be a positive "
                             f"integer, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    return max(1, min(n_tasks, n))


def _outcome(fn, k):
    """fn(k), or the exception it raised."""
    try:
        return fn(k)
    except Exception as err:
        return err


def _forked_worker(fn, ks, fd):
    """Body of a forked child: pickle the list of fn's outcomes at ks into
    the pipe fd, then leave by os._exit, so nothing of the parent's
    (finally clauses, atexit handlers, buffered output) runs twice."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as out:
            pickle.dump([_outcome(fn, k) for k in ks], out)
        code = 0
    finally:
        os._exit(code)


def _map_in_workers(fn, ks, n):
    """[fn(k) for k in ks] on n workers, worker w running ks[w::n].

    Worker 0 is this process; workers 1..n-1 are forked children, each
    sending the pickled list of its outcomes (per k its result, or the
    exception it raised) through its own pipe.  A child whose list cannot
    be read reports a RuntimeError naming its k values at each of them.
    Every child is reaped before this returns or raises, and killed first
    if this process fails.  The first failing k's exception is raised, in
    k order.
    """
    outcomes = [None] * len(ks)
    readers, pids = [], []
    finished = False
    try:
        for w in range(1, n):
            r, fd = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _forked_worker(fn, ks[w::n], fd)    # does not return
            finally:
                os.close(fd)
            pids.append(pid)
        outcomes[0::n] = [_outcome(fn, k) for k in ks[0::n]]
        for w, reader in enumerate(readers, 1):
            try:
                outcomes[w::n] = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                died = RuntimeError(
                    f"sweep worker {w} exited without reporting its "
                    f"searches at k = {ks[w::n]}")
                outcomes[w::n] = [died] * len(ks[w::n])
        finished = True
    finally:
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _check_k_list(k_list):
    """sweep's k_list as floats; a list sweep does not accept raises
    ValueError.  The CLI calls this too, so --k-list fails at parse time."""
    ks = [float(k) for k in k_list]
    if len(ks) < 4:
        raise ValueError("sweep needs at least 4 values of k")
    if not all(0.0 < k < np.inf for k in ks):
        raise ValueError(f"k must be positive and finite; got k_list={ks}")
    if any(lo >= hi for lo, hi in zip(ks, ks[1:])):
        raise ValueError(f"k_list must be strictly increasing; got "
                         f"k_list={ks}")
    ratios = np.diff(np.log(ks))
    if np.max(np.abs(ratios - ratios[0])) > 1e-6:
        raise ValueError("k_list must be geometric")
    return ks


def sweep(profile, k_list):
    """Run find_enstrophy_max over a geometric k_list and fit the scalings.

    Requires >= 4 finite k > 0, strictly increasing and in (approximately)
    geometric progression; any other k_list raises ValueError before a
    search starts.
    The smallest k is excluded from the fits when its T* or K_drop
    measured/predicted ratio is off by more than 30% (finite-k shift), and
    the exclusion is recorded on the fit objects.  The E_max ratio is left
    out of that rule: `asymptotics.predict` keeps the stated (1/2)
    prefactor while the measured maximum tends to (2/3)|f(x*)|^3 k^3, so
    that ratio tends to 4/3 and would drop the smallest k of every sweep
    that starts at large k.
    """
    ks = _check_k_list(k_list)
    n = _worker_count(len(ks)) if sys.platform.startswith("linux") else 1
    results = tuple(_map_in_workers(
        lambda k: find_enstrophy_max(profile, k), ks, n))

    excluded = ()
    r0 = results[0]
    pred0 = asymptotics.predict(profile, r0.k)
    checks = (r0.T_star_measured / pred0.T_star,
              r0.K_drop_measured / pred0.K_drop_leading)
    if any(abs(c - 1.0) > 0.3 for c in checks):
        excluded = (r0.k,)

    fitted = [r for r in results if r.k not in excluded]
    e0s = [r.E0 for r in fitted]
    fits = {}
    for name, vals in (
            ("T_star", [r.T_star_measured for r in fitted]),
            ("E_max", [r.E_max_measured for r in fitted]),
            ("K_drop", [r.K_drop_measured for r in fitted])):
        slope, intercept, r2 = _loglog_fit(e0s, vals)
        fits[name] = ScalingFit(exponent=slope, log_prefactor=intercept,
                                r_squared=r2,
                                k_list=tuple(r.k for r in fitted),
                                excluded=excluded)
    return SweepResult(results=results, fits=fits)


def compare_predictions(results, profile):
    """Measured/predicted ratios per k, plus Richardson extrapolation of
    each ratio from the two largest k (ratio -> 1 like 1/k, so the
    extrapolant is 2 r(2k) - r(k))."""
    rows = []
    for r in sorted(results, key=lambda r: r.k):
        pred = asymptotics.predict(profile, r.k)
        rows.append({
            "k": r.k,
            "ratio_T_star": r.T_star_measured / pred.T_star,
            "ratio_E_max": r.E_max_measured / pred.E_max_leading,
            "ratio_K_drop": r.K_drop_measured / pred.K_drop_leading,
        })
    extrap = {}
    if len(rows) >= 2:
        lo, hi = rows[-2], rows[-1]
        if abs(hi["k"] / lo["k"] - 2.0) < 1e-9:
            for key in ("ratio_T_star", "ratio_E_max", "ratio_K_drop"):
                extrap[key] = 2.0 * hi[key] - lo[key]
    return ComparisonReport(rows=tuple(rows), extrapolated=extrap)
