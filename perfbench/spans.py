"""Span recording for the traced benchmark run, from outside the package.

The package has no tracing of its own, so the traced run rebinds module
attributes of `enstrophy_lab` to wrappers that record one span per call
(name, start, end, parent span, thread, op id, thread CPU seconds and a few
counts taken from the call's arguments or result).  Every call site in the
package looks these names up at call time (module attribute or module
global), so the wrappers see every call.  `Tracer.installed()` restores
every rebound attribute on exit, even when the run raises.

Layers and the end-to-end figure each should move (see `layer_metrics`):

  harness          search_s, E_evals, tstar_resid: run_s on sweep-cli and
                   tstar-single, nothing on solve-oracle.  pool_*: run_s on
                   sweep-cli only (the only workload with a thread pool).
  quadrature       x-level batches are the ones called through
                   `adaptive_quad`, y-level ones through `_phase_moments`.
                   Moves run_s on all three workloads, most on tstar-single
                   at k = 2560; peak_rss_mb shows batching that grows arrays.
  exact_solver     run_s everywhere; stationary_s matters most at k = 5.
  rootfind         bisection/Newton via exact_solver and asymptotics.
  asymptotics, diagnostics
  spectral_oracle  run_s on solve-oracle only.
  cli              artifact formatting and writing: run_s on solve-oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: int
    cpu: float
    info: Optional[dict]

    @property
    def dur(self):
        return self.end - self.start

    def row(self):
        return [self.id, self.name, self.start, self.end, self.parent,
                self.thread, self.op, self.cpu, self.info]


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "op",
               "cpu", "info")


class Tracer:
    """In-memory span store with one span stack per thread.

    A span opened on a thread whose stack is empty (a pool worker) takes
    the innermost open span of the main thread as its parent, which is the
    call that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def traced(self, fn, name, info=None):
        """Wrap fn so each call records a span; info(args, kwargs, result)
        returns the counts to keep with it (called only on success)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            extra = None
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                tracer.spans.append(Span(sid, name, t0, t1, parent,
                                         threading.get_ident(), tracer.op,
                                         cpu1 - cpu0, extra))

        return wrapper

    def rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name, info=None):
        self.rebind(owner, attr,
                    self.traced(getattr(owner, attr), name, info))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        """Rebind the package's layer entry points for the duration."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    @contextmanager
    def op_span(self, op_id, name="bench.op"):
        """Root span of one benchmark operation."""
        self.op = op_id
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, None,
                                   threading.get_ident(), op_id,
                                   time.thread_time() - cpu0, None))

    def event(self, name):
        """Zero-length span marking something that happened."""
        t = time.perf_counter()
        self.spans.append(Span(next(self._ids), name, t, t, None,
                               threading.get_ident(), self.op, 0.0, None))


# ----------------------------------------------------------------------
# what to wrap

def _batch_info(args, kwargs, result):
    return {"rows": int(len(result.panels)),
            "panels": int(np.sum(result.panels)),
            "unconverged": int(np.sum(~result.converged))}


def _panel_info(args, kwargs, result):
    # _panel_eval(f, rows, lo, hi) -> (k15, err, absv), each (npanels, ncomp)
    return {"panels": int(len(args[2])), "ncomp": int(result[0].shape[1])}


def _bisect_info(args, kwargs, result):
    return {"brackets": int(np.size(args[1]))}


def _one_bracket(args, kwargs, result):
    return {"brackets": 1}


def _search_info(args, kwargs, result):
    return {"k": result.k, "n_evaluations": result.n_evaluations,
            "T_star": result.T_star_measured, "E_max": result.E_max_measured,
            "R": result.R_at_max}


def _advance_info(args, kwargs, result):
    # _advance(sp, v, t_span, h_target, cfg, coeff_cache): uniform substeps
    t_span, h_target = args[2], args[3]
    steps = max(1, int(math.ceil(t_span / h_target - 1e-12))) \
        if t_span > 0 else 0
    return {"steps": steps}


def _single_run_info(args, kwargs, result):
    return {"n_modes": int(args[4])}


def _emit_info(args, kwargs, result):
    # _emit(out_dir, name, text, written)
    return {"bytes": len(args[2].encode())}


ASYMPTOTICS_API = ("find_roots", "fold_location", "matching_point",
                   "bifurcation_data", "laplace_interior", "laplace_endpoint",
                   "asymptotic_u", "asymptotic_ux", "leading_enstrophy",
                   "leading_energy", "predict", "check_required_bound")
DIAGNOSTICS_API = ("compute", "from_functionals", "integral_bound_rhs",
                   "initial_energy", "initial_enstrophy")


def install(tr):
    from enstrophy_lab import (asymptotics, cli, diagnostics, exact_solver,
                               harness, quadrature, spectral_oracle)

    tr.wrap(harness, "sweep", "harness.sweep")
    tr.wrap(harness, "find_enstrophy_max", "harness.find_enstrophy_max",
            _search_info)
    tr.wrap(harness, "state_functionals", "harness.state_functionals")
    e_of_factory = harness._enstrophy_of_t

    def enstrophy_of_t(*args, **kwargs):
        E_of, counter = e_of_factory(*args, **kwargs)
        return tr.traced(E_of, "harness.E_of"), counter

    tr.rebind(harness, "_enstrophy_of_t", enstrophy_of_t)

    tr.wrap(quadrature, "adaptive_quad", "quadrature.adaptive_quad")
    tr.wrap(quadrature, "adaptive_batch", "quadrature.adaptive_batch",
            _batch_info)
    tr.wrap(quadrature, "_panel_eval", "quadrature._panel_eval", _panel_info)

    tr.wrap(exact_solver, "eval_fields", "exact_solver.eval_fields")
    tr.wrap(exact_solver, "_phase_moments", "exact_solver._phase_moments")
    tr.wrap(exact_solver, "_stationary_points",
            "exact_solver._stationary_points")
    tr.wrap(exact_solver, "snapshot", "exact_solver.snapshot")
    for owner in (exact_solver, asymptotics):
        tr.wrap(owner, "bisect", "rootfind.bisect", _bisect_info)
        tr.wrap(owner, "newton_polish", "rootfind.newton_polish")
    tr.wrap(asymptotics, "bracketed_root", "rootfind.bracketed_root",
            _one_bracket)

    for name in ASYMPTOTICS_API:
        tr.wrap(asymptotics, name, "asymptotics." + name)
    for name in DIAGNOSTICS_API:
        tr.wrap(diagnostics, name, "diagnostics." + name)

    tr.wrap(spectral_oracle, "integrate", "spectral_oracle.integrate")
    tr.wrap(spectral_oracle, "_single_run", "spectral_oracle._single_run",
            _single_run_info)
    tr.wrap(spectral_oracle, "_advance", "spectral_oracle._advance",
            _advance_info)
    _wrap_cfl_warning(tr, spectral_oracle)

    tr.wrap(cli, "csv_text", "cli.csv_text")
    tr.wrap(cli, "json_text", "cli.json_text")
    tr.wrap(cli, "_emit", "cli._emit", _emit_info)


def _wrap_cfl_warning(tr, spectral_oracle):
    """Count the oracle's CFL clamps by watching its `warnings.warn` calls.

    The oracle module's `warnings` global is swapped for a proxy that
    forwards everything to the real module, so behaviour is unchanged.
    """
    real = spectral_oracle.warnings

    class WarningsProxy:
        def __getattr__(self, attr):
            return getattr(real, attr)

        @staticmethod
        def warn(message, *args, **kwargs):
            if str(message).startswith("dt clamped"):
                tr.event("spectral_oracle.cfl_clamp")
            # one level up, so the warning still points at the oracle
            kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
            return real.warn(message, *args, **kwargs)

    tr.rebind(spectral_oracle, "warnings", WarningsProxy())


# ----------------------------------------------------------------------
# per-layer metrics of one traced operation list

def self_times(spans):
    """span id -> duration minus the time its same-thread children cover."""
    self_t = {s.id: s.dur for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            self_t[p.id] -= s.dur
    return self_t


PER_LAYER = (
    ("harness.search_s", "s"), ("harness.E_evals", "count"),
    ("harness.tstar_resid", "ratio"), ("harness.pool_efficiency", "ratio"),
    ("harness.pool_critical_s", "s"), ("harness.pool_wait_frac", "ratio"),
    ("quadrature.x_panels", "count"), ("quadrature.y_calls", "count"),
    ("quadrature.y_rows", "count"), ("quadrature.y_rounds", "count"),
    ("quadrature.y_panels", "count"), ("quadrature.y_points", "count"),
    ("quadrature.y_kept_frac", "ratio"),
    ("quadrature.y_unconverged_rows", "count"),
    ("quadrature.y_self_s", "s"), ("quadrature.kernel_s", "s"),
    ("quadrature.kernel_ns_per_point", "ns"),
    ("quadrature.kernel_bytes_computed", "bytes"),
    ("exact_solver.eval_fields_calls", "count"),
    ("exact_solver.panel_build_s", "s"), ("exact_solver.stationary_s", "s"),
    ("exact_solver.snapshot_s", "s"),
    ("rootfind.calls", "count"), ("rootfind.brackets", "count"),
    ("rootfind.s", "s"),
    ("asymptotics.s", "s"), ("diagnostics.s", "s"),
    ("spectral_oracle.s", "s"), ("spectral_oracle.steps", "count"),
    ("spectral_oracle.us_per_step", "us"),
    ("spectral_oracle.n_modes", "count"), ("spectral_oracle.reruns", "count"),
    ("spectral_oracle.cfl_clamps", "count"),
    ("cli.write_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("trace.layer_coverage", "ratio"), ("trace.overhead_frac", "ratio"),
)


def layer_metrics(spans, threads):
    """Per-layer figures of the spans of one operation list.

    Times are seconds summed over the list and over threads; `*_s` of a
    layer is its self time, except search_s, snapshot_s and
    spectral_oracle.s, which include their callees.  kernel_bytes_computed counts, from array shapes,
    the float64 arrays `_panel_eval` materialises per panel (nodes, row
    index, integrand values and the four weighted/abs temporaries of each
    component): 8 * 15 * (2 + 5 * ncomp) bytes.  layer_coverage is the
    share of busy thread time that falls in the self time of some layer
    span; the main thread's wait on the sweep pool (self time of
    harness.sweep) is left out of both sides.
    """
    st = self_times(spans)
    by_id = {s.id: s for s in spans}
    names = {}
    for s in spans:
        names.setdefault(s.name, []).append(s)

    def group(name):
        return names.get(name, [])

    def self_sum(prefix):
        return sum(st[s.id] for s in spans if s.name.startswith(prefix))

    out = {}
    searches = group("harness.find_enstrophy_max")
    done = [s for s in searches if s.info]
    out["harness.search_s"] = sum(s.dur for s in searches)
    out["harness.E_evals"] = sum(s.info["n_evaluations"] for s in done)
    out["harness.tstar_resid"] = max(
        (abs(s.info["R"]) * s.info["T_star"] / s.info["E_max"]
         for s in done), default=0.0)
    sweeps = group("harness.sweep")
    pooled = [s for s in searches
              if by_id.get(s.parent) is not None
              and by_id[s.parent].name == "harness.sweep"]
    if sweeps and pooled:
        wall = sum(s.dur for s in sweeps)
        out["harness.pool_efficiency"] = (sum(s.dur for s in pooled)
                                          / (threads * wall))
        out["harness.pool_critical_s"] = max(s.dur for s in pooled)
    else:
        out["harness.pool_efficiency"] = 0.0
        out["harness.pool_critical_s"] = 0.0
    span_wall = sum(s.dur for s in searches)
    out["harness.pool_wait_frac"] = (
        1.0 - sum(s.cpu for s in searches) / span_wall if span_wall else 0.0)

    x_panels = y_calls = y_rows = y_rounds = y_panels = 0
    y_eval_panels = y_unconv = 0
    y_self = 0.0
    kernels_by_parent = {}
    for s in group("quadrature._panel_eval"):
        kernels_by_parent.setdefault(s.parent, []).append(s)
    for b in group("quadrature.adaptive_batch"):
        parent = by_id.get(b.parent)
        level = parent.name if parent is not None else ""
        if b.info is None:
            continue
        if level == "quadrature.adaptive_quad":
            x_panels += b.info["panels"]
        elif level == "exact_solver._phase_moments":
            kids = kernels_by_parent.get(b.id, [])
            y_calls += 1
            y_rows += b.info["rows"]
            y_rounds += max(len(kids) - 1, 0)
            y_panels += b.info["panels"]
            y_eval_panels += sum(k.info["panels"] for k in kids if k.info)
            y_unconv += b.info["unconverged"]
            y_self += st[b.id]
    out["quadrature.x_panels"] = x_panels
    out["quadrature.y_calls"] = y_calls
    out["quadrature.y_rows"] = y_rows
    out["quadrature.y_rounds"] = y_rounds
    out["quadrature.y_panels"] = y_panels
    out["quadrature.y_points"] = 15 * y_eval_panels
    out["quadrature.y_kept_frac"] = (y_panels / y_eval_panels
                                     if y_eval_panels else 0.0)
    out["quadrature.y_unconverged_rows"] = y_unconv
    out["quadrature.y_self_s"] = y_self
    kernels = group("quadrature._panel_eval")
    kernel_s = sum(st[s.id] for s in kernels)
    points = 15 * sum(s.info["panels"] for s in kernels if s.info)
    out["quadrature.kernel_s"] = kernel_s
    out["quadrature.kernel_ns_per_point"] = (kernel_s / points * 1e9
                                             if points else 0.0)
    out["quadrature.kernel_bytes_computed"] = sum(
        8 * 15 * s.info["panels"] * (2 + 5 * s.info["ncomp"])
        for s in kernels if s.info)

    out["exact_solver.eval_fields_calls"] = len(
        group("exact_solver.eval_fields"))
    out["exact_solver.panel_build_s"] = sum(
        st[s.id] for s in group("exact_solver._phase_moments"))
    out["exact_solver.stationary_s"] = sum(
        st[s.id] for s in group("exact_solver._stationary_points"))
    out["exact_solver.snapshot_s"] = sum(
        s.dur for s in group("exact_solver.snapshot"))

    roots = [s for s in spans if s.name.startswith("rootfind.")]
    out["rootfind.calls"] = len(roots)
    out["rootfind.brackets"] = sum(s.info["brackets"] for s in roots
                                   if s.info and "brackets" in s.info)
    out["rootfind.s"] = sum(st[s.id] for s in roots)
    out["asymptotics.s"] = self_sum("asymptotics.")
    out["diagnostics.s"] = self_sum("diagnostics.")

    advances = group("spectral_oracle._advance")
    runs = group("spectral_oracle._single_run")
    steps = sum(s.info["steps"] for s in advances if s.info)
    out["spectral_oracle.s"] = sum(s.dur for s in
                                   group("spectral_oracle.integrate"))
    out["spectral_oracle.steps"] = steps
    out["spectral_oracle.us_per_step"] = (
        sum(s.dur for s in advances) / steps * 1e6 if steps else 0.0)
    out["spectral_oracle.n_modes"] = max(
        (s.info["n_modes"] for s in runs if s.info), default=0)
    out["spectral_oracle.reruns"] = max(
        len(runs) - len(group("spectral_oracle.integrate")), 0)
    out["spectral_oracle.cfl_clamps"] = len(
        group("spectral_oracle.cfl_clamp"))

    out["cli.write_s"] = self_sum("cli.")
    out["cli.artifact_bytes"] = sum(s.info["bytes"] for s in
                                    group("cli._emit") if s.info)

    roots_self = sum(st[s.id] for s in spans if s.name == "bench.op")
    attributed = sum(st[s.id] for s in spans
                     if s.name not in ("bench.op", "harness.sweep"))
    busy = attributed + roots_self
    out["trace.layer_coverage"] = attributed / busy if busy else 0.0
    return out
