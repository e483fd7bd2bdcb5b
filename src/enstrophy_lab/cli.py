"""Batch front end: one run config in, CSV/JSON artifacts out.

Modes:
  solve     exact snapshots + diagnostics at the requested times
  asym      leading-order predictions and an asymptotic-vs-exact error table
  sweep     enstrophy-maximum scaling sweep over a geometric k list
  validate  profile admissibility, bifurcation and sign-structure checks

All numbers are written with 17 significant digits and fixed ordering, so
identical configs produce byte-identical files.  Every CSV column and JSON
value is tagged in the JSON "provenance" block with the (module, operation)
pair that produced it.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import dataclasses
import itertools
import json
import operator
import os
import sys

import numpy as np

from . import diagnostics
from . import exact_solver
from . import profiles
from . import spectral_oracle
from .quadrature import QuadratureError

MODES = ("solve", "asym", "sweep", "validate")


class ConfigError(ValueError):
    """Bad flags or config file; maps to exit code 2."""


# ----------------------------------------------------------------------
# deterministic formatting

def fmt(v):
    """17-significant-digit text for a float, plain text for the rest."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v == 0.0:
            v = 0.0          # print negative zero as 0
        return format(v, ".17g")     # also "nan", "inf", "-inf"
    return str(v)


def _json_fragment(obj, indent, out):
    pad = "  " * indent
    if hasattr(obj, "_asdict"):     # a NamedTuple record is an object
        obj = obj._asdict()
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(key), ensure_ascii=False)
                       + ": ")
            _json_fragment(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _json_fragment(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, str):
        # quotes, backslashes and control characters escaped
        out.append(json.dumps(obj, ensure_ascii=False))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        text = fmt(obj)
        # keep the file valid JSON; readers get a string marker
        out.append('"' + text + '"' if text in ("nan", "inf", "-inf")
                   else text)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def json_text(obj):
    """Hand-rolled JSON writer: insertion-ordered keys, 17g floats.

    The stdlib encoder does not expose float formatting, and the output
    contract here is byte-level, so the few supported types are emitted
    directly.
    """
    out = []
    _json_fragment(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _row_format(types):
    """fmt's rules as one %-format for a row of values of these types, with
    the zeros to add to the values first: adding 0.0 turns -0.0 into 0.0
    and leaves every other float, nan and inf included, as it is.  Raises
    TypeError for a type that has no such format (a bool among them)."""
    codes, zeros = [], []
    for tp in types:
        if issubclass(tp, (float, np.floating)):
            codes.append("%.17g")
            zeros.append(0.0)
        elif issubclass(tp, (int, np.integer)) and not issubclass(tp, bool):
            codes.append("%d")
            zeros.append(0)
        elif issubclass(tp, str):
            codes.append("%s")
            zeros.append("")
        else:
            raise TypeError(f"no CSV format for a value of type "
                            f"{tp.__name__}")
    return ",".join(codes), tuple(zeros)


def csv_text(header, rows):
    """CSV text with fmt's rules: each run of rows whose values share a
    sequence of types is written by one %-format (built once per
    sequence).  rows is a list of tuples, or a 2-D numpy array, which is
    one such run: its dtype gives every column's format, and its zero is
    added in numpy."""
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        if len(rows):
            form, zeros = _row_format((rows.dtype.type,) * rows.shape[1])
            values = (rows + zeros[0]).ravel().tolist()
            lines.append("\n".join([form] * len(rows)) % tuple(values))
        return "\n".join(lines) + "\n"
    formats = {}
    for types, block in itertools.groupby(
            rows, key=lambda row: tuple(map(type, row))):
        if types not in formats:
            formats[types] = _row_format(types)
        form, zeros = formats[types]
        block = list(block)
        values = map(operator.add, itertools.chain.from_iterable(block),
                     itertools.cycle(zeros))
        lines.append("\n".join([form] * len(block)) % tuple(values))
    return "\n".join(lines) + "\n"


def _emit(out_dir, name, text, written):
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    written.append(name)
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# configuration

def parse_float_list(text):
    vals = tuple(float(p) for p in str(text).replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def make_profile(spec):
    spec = spec.strip()
    if spec == "sine":
        return profiles.make_sine_profile()
    try:
        return profiles.make_sine_series_profile(parse_float_list(spec))
    except ValueError as err:      # ProfileError is a ValueError
        raise ConfigError(f"profile {spec!r}: {err}") from None


def read_config_file(path):
    import configparser
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from None
    sections = parser.sections()
    if sections not in ([], ["run"]):
        bad = [s for s in sections if s != "run"]
        raise ConfigError(f"unknown config section(s): {', '.join(bad)}")
    out = {}
    if "run" in parser:
        for key, val in parser["run"].items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key}")
            out[key] = val
    return out


def _parse_bool(text):
    low = str(text).strip().lower()     # --oracle gives the bool True
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated settings for one run; run() consumes this.

    The fields, in echo order, are the run settings: each is a flag
    (underscores written as dashes) and a key of the [run] section of a
    config file.
    """
    mode: str
    profile: str = "sine"
    k: float | None = None
    k_list: tuple[float, ...] | None = None
    t: tuple[float, ...] | None = None
    out_dir: str = "enstrophy-out"
    grid_size: int | None = None
    oracle: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}; "
                              f"got {self.mode!r}")
        for key in ("k", "k_list", "t"):
            value = getattr(self, key)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(f"{key}: must be finite, got {value}")
        if self.mode in ("solve", "asym"):
            if self.k is None or not self.k > 0:
                raise ConfigError(f"mode {self.mode!r} needs --k > 0")
        if self.mode == "solve":
            if not self.t:
                raise ConfigError("mode 'solve' needs --t (comma-separated "
                                  "times >= 0)")
            if any(t < 0 for t in self.t):
                raise ConfigError("times must be >= 0")
        if self.mode == "sweep":
            if not self.k_list:
                raise ConfigError("mode 'sweep' needs --k-list")
            # surface bad numeric knobs at parse time (exit 2), not mid-run
            from . import harness
            try:
                harness._check_k_list(self.k_list)
                harness._worker_count(len(self.k_list))
            except ValueError as err:
                raise ConfigError(str(err)) from None
        self.solver_config()

    def solver_config(self):
        kw = {} if self.grid_size is None else {"grid_size": self.grid_size}
        try:
            return exact_solver.SolverConfig(**kw)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def echo(self):
        return dataclasses.asdict(self)


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
# text -> value, shared by flags and config-file keys; the rest stay text
_CONVERT = {"k": float, "k_list": parse_float_list, "t": parse_float_list,
            "grid_size": int, "oracle": _parse_bool}


def build_config(argv):
    ap = argparse.ArgumentParser(
        prog="enstrophy-lab",
        description="Exact Burgers dynamics, enstrophy-growth asymptotics "
                    "and scaling sweeps on the unit circle.")
    ap.add_argument("--config", help="INI file with a [run] section; "
                                     "flags override its values")
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("--profile",
                    help="'sine' or comma-separated coefficients a_n of "
                         "-sum a_n sin(2 pi n x)  (default sine)")
    ap.add_argument("--k", help="amplitude factor")
    ap.add_argument("--k-list", help="comma-separated k values (sweep)")
    ap.add_argument("--t", help="comma-separated times (solve)")
    ap.add_argument("--out-dir", help="artifact directory "
                                      "(default enstrophy-out)")
    ap.add_argument("--grid-size",
                    help="snapshot points per half period (power of two)")
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="cross-check solve output against the spectral "
                         "time stepper")
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        if err.code == 0:       # --help
            raise
        # argparse exits 2 on bad flags, which matches the contract, but
        # rethrow as ConfigError so main() owns the exit path
        raise ConfigError("invalid command line") from err

    raw = read_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)

    settings = {}
    for key, text in raw.items():
        # an empty profile or out_dir keeps its default
        if text == "" and key not in _CONVERT:
            continue
        try:
            settings[key] = _CONVERT.get(key, str)(text)
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
    if "mode" not in settings:
        raise ConfigError("no mode given (flag --mode or config key)")
    return RunConfig(**settings)


# ----------------------------------------------------------------------
# modes

def _run_solve(cfg, profile, written):
    scfg = cfg.solver_config()
    times = sorted(set(cfg.t))
    if cfg.oracle:
        oracle_snaps = spectral_oracle.integrate(profile, cfg.k, times,
                                                 2 * scfg.grid_size)

    diag_rows = []
    for idx, t in enumerate(times):
        snap = exact_solver.snapshot(profile, t, cfg.k, scfg)
        rows = np.column_stack([snap.x_grid, snap.u_values, snap.ux_values])
        _emit(cfg.out_dir, f"snapshot_{idx:03d}.csv",
              csv_text(("x", "u", "ux"), rows), written)
        diag = diagnostics.compute(snap)
        row = [t, diag.K, diag.E, diag.R, diag.bound_R_residual,
               diag.poincare_residual, diag.tail_fraction,
               snap.oddness_residual]
        if cfg.oracle:
            row.append(float(np.max(np.abs(
                snap.u_values - oracle_snaps[idx].u_values))))
        diag_rows.append(row)

    header = ["t", "K", "E", "R", "bound_R_residual", "poincare_residual",
              "tail_fraction", "oddness_residual"]
    if cfg.oracle:
        header.append("oracle_sup_diff")
    _emit(cfg.out_dir, "diagnostics.csv", csv_text(header, diag_rows),
          written)

    provenance = {
        "snapshot_*.csv:x,u,ux": "exact_solver.snapshot",
        "diagnostics.csv:K,E,R,bound_R_residual,poincare_residual,"
        "tail_fraction": "diagnostics.compute",
        "diagnostics.csv:oddness_residual": "exact_solver.snapshot",
    }
    if cfg.oracle:
        provenance["diagnostics.csv:oracle_sup_diff"] = \
            "spectral_oracle.integrate"
    summary = {
        "config": cfg.echo(),
        "times": list(times),
        "snapshots": [f"snapshot_{i:03d}.csv" for i in range(len(times))],
        "provenance": provenance,
    }
    _emit(cfg.out_dir, "solve.json", json_text(summary), written)
    return True


def _run_asym(cfg, profile, written):
    from . import asymptotics
    k = cfg.k
    pred = asymptotics.predict(profile, k)
    bif = asymptotics.bifurcation_data(profile, k)
    E0 = diagnostics.initial_enstrophy(profile, k)
    K0 = diagnostics.initial_energy(profile, k)

    apf = bif.a_pitchfork
    cases = (("single", 2.0 * apf), ("post-fold", bif.a_star))
    xs = np.linspace(1.0 / 128.0, 0.5 - 1.0 / 128.0, 63)
    rows = []
    sup = {}
    for label, a in cases:
        u_exact, _ = exact_solver.eval_fields(profile, xs, a, k)
        u_asym = asymptotics.asymptotic_u(profile, xs, a, k)
        err = np.abs(u_exact - u_asym)
        sup[label] = {"a": a, "sup_error": float(np.max(err)),
                      "sup_u": float(np.max(np.abs(u_exact)))}
        for x, ue, ua, e in zip(xs, u_exact, u_asym, err):
            rows.append((label, a, x, ue, ua, e))
    _emit(cfg.out_dir, "asym_error.csv",
          csv_text(("regime", "a", "x", "u_exact", "u_asym", "abs_error"),
                   rows), written)

    summary = {
        "config": cfg.echo(),
        "predictions": pred,
        "bifurcation": {
            "t0": bif.t0,
            "a_pitchfork": bif.a_pitchfork,
            "a_star": bif.a_star,
            "x0_at_a_star": bif.x0(bif.a_star),
            "x1_at_a_star": bif.x1(bif.a_star),
        },
        "initial": {"E0": E0, "K0": K0},
        "error_table": sup,
        "provenance": {
            "predictions": "asymptotics.predict",
            "bifurcation": "asymptotics.bifurcation_data",
            "initial.E0": "diagnostics.initial_enstrophy",
            "initial.K0": "diagnostics.initial_energy",
            "asym_error.csv:u_exact": "exact_solver.eval_fields",
            "asym_error.csv:u_asym": "asymptotics.asymptotic_u",
        },
    }
    _emit(cfg.out_dir, "predictions.json", json_text(summary), written)
    return True


def _run_sweep(cfg, profile, written):
    from . import harness
    result = harness.sweep(profile, cfg.k_list)
    report = harness.compare_predictions(result.results, profile)

    # both in increasing k: sweep keeps the k-list order, which
    # _check_k_list forces to be strictly increasing
    rows = []
    for r, ratios in zip(result.results, report.rows):
        bound_ratio = r.E_max_measured / diagnostics.integral_bound_rhs(r.E0)
        rows.append((r.k, r.E0, r.K0, r.T_star_measured, r.E_max_measured,
                     r.K_at_max, r.K_drop_measured, ratios["ratio_T_star"],
                     ratios["ratio_E_max"], ratios["ratio_K_drop"],
                     bound_ratio, r.n_evaluations))
    header = ("k", "E0", "K0", "T_star", "E_max", "K_at_max", "K_drop",
              "ratio_T_star", "ratio_E_max", "ratio_K_drop", "bound_ratio",
              "n_evaluations")
    _emit(cfg.out_dir, "sweep.csv", csv_text(header, rows), written)

    summary = {
        "config": cfg.echo(),
        "fits": result.fits,
        "extrapolated_ratios": dict(sorted(report.extrapolated.items())),
        "provenance": {
            "sweep.csv:k,E0,K0,T_star,E_max,K_at_max,K_drop,n_evaluations":
                "harness.find_enstrophy_max",
            "sweep.csv:ratio_T_star,ratio_E_max,ratio_K_drop":
                "harness.compare_predictions",
            "sweep.csv:bound_ratio": "diagnostics.integral_bound_rhs",
            "fits": "harness.sweep",
            "extrapolated_ratios": "harness.compare_predictions",
        },
    }
    _emit(cfg.out_dir, "fits.json", json_text(summary), written)
    return True


def _run_validate(cfg, profile, written):
    from . import asymptotics
    rep = profiles.validate_profile(profile)
    bound = asymptotics.check_required_bound(profile)

    # bifurcation structure at a representative post-pitchfork curvature
    apf = abs(profile.f_prime_at_zero)
    a = 0.5 * apf
    x0 = asymptotics.fold_location(profile, a)
    rs = asymptotics.find_roots(profile, np.linspace(0.0, x0, 257)[:-1], a)
    varphi, chi = rs.varphi, rs.chi
    mono_tol = 1e-12 * max(1.0, float(np.max(chi)))
    bif_checks = {
        "a": a,
        "x0": x0,
        "varphi_at_0": float(varphi[0]),
        "chi_at_0_minus_1": float(chi[0] - 1.0),
        "varphi_monotone": bool(np.all(np.diff(varphi) >= -1e-15)),
        "chi_monotone": bool(np.all(np.diff(chi) >= -mono_tol)),
    }
    bif_ok = (abs(bif_checks["varphi_at_0"]) <= 1e-12
              and abs(bif_checks["chi_at_0_minus_1"]) <= 1e-12
              and bif_checks["varphi_monotone"]
              and bif_checks["chi_monotone"])

    ok = rep.ok and bound.ok and bound.identity_residual < 1e-6 and bif_ok
    summary = {
        "config": cfg.echo(),
        "ok": bool(ok),
        "profile": {
            "ok": bool(rep.ok),
            "violations": list(rep.names),
            "oddness": rep.oddness,
            "endpoints": rep.endpoints,
            "sign_violation": rep.sign_violation,
            "convexity_violation": rep.convexity_violation,
            "fprime_zero_residual": rep.fprime_zero_residual,
            "antiderivative_residual": rep.antiderivative_residual,
            "F_evenness": rep.F_evenness,
        },
        "energy_drop_signs": {
            "ok": bool(bound.ok),
            "g_nonnegative": bound.g_nonnegative,
            "g_nondecreasing": bound.g_nondecreasing,
            "h_nonpositive": bound.h_nonpositive,
            "h_decreasing": bound.h_decreasing,
            "identity_residual": bound.identity_residual,
        },
        "bifurcation": dict(bif_checks, ok=bool(bif_ok)),
        "provenance": {
            "profile": "profiles.validate_profile",
            "energy_drop_signs": "asymptotics.check_required_bound",
            "bifurcation": "asymptotics.fold_location + "
                           "asymptotics.find_roots",
        },
    }
    _emit(cfg.out_dir, "validate.json", json_text(summary), written)
    if not ok:
        print("validate: FAIL (see validate.json)", file=sys.stderr)
    return ok


_RUNNERS = {"solve": _run_solve, "asym": _run_asym, "sweep": _run_sweep,
            "validate": _run_validate}


def run(cfg):
    """Execute one validated RunConfig; returns the process exit code."""
    try:
        profile = make_profile(cfg.profile)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []
    try:
        ok = _RUNNERS[cfg.mode](cfg, profile, written)
    except (QuadratureError, spectral_oracle.OracleError,
            profiles.ProfileError, FloatingPointError, ValueError,
            RuntimeError) as err:
        report = {
            "error": type(err).__name__,
            "message": str(err),
            "config": cfg.echo(),
            "written_before_failure": written,
        }
        with open(os.path.join(cfg.out_dir, "error.json"), "w",
                  newline="\n") as fh:
            fh.write(json_text(report))
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    return 0 if ok else 3


def main(argv=None):
    try:
        cfg = build_config(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
