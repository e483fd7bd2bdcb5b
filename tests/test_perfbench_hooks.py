"""The traced benchmark run (perfbench/spans.py) rebinds package attributes
by name, so renaming one of them breaks `perfbench/run.py --trace 1`.  This
installs and removes those hooks without running anything under them."""

import importlib.util
import pathlib
import sys

# every module that spans.install imports, so none appears mid-test
from enstrophy_lab import asymptotics, cli, harness  # noqa: F401

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _package_attrs():
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("enstrophy_lab") and m is not None]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def _changed(before):
    after = _package_attrs()
    return {k for k in before.keys() | after.keys()
            if before.get(k) is not after.get(k)}


def test_tracer_hooks_install_and_restore(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module of its classes through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    before = _package_attrs()
    with spans.Tracer().installed():
        rebound = _changed(before)
    assert ("enstrophy_lab.harness", "_enstrophy_of_t") in rebound
    assert ("enstrophy_lab.asymptotics", "bisect") in rebound
    assert ("enstrophy_lab.exact_solver", "newton_polish") in rebound
    assert _changed(before) == set()
