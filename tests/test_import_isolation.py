"""The package must not load its test-only references, and the CLI must
not load at start what only some of its modes run.

scipy, mpmath and hypothesis are the independent references of the tests
(and hypothesis their property driver); the package itself runs on numpy
alone.  Loading one of them on import would tie the references to the
code they check and would add their import time to every CLI run.  For
the same reason `import enstrophy_lab.cli` leaves out the harness, the
asymptotics and configparser, and the result records are NamedTuples,
whose classes cost less to build than dataclasses'.
"""

import dataclasses
import importlib
import pathlib
import pkgutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_no_test_references():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import enstrophy_lab, enstrophy_lab.cli; "
            "print(' '.join(m for m in ('scipy', 'mpmath', 'hypothesis') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_cli_cold_start_loads_no_mode_only_module():
    # the harness and the asymptotics load only in the modes that run them,
    # configparser only for a --config file
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import enstrophy_lab.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m in "
            "('configparser', 'enstrophy_lab') "
            "or m.startswith('enstrophy_lab.'))))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [
        "enstrophy_lab"] + [f"enstrophy_lab.{m}" for m in (
            "cli", "diagnostics", "exact_solver", "profiles", "quadrature",
            "rootfind", "spectral_oracle")]


def test_only_the_validating_configs_are_dataclasses():
    # every result record is a NamedTuple; RunConfig and SolverConfig
    # check their fields in __post_init__
    pkg = importlib.import_module("enstrophy_lab")
    found = set()
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"enstrophy_lab.{info.name}")
        found |= {name for name, obj in vars(mod).items()
                  if isinstance(obj, type) and obj.__module__ == mod.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {"RunConfig", "SolverConfig"}
