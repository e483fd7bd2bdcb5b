"""The package must not load its test-only references.

scipy, mpmath and hypothesis are the independent references of the tests
(and hypothesis their property driver); the package itself runs on numpy
alone.  Loading one of them on import would tie the references to the
code they check and would add their import time to every CLI run.
"""

import pathlib
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
