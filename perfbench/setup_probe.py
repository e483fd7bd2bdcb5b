"""Time one workload's set-up in a fresh process.

Usage: python3 perfbench/setup_probe.py [CLI ARGS...]

Measures `import enstrophy_lab`, building the sine and two-term profiles
and parsing the CLI arguments given (a default solver config when there are
none).  Prints the seconds taken, then the calibration kernel's CPU
seconds per pass right after, on the same core, then the package path.
`src` must be on PYTHONPATH.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import enstrophy_lab
    from enstrophy_lab import cli, exact_solver, profiles
    profiles.make_sine_profile()
    profiles.make_sine_series_profile([1.0, 0.1])
    if argv:
        cli.build_config(argv)
    else:
        exact_solver.SolverConfig()
    elapsed = time.perf_counter() - t0
    import calibration
    print(f"{elapsed!r} {calibration.burst()!r} {enstrophy_lab.__file__}")


if __name__ == "__main__":
    main(sys.argv[1:])
