"""Exact viscous Burgers dynamics on the circle and the asymptotics of its
enstrophy growth.

The pieces fit together like this: `profiles` builds admissible initial
shapes f, `exact_solver` evaluates the heat-kernel representation of the
solution u(x, t) to quadrature accuracy, `asymptotics` carries the
saddle-point reductions (bifurcation structure, matched two-spike fields,
leading-order predictions), `diagnostics` turns states into the integral
functionals K, E, R, `spectral_oracle` is an independent Fourier time
stepper used only for cross-checks, and `harness` measures the enstrophy
maximum and fits the scaling laws over a sweep in k.  `cli` drives all of
it from a config file or flags.
"""

from .profiles import (Profile, ProfileError, ProfileReport,
                       make_sine_profile, make_sine_series_profile,
                       validate_profile)
from .exact_solver import SolverConfig, StateSnapshot, eval_fields, snapshot
from .asymptotics import (RootSet, BifurcationData, Predictions, BoundCheck,
                          ScaledIntegral,
                          SINGLE, TRIPLE, POST_FOLD, find_roots,
                          fold_location, matching_point, bifurcation_data,
                          laplace_interior, laplace_endpoint, asymptotic_u,
                          asymptotic_ux, leading_enstrophy, leading_energy,
                          predict, check_required_bound)
from .diagnostics import (Diagnostics, compute, from_functionals,
                          integral_bound_rhs, initial_energy,
                          initial_enstrophy)
from .spectral_oracle import OracleError, integrate
from .harness import (MaxSearchResult, ScalingFit, SweepResult,
                      ComparisonReport, state_functionals,
                      find_enstrophy_max, sweep, compare_predictions)
from .quadrature import QuadratureError

__version__ = "0.1.0"

__all__ = [
    "Profile", "ProfileError", "ProfileReport", "make_sine_profile",
    "make_sine_series_profile", "validate_profile",
    "SolverConfig", "StateSnapshot", "eval_fields", "snapshot",
    "RootSet", "BifurcationData", "Predictions", "BoundCheck",
    "ScaledIntegral",
    "SINGLE", "TRIPLE", "POST_FOLD", "find_roots", "fold_location",
    "matching_point", "bifurcation_data", "laplace_interior",
    "laplace_endpoint", "asymptotic_u", "asymptotic_ux",
    "leading_enstrophy", "leading_energy", "predict",
    "check_required_bound",
    "Diagnostics", "compute", "from_functionals", "integral_bound_rhs",
    "initial_energy", "initial_enstrophy",
    "OracleError", "integrate",
    "MaxSearchResult", "ScalingFit", "SweepResult", "ComparisonReport",
    "state_functionals", "find_enstrophy_max", "sweep",
    "compare_predictions",
    "QuadratureError",
    "__version__",
]
