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

__version__ = "0.1.0"
