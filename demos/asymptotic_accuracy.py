#!/usr/bin/env python3
"""Sup-norm error of the Laplace-method velocity against the exact one.

Both regimes are exercised: a above the pitchfork (single minimum) and
a = a* (past the fold, where the maximizer lives).  The error stays O(1)
in k while u itself is O(k), so the relative error drops like 1/k.
"""
import numpy as np

from enstrophy_lab import asymptotics, exact_solver, profiles

sine = profiles.make_sine_profile()
apf = abs(sine.f_prime_at_zero)
a_star = asymptotics.bifurcation_data(sine, 50.0).a_star
xs = np.linspace(1.0 / 128.0, 0.5 - 1.0 / 128.0, 63)

print(f"{'k':>6} {'regime':>10} {'sup|u_ex - u_asym|':>20} "
      f"{'sup/k (rel)':>12}")
for k in (50.0, 100.0, 200.0, 400.0):
    for label, a in (("single", 2.0 * apf), ("post-fold", a_star)):
        ue, _ = exact_solver.eval_fields(sine, xs, a, k)
        ua = asymptotics.asymptotic_u(sine, xs, a, k)
        err = float(np.max(np.abs(ue - ua)))
        print(f"{k:6.0f} {label:>10} {err:20.4f} {err / k:12.6f}")

print("\nthe absolute error is O(1) as k grows; dividing by k shows the")
print("relative accuracy improving linearly in 1/k.")
