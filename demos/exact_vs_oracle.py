#!/usr/bin/env python3
# Two independent routes to the same Burgers solution: the closed-form
# integral representation and a Fourier time stepper.  They share no code
# beyond the initial profile, so agreement is a real check.
import numpy as np

from enstrophy_lab import diagnostics, exact_solver, profiles, spectral_oracle

k = 5.0
sine = profiles.make_sine_profile()
bd_t0 = 1.0 / (8.0 * np.pi ** 2 * k)     # curvature time 1/(2 k |f'(0)|)
t_star = 1.0 / (16.0 * np.pi * k)        # predicted enstrophy maximizer
times = [0.5 * bd_t0, t_star, 2.0 * bd_t0]

oracle_snaps = spectral_oracle.integrate(sine, k, times, snapshot_points=1024)

print(f"k = {k}, grid 1024, oracle {spectral_oracle.N_MODES} modes, "
      f"step-doubling rtol = {spectral_oracle.STEP_RTOL:g}")
print(f"{'t':>12} {'sup|u_ex - u_or|':>18} {'K':>12} {'E':>12} {'R':>14}")
for t, osnap in zip(times, oracle_snaps):
    snap = exact_solver.snapshot(sine, t, k,
                                 exact_solver.SolverConfig(grid_size=512))
    sup = np.max(np.abs(snap.u_values - osnap.u_values))
    d = diagnostics.compute(snap)
    print(f"{t:12.6f} {sup:18.3e} {d.K:12.5f} {d.E:12.4f} {d.R:14.3f}")

# the production bound R <= (3/2) E^(5/3) should hold with room to spare
snap = exact_solver.snapshot(sine, t_star, k)
d = diagnostics.compute(snap)
print(f"\nat t = T*: R = {d.R:.4f}, (3/2) E^(5/3) = "
      f"{1.5 * d.E ** (5 / 3):.4f}, residual = {d.bound_R_residual:.4f}")
print(f"Poincare residual E/(4 pi^2) - K = {d.poincare_residual:.6f} (>= 0)")
