#!/usr/bin/env python3
"""Track E(t) for one k through its transient maximum.

The enstrophy first grows (the shock steepens) and then collapses once
dissipation takes over; the maximizer time and height follow the k-scalings
T* ~ E0^(-1/2) and E(T*) ~ E0^(3/2).
"""
import numpy as np

from enstrophy_lab import asymptotics, harness, profiles

k = 20.0
sine = profiles.make_sine_profile()
pred = asymptotics.predict(sine, k)
K0, E0, _ = harness.state_functionals(sine, k, 0.0)

print(f"k = {k}:  K0 = {K0:.4f}, E0 = {E0:.2f}")
print(f"predicted T* = {pred.T_star:.6f}\n")

ts = np.geomspace(0.1 * pred.T_star, 4.0 * pred.T_star, 13)
print(f"{'t/T*':>8} {'K(t)':>12} {'E(t)':>14} {'E(t)/E0':>10}")
for t in ts:
    K, E, _ = harness.state_functionals(sine, k, float(t))
    print(f"{t / pred.T_star:8.3f} {K:12.4f} {E:14.2f} {E / E0:10.4f}")

r = harness.find_enstrophy_max(sine, k)
print(f"\nmeasured maximum ({r.n_evaluations} evaluations):")
print(f"  T*      = {r.T_star_measured:.8f}"
      f"   (ratio to predicted: {r.T_star_measured / pred.T_star:.4f})")
print(f"  E(T*)   = {r.E_max_measured:.2f}"
      f"   (ratio to leading order: "
      f"{r.E_max_measured / pred.E_max_leading:.4f})")
print(f"  K drop  = {r.K0 - r.K_at_max:.4f}"
      f"   (ratio to leading order: "
      f"{r.K_drop_measured / pred.K_drop_leading:.4f})")
print("\nnote: the E(T*) ratio does not go to 1 as k grows; the measured")
print("constant is (2/3)|f(x*)|^3 k^3 rather than (1/2)|f(x*)|^3 k^3, see")
print("the scaling_sweep demo and the README.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    ts_dense = np.geomspace(0.05 * pred.T_star, 6.0 * pred.T_star, 120)
    Es = [harness.state_functionals(sine, k, float(t))[1] for t in ts_dense]
    plt.figure(figsize=(5, 3.2))
    plt.loglog(ts_dense / pred.T_star, np.array(Es) / E0, "-")
    plt.axvline(1.0, color="gray", lw=0.6)
    plt.xlabel("t / T*")
    plt.ylabel("E(t) / E0")
    plt.title(f"enstrophy transient, k = {k:g}")
    plt.tight_layout()
    plt.savefig("enstrophy_growth.png", dpi=120)
    print("\nwrote enstrophy_growth.png")
