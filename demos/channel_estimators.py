#!/usr/bin/env python3
"""Auto-power vs cross-power band-power estimators and the Hausman check.

Three detector channels observe the same spin-2 signal plus independent
noise.  The auto-power estimator subtracts the known noise bias; the
cross-power estimator needs no noise model.  Their standardized difference
is ~N(0,1) when the adopted noise model is right and drifts far positive
when the bias term is inflated.
"""

import numpy as np

from spinlets import (build_cubature, draw_alm, estimate_ap,
                      estimate_cp, gamma_theoretical, needlet_analyze,
                      observe_channels, power_law)
from spinlets.estimators import estimate_hausman
from spinlets.window import window_support

B, SPIN, J, D, R = 2.0, 2, 5, 3, 60

grid = build_cubature(J, B)
signal_model = power_law(3.0, l_min=SPIN)
noise_models = [power_law(2.5, l_min=SPIN, kind="noise", amplitude=1.0)
                for _ in range(D)]
half = signal_model.scaled(0.5)
gamma = gamma_theoretical(grid.window, signal_model, J, SPIN)
L = window_support(grid.window, J, SPIN).stop - 1
print(f"level j = {J}, D = {D} channels, target band power {gamma:.6e}\n")

for factor, label in ((1.0, "correct noise model"),
                      (1.5, "noise bias inflated x1.5")):
    adopted = [m.scaled(factor) for m in noise_models]
    ap_vals, cp_vals, stats = [], [], []
    for r in range(R):
        signal = draw_alm(half, half, SPIN, L, (31, r, 0))
        chans = observe_channels(signal, noise_models, (31, r, 1))
        coeffs = [needlet_analyze(chans.channel(c), grid) for c in range(D)]
        ap = estimate_ap(coeffs, adopted, signal_model)
        cp = estimate_cp(coeffs, signal_model)
        ap_vals.append(ap.value)
        cp_vals.append(cp.value)
        stats.append(estimate_hausman(coeffs, adopted, signal_model).standardized)
    ap_vals, cp_vals, stats = map(np.array, (ap_vals, cp_vals, stats))
    print(f"{label}:")
    print(f"  AP mean {ap_vals.mean():.6e} "
          f"({(ap_vals.mean() / gamma - 1) * 100:+.2f}% of target)")
    print(f"  CP mean {cp_vals.mean():.6e} "
          f"({(cp_vals.mean() / gamma - 1) * 100:+.2f}% of target)")
    print(f"  standardized CP-AP: mean {stats.mean():+.2f}, "
          f"sd {stats.std(ddof=1):.2f}  "
          f"({'looks null' if abs(stats.mean()) < 1 else 'bias detected'})\n")
