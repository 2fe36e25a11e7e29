#!/usr/bin/env python3
"""Band-power estimation with a masked polar cap.

Simulates a spin-2 field, masks 10% of the sky, computes masked needlet
coefficients (integration domain excludes the cap), and compares the masked
estimator against the theoretical band power at several dilation margins.
The truncation excess concentrates near the mask edge, so widening the
dilation pulls the estimate onto the target.
"""

import math

import numpy as np

from spinlets import (build_cubature, draw_alm, estimate_masked,
                      gamma_theoretical, masked_analyze, power_law)
from spinlets.grid import polar_cap_mask
from spinlets.transform import synthesize_on_grid
from spinlets.window import window_support

B, SPIN, J, R = 2.0, 2, 5, 120

grid = build_cubature(J, B)
model = power_law(3.0, l_min=SPIN)
half = model.scaled(0.5)
gamma = gamma_theoretical(grid.window, model, J, SPIN)
L = window_support(grid.window, J, SPIN).stop - 1
width = B ** (-J)
print(f"level j = {J}: grid {grid.n_theta} x {grid.n_phi} pixels, "
      f"band power Gamma = {gamma:.6e}")

for eps_scale in (3.0, 6.0):
    mask = polar_cap_mask(grid, 0.10, epsilon=eps_scale * width)
    vals = []
    for r in range(R):
        alm = draw_alm(half, half, SPIN, L, (2024, r))
        pix = synthesize_on_grid(alm.full_coeffs(), grid, SPIN)
        star = masked_analyze(pix, mask, SPIN)
        vals.append(estimate_masked(star, mask, model).value)
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(R)
    print(f"eps = {eps_scale:3.1f} B^-j ({eps_scale * width:.3f} rad, "
          f"{mask.n_observed} observed pixels): "
          f"mean = {vals.mean():.6e} ({(vals.mean() / gamma - 1) * 100:+.2f}% "
          f"of Gamma, s.e. {se / gamma * 100:.2f}%)")
