#!/usr/bin/env python3
"""Hemispherical asymmetry statistic: null behavior and detection power.

The statistic compares band-power estimates over the two hemispheres'
eps-interiors, standardized by subsampling variances.  For an isotropic
field it is ~N(0,1); for a field whose northern power is doubled (two
independent draws stitched at the equator) it strays far positive.
"""

import numpy as np

from spinlets import (build_cubature, draw_alm, estimate_asymmetry,
                      hemispheres, masked_analyze, needlet_analyze, power_law)
from spinlets.grid import empty_mask
from spinlets.transform import synthesize_on_grid
from spinlets.window import window_support

B, SPIN, J, R = 2.0, 2, 5, 60

grid = build_cubature(J, B)
model = power_law(3.0, l_min=SPIN)
half = model.scaled(0.5)
regions = hemispheres(grid, epsilon=3.0 * B ** (-J))
L = window_support(grid.window, J, SPIN).stop - 1
north = grid.cos_theta_pixels > 0.0

print("isotropic field (null):")
stats = []
for r in range(R):
    alm = draw_alm(half, half, SPIN, L, (51, r))
    coeffs = needlet_analyze(alm, grid)
    stats.append(estimate_asymmetry(coeffs, regions, model).standardized)
stats = np.array(stats)
print(f"  standardized difference: mean {stats.mean():+.2f}, "
      f"sd {stats.std(ddof=1):.2f}")

print("\nstitched field (northern spectrum doubled):")
mask = empty_mask(grid)
boosted = half.scaled(2.0)
stats = []
for r in range(R):
    south = draw_alm(half, half, SPIN, L, (52, r, 0))
    strong = draw_alm(boosted, boosted, SPIN, L, (52, r, 1))
    pix = np.where(north,
                   synthesize_on_grid(strong.full_coeffs(), grid, SPIN),
                   synthesize_on_grid(south.full_coeffs(), grid, SPIN))
    coeffs = masked_analyze(pix, mask, SPIN)
    stats.append(estimate_asymmetry(coeffs, regions, model).standardized)
stats = np.array(stats)
print(f"  standardized difference: mean {stats.mean():+.2f}, "
      f"sd {stats.std(ddof=1):.2f}  (strays far from 0)")
