#!/usr/bin/env python3
"""Walk through the spin needlet frame: window, analysis, exact inversion.

The window b lives on [1/B, B] with sum_j b^2(x/B^j) = 1, so analyzing a
band-limited spin-2 field over a family of levels and summing the b-weighted
adjoints returns the original harmonic coefficients (tight frame).
"""

import numpy as np

from spinlets import (build_cubature, build_window, draw_alm, needlet_analyze,
                      needlet_synthesize, power_law, roundtrip_error,
                      window_support)

B, SPIN, LMAX = 2.0, 2, 30

window = build_window(B)
print(f"needlet window: B = {B}, support [1/B, B] = [{1/B}, {B}]")
for x in (0.6, 1.0, 1.5, 1.9):
    print(f"  b({x}) = {window.b(x):.6f}")
total = sum(window.b_squared(7.3 / B ** j) for j in range(14))
print(f"  partition of unity at x = 7.3: sum_j b^2 = {total:.15f}")

print("\nlevel supports (spin 2):")
for j in range(0, 7):
    sup = window_support(window, j, SPIN)
    print(f"  j = {j}: degrees {list(sup)[:3]}..{sup.stop - 1}"
          if len(sup) else f"  j = {j}: empty")

# draw a Gaussian isotropic spin-2 field, total spectrum C_l = l^-3
half = power_law(3.0, l_min=SPIN).scaled(0.5)
alm = draw_alm(half, half, SPIN, LMAX, seed=1)
# the l = s mode has eigenvalue 0: frame-invisible, so Parseval below needs
# it gone (roundtrip_error skips it anyway)
alm.alm_e[SPIN, :] = 0.0
alm.alm_b[SPIN, :] = 0.0

levels = []
for j in range(0, 7):
    grid = build_cubature(j, B)
    levels.append(needlet_analyze(alm, grid))
    power = float(np.sum(np.abs(levels[-1].values) ** 2))
    print(f"level {j}: {grid.n_pixels:6d} cubature points, "
          f"sum |beta|^2 = {power:.6e}")

recon = needlet_synthesize(levels, L=LMAX)
err = roundtrip_error(alm, recon)
beta_power = sum(float(np.sum(np.abs(c.values) ** 2)) for c in levels)
norm = alm.norm_squared()
print(f"\nreconstruction max coefficient error: {err:.3e}")
print(f"Parseval: sum |beta|^2 / sum |a|^2 = {beta_power / norm:.15f}")
