#!/usr/bin/env python3
"""Radial profile of a spin needlet: main lobe, sidelobes, far tail.

Prints |psi_jk(d)| along a meridian from an equatorial cubature point, in
units of the scale width B^-j.  The far tail decays quasi-exponentially;
the first sidelobes (a few widths out) sit at the -10 dB level, which is
what limits band-power estimation close to a mask edge.
"""

import numpy as np

from spinlets import build_cubature, needlet_kernel
from spinlets.wigner import SphPoint

B, SPIN = 2.0, 2

for j in (4, 5):
    grid = build_cubature(j, B)
    k0 = (grid.n_theta // 2) * grid.n_phi
    th0 = grid.theta_pixels[k0]
    width = B ** (-j)
    peak = abs(needlet_kernel(grid, k0, grid.point(k0), SPIN))
    print(f"\nlevel j = {j} (width B^-j = {width:.4f} rad), "
          f"|psi| at the centre = {peak:.3f}")
    print("   d/width    |psi|        relative")
    for mult in (0.5, 1, 2, 3, 4, 6, 8, 10, 15, 20, 30):
        d = mult * width
        if th0 + d > np.pi - 0.05:
            break
        val = abs(needlet_kernel(grid, k0, SphPoint(th0 + d, 0.0), SPIN))
        print(f"   {mult:7.1f}    {val:.3e}    {val / peak:.3e}")
