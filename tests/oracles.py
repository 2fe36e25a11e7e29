"""Independent ground-truth implementations used only by the test suite.

Nothing here is imported by the package itself: these are deliberately
different algorithms (explicit factorial sums, associated-Legendre routines
from scipy, brute-force quadrature) so that agreement with the library is
meaningful.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import sph_harm_y


def wigner_d_factorial(l, m, n, beta):
    """Explicit Wigner d sum, exact rational coefficients, fsum accumulation.

    Valid to l ~ 20 in double precision (factorials are exact integers; the
    only rounding is in the half-angle powers and the final sum).
    """
    c = math.cos(0.5 * beta)
    s = math.sin(0.5 * beta)
    pref = math.sqrt(
        math.factorial(l + m) * math.factorial(l - m)
        * math.factorial(l + n) * math.factorial(l - n))
    terms = []
    for k in range(max(0, n - m), min(l + n, l - m) + 1):
        coeff = Fraction(
            (-1) ** (m - n + k),
            math.factorial(l + n - k) * math.factorial(k)
            * math.factorial(m - n + k) * math.factorial(l - m - k))
        terms.append(float(coeff) * c ** (2 * l + n - m - 2 * k) * s ** (m - n + 2 * k))
    return pref * math.fsum(terms)


def wigner_d_factorial_mp(l, m, n, beta, dps=50):
    """Same sum in mpmath arbitrary precision (truth for conditioning checks)."""
    import mpmath as mp
    with mp.workdps(dps):
        c = mp.cos(mp.mpf(beta) / 2)
        s = mp.sin(mp.mpf(beta) / 2)
        pref = mp.sqrt(mp.factorial(l + m) * mp.factorial(l - m)
                       * mp.factorial(l + n) * mp.factorial(l - n))
        total = mp.mpf(0)
        for k in range(max(0, n - m), min(l + n, l - m) + 1):
            denom = (mp.factorial(l + n - k) * mp.factorial(k)
                     * mp.factorial(m - n + k) * mp.factorial(l - m - k))
            total += (-1) ** (m - n + k) * c ** (2 * l + n - m - 2 * k) \
                * s ** (m - n + 2 * k) / denom
        return float(pref * total)


def scalar_sph_harm(l, m, theta, phi):
    """Scalar Y_lm via scipy's associated-Legendre implementation."""
    return complex(sph_harm_y(l, m, theta, phi))


def cap_membership(theta, cap_radius):
    """Analytic polar-cap membership: geodesic distance to the north pole."""
    return np.asarray(theta) <= cap_radius


def block_labels_loop(grid, observed, n_blocks=None):
    """Latitude-band x longitude-sector partition of the observed pixels.

    Returns an int array over all pixels: block id for observed pixels, -1
    elsewhere.  Bands are weight-quantiles (pixel order is already
    theta-major), sectors are equal phi intervals; undersized blocks merge
    into their band neighbour.

    The per-pixel loop form of spinlets.estimators.block_labels (runt merges
    rewrite the pixel labels, a dict maps them to block ids), kept as the
    reference for the vectorized version.
    """
    obs_idx = np.flatnonzero(observed)
    n_obs = obs_idx.size
    if n_blocks is None:
        n_blocks = max(8, math.ceil(math.sqrt(n_obs) / 4.0))
    n_lat = max(2, int(round(math.sqrt(n_blocks / 2.0))))
    n_lon = max(2, math.ceil(n_blocks / n_lat))

    w = grid.weights[obs_idx]
    cum = np.cumsum(w) - 0.5 * w
    band = np.minimum((cum / cum[-1] * n_lat).astype(int)
                      if cum[-1] > 0 else np.zeros(n_obs, int), n_lat - 1)
    sector = np.minimum((grid.phi_pixels[obs_idx] / (2.0 * math.pi)
                         * n_lon).astype(int), n_lon - 1)
    raw = band * n_lon + sector

    labels = np.full(grid.n_pixels, -1, dtype=np.int64)
    # merge undersized blocks into the next sector of the same band
    final = {}
    next_id = 0
    for b in range(n_lat):
        ids = [b * n_lon + c for c in range(n_lon)]
        counts = {i: int(np.sum(raw == i)) for i in ids}
        carry = None
        for i in ids:
            if counts[i] == 0 and carry is None:
                continue
            if carry is not None:
                raw[raw == carry] = i
                counts[i] += counts.pop(carry)
                carry = None
            if counts[i] < 16:
                carry = i
        if carry is not None:  # fold a trailing runt into the previous block
            others = [i for i in ids if counts.get(i, 0) >= 16]
            if others:
                raw[raw == carry] = others[-1]
        for i in ids:
            if counts.get(i, 0) >= 16 and np.any(raw == i):
                final[i] = next_id
                next_id += 1
    mapped = np.array([final.get(r, -1) for r in raw])
    labels[obs_idx] = mapped
    return labels
