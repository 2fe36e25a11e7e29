"""Independent ground-truth implementations used only by the test suite.

Nothing here is imported by the package itself: these are deliberately
different algorithms (explicit factorial sums, associated-Legendre routines
from scipy, brute-force quadrature) so that agreement with the library is
meaningful.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, sph_harm_y


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


def wigner_d_factorial_mp(l, beta, dps=50):
    """Same sum in mpmath arbitrary precision (truth for conditioning checks),
    for every m, n at once: out[m + l, n + l] = d^l_{m,n}(beta).

    The factorials and the half-angle power products c^(2l-b) s^b are
    computed once per (l, beta) and shared by every (m, n).
    """
    import mpmath as mp
    out = np.empty((2 * l + 1, 2 * l + 1))
    with mp.workdps(dps):
        c = mp.cos(mp.mpf(beta) / 2)
        s = mp.sin(mp.mpf(beta) / 2)
        fact = [mp.factorial(k) for k in range(2 * l + 1)]
        # the exponents of c and s in each term sum to 2l
        power = [c ** (2 * l - b) * s ** b for b in range(2 * l + 1)]
        for m in range(-l, l + 1):
            for n in range(-l, l + 1):
                pref = mp.sqrt(fact[l + m] * fact[l - m]
                               * fact[l + n] * fact[l - n])
                total = mp.mpf(0)
                for k in range(max(0, n - m), min(l + n, l - m) + 1):
                    denom = (fact[l + n - k] * fact[k]
                             * fact[m - n + k] * fact[l - m - k])
                    total += (-1) ** (m - n + k) * power[m - n + 2 * k] / denom
                out[m + l, n + l] = float(pref * total)
    return out


def scalar_sph_harm(l, m, theta, phi):
    """Scalar Y_lm via scipy's associated-Legendre implementation."""
    return complex(sph_harm_y(l, m, theta, phi))


def cap_membership(theta, cap_radius):
    """Analytic polar-cap membership: geodesic distance to the north pole."""
    return np.asarray(theta) <= cap_radius


def within_distance_all_pairs(grid, targets, epsilon):
    """Pixels within geodesic distance epsilon of a target: every non-target
    pixel against every target pixel, closed test dot >= cos(min(eps, pi))."""
    out = targets.copy()
    if epsilon <= 0.0 or not targets.any() or targets.all():
        return out
    vec = grid.unit_vectors
    rest = np.flatnonzero(~targets)
    out[rest] = ((vec[rest] @ vec[targets].T).max(axis=1)
                 >= math.cos(min(epsilon, math.pi)))
    return out


def block_labels_loop(grid, observed, n_blocks=None):
    """Latitude-band x longitude-sector partition of the observed pixels.

    Returns an int array over all pixels: block id for observed pixels, -1
    elsewhere.  Bands are weight-quantiles (pixel order is already
    theta-major), sectors are equal phi intervals; undersized blocks merge
    into their band neighbour.

    The per-pixel loop form of spinlets.estimators.block_labels (runt merges
    rewrite the pixel labels, a dict maps them to block ids), kept as the
    reference for its one pass over each band's cells.
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


# The degree-major Wigner engine as it stood before the order-major table:
# every degree fills a zeroed (2L+1)-row buffer and d_table holds
# [l, mu + L, i].  Kept verbatim (apart from the names) as the bit-for-bit
# reference for spinlets.wigner.iter_d_slices and spinlets.wigner.d_table.

def _log_binom(a, b):
    return float(gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1))


def iter_d_slices_buffered(L: int, n: int, theta):
    """Yield (l, d) for l = |n| .. L, d of shape (2l+1, ntheta): d^l_{m,n}(theta).

    One upward sweep of the degree recursion, vectorized over the row index m
    and over the colatitudes; no per-m restarts.  theta values must lie
    strictly inside (0, pi) (endpoints are handled by callers via the exact
    Kronecker/parity forms).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size and (theta.min() <= 0.0 or theta.max() >= math.pi):
        raise ValueError("iter_d_slices needs theta strictly inside (0, pi)")
    x = np.cos(theta)
    lc = np.log(np.cos(0.5 * theta))
    ls = np.log(np.sin(0.5 * theta))
    nth = theta.size
    l0 = abs(n)

    cur = np.zeros((2 * L + 1, nth))
    prev = np.zeros_like(cur)
    m_all = np.arange(-L, L + 1)

    # seed row of the sweep: l = |n|, all |m| <= |n|
    sl0 = slice(L - l0, L + l0 + 1)
    if l0 > 0:
        mcol = m_all[sl0]
        if n >= 0:
            logmag = (0.5 * (gammaln(2 * l0 + 1) - gammaln(l0 + mcol + 1)
                             - gammaln(l0 - mcol + 1))[:, None]
                      + np.outer(l0 + mcol, lc) + np.outer(l0 - mcol, ls))
            sign = np.ones(mcol.size)
        else:
            logmag = (0.5 * (gammaln(2 * l0 + 1) - gammaln(l0 - mcol + 1)
                             - gammaln(l0 + mcol + 1))[:, None]
                      + np.outer(l0 - mcol, lc) + np.outer(l0 + mcol, ls))
            sign = np.where((mcol + l0) % 2 == 0, 1.0, -1.0)
        cur[sl0] = sign[:, None] * np.exp(logmag)
    else:
        cur[L] = 1.0
    yield l0, cur[sl0]

    for l in range(l0, L):
        nxt = np.zeros_like(cur)
        sl = slice(L - l, L + l + 1)
        m = m_all[sl]
        if l == 0:  # degenerate first step (m = n = 0): Legendre P1 = x
            nxt[L] = x * cur[L]
        else:
            c_next = l * np.sqrt(((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - n * n))
            c_cur = (2 * l + 1) * (l * (l + 1) * x[None, :] - (m * n)[:, None])
            c_prev = (l + 1) * np.sqrt(
                np.maximum((l * l - m * m) * (l * l - n * n), 0))
            nxt[sl] = (c_cur * cur[sl] - c_prev[:, None] * prev[sl]) / c_next[:, None]
        # rows |m| = l+1 enter with their closed-form boundary values
        logc = 0.5 * _log_binom(2 * (l + 1), l + 1 + n)
        nxt[L + l + 1] = (-1.0) ** (l + 1 - n) * np.exp(
            logc + (l + 1 + n) * lc + (l + 1 - n) * ls)
        logc = 0.5 * _log_binom(2 * (l + 1), l + 1 - n)
        nxt[L - l - 1] = np.exp(logc + (l + 1 - n) * lc + (l + 1 + n) * ls)
        prev, cur = cur, nxt
        yield l + 1, cur[slice(L - l - 1, L + l + 2)]


def d_table_degree_major(L: int, n: int, theta) -> np.ndarray:
    """Dense table t[l, m + L, i] = d^l_{m,n}(theta_i) for l = 0..L.

    Rows with l < |n| or |m| > l are zero.  Used to batch harmonic sums over
    product grids; see spinlets.transform.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    table = np.zeros((L + 1, 2 * L + 1, theta.size))
    for l, d in iter_d_slices_buffered(L, n, theta):
        table[l, L - l:L + l + 1, :] = d
    return table


# The grid transforms as they stood before the batched product: one matmul
# per part, so the order-major table is read twice.  Kept verbatim (apart
# from the names) as the bit-for-bit reference for
# spinlets.transform.synthesize_on_grid and spinlets.transform.analyze_on_grid.

def synthesize_on_grid_two_pass(coeffs_full, grid, s):
    from spinlets.transform import _harmonic_tables
    L = coeffs_full.shape[0] - 1
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    A = coeffs_full.T[::-1] * signs[:, None] * norms[None, :]  # [mu + L, l]
    g_re = np.matmul(A.real[:, None, :], D)[:, 0, :]
    g_im = np.matmul(A.imag[:, None, :], D)[:, 0, :]
    buf = np.zeros((grid.n_phi, grid.n_theta), dtype=np.complex128)
    buf[bins] = g_re + 1j * g_im
    f = np.fft.ifft(buf, axis=0) * grid.n_phi
    return np.ascontiguousarray(f.T).ravel()


def analyze_on_grid_two_pass(map_values, grid, s, L, ring_weights=None):
    from spinlets.transform import _harmonic_tables
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    w = grid.ring_weights if ring_weights is None else ring_weights
    f = map_values.reshape(grid.n_theta, grid.n_phi)
    F = np.fft.fft(f, axis=1)
    Fm = F[:, bins].T * w[None, :]  # [mu + L, i]
    inner_re = np.matmul(D, Fm.real[:, :, None])[:, :, 0]
    inner_im = np.matmul(D, Fm.imag[:, :, None])[:, :, 0]
    inner = inner_re + 1j * inner_im
    return (inner * signs[:, None] * norms[None, :]).T[:, ::-1]


# The grid synthesis with a [phi, ring] spectrum, as it stood before the
# ring-major tail: the same chunked products, then the orders scattered into
# rows of a [bin, ring] buffer, inverse-transformed along axis 0 and copied
# to ring-major order.  Kept as the bit-for-bit reference for
# spinlets.transform.synthesize_on_grid, which transforms each ring's row in
# place.

def synthesize_on_grid_phi_major(coeffs_full, grid, s):
    from spinlets.transform import _harmonic_tables, _order_chunks, _pairs
    L = coeffs_full.shape[0] - 1
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    A = np.multiply(coeffs_full.T[::-1], signs[:, None], order="C")  # [mu + L, l]
    A *= norms
    g_mu = np.empty((2 * L + 1, grid.n_theta), dtype=np.complex128)  # [mu + L, i]
    a, g = _pairs(A), _pairs(g_mu)
    for orders, lo in _order_chunks(L, s):
        np.matmul(D[orders, lo:].swapaxes(1, 2), a[orders, lo:], out=g[orders])
    buf = np.zeros((grid.n_phi, grid.n_theta), dtype=np.complex128)
    buf[bins] = g_mu
    f = np.fft.ifft(buf, axis=0)
    f *= grid.n_phi
    return np.ascontiguousarray(f.T).ravel()


def kernel_sum_per_degree(s, p, q, degrees, weights):
    """sum_l w_l K^ls(p, q) with a fresh spinlets.wigner.kernel_K call per
    degree, the form needlet_kernel and theoretical_cov summed before
    spinlets.wigner.kernel_sum; the bit-for-bit reference for it."""
    from spinlets.wigner import kernel_K
    total = 0.0 + 0.0j
    for w, l in zip(weights, degrees):
        if w != 0.0:
            total += w * kernel_K(l, s, p, q)
    return total


def window_derivative_bound(B, r):
    """Bound on |d^r/dx^r b^2(x)| implied by the window's construction.

    b^2(x) = phi(x/B) - phi(x) with phi(t) = psi(1 - sigma (t - 1/B)) on its
    ramp, sigma = 2B/(B-1), so each term's r-th derivative is at most
    sigma^r max|psi^(r)|.  psi^(r) = f^(r-1) / integral(f) for the bump
    f(t) = exp(-1/(1-t^2)), differentiated numerically on a fine grid.
    """
    t = np.linspace(-1.0, 1.0, 200001)
    f = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    f[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    g = f / np.trapezoid(f, t)
    for _ in range(r - 1):
        g = np.gradient(g, t)
    sigma = 2.0 * B / (B - 1.0)
    return 2.0 * float(np.max(np.abs(g))) * sigma ** r


def window_support_scalar(window, j, s):
    """The window support as first written: scalar search for the analytic
    ends t_lo < l(l+1) < t_hi, then a degree-by-degree trim of the edge
    degrees where b is exactly 0."""
    B = window.B
    ss = s * (s + 1)
    t_lo = B ** (2 * (j - 1)) + ss
    t_hi = B ** (2 * (j + 1)) + ss

    def _first_above(t):
        # smallest integer l with l(l+1) > t
        l = max(0, int((-1.0 + math.sqrt(max(1.0 + 4.0 * t, 0.0))) / 2.0) - 1)
        while l * (l + 1) <= t:
            l += 1
        return l

    l_lo = max(_first_above(t_lo), abs(s))
    l_hi = _first_above(t_hi) - 1  # largest l with l(l+1) < t_hi, bar exact ties
    while l_hi >= 0 and l_hi * (l_hi + 1) >= t_hi:
        l_hi -= 1

    def _b_at(l):
        return window.b(math.sqrt((l - s) * (l + s + 1)) / B ** j)

    while l_lo <= l_hi and _b_at(l_lo) == 0.0:
        l_lo += 1
    while l_hi >= l_lo and _b_at(l_hi) == 0.0:
        l_hi -= 1
    if l_hi < l_lo:
        return range(l_lo, l_lo)
    return range(l_lo, l_hi + 1)


def fsum_reference(a):
    """Correctly rounded sum of a float array by Shewchuk's method over a
    Python list (math.fsum), the reduction the estimators reproduce."""
    return math.fsum(a.tolist())
