"""Needlet analysis and synthesis, needlet kernels, coefficient covariances.

Spectral-domain analysis (no numerical integration):

    beta_{jk;s} = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j)
                  sum_m a_{l;ms} Y_{lms}(xi_jk)

Masked analysis realizes the integral over S^2 \\ G with the grid's own
quadrature: dropping the excluded pixels from the sum, forming the
pseudo-coefficients of the gap-filled map, and evaluating the same spectral
expression.  Exchanging the two finite sums makes the two forms identical,
so the code runs in O(N L^2) instead of O(N^2 L).

level_band is the one rule for the degrees a level reads; frame_band fixes
a frame round trip's degree, at most the field's L, before any transform.

A process holds one harmonic table at a time, keyed (grid, spin, degree); a
grid is the value (j, B), so an equal grid built anew hits it.  A miss frees
the held table before it builds the next, so wigner.d_table finds no view of
it left and builds into its mapping when it is big enough (see d_table):
between builds a process keeps the pages of one table the cap admitted, and
MAX_TABLE_BYTES bounds all the table memory it holds.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BandLimitExceededError, CoverageGapError,
                     InvalidCoefficientFileError, ResourceLimitError)
from .fields import SpinAlm, cl_profile, decode_pairs, encode_pairs, read_header
from .grid import CubatureGrid, SkyMask, header_grid
from .wigner import SphPoint, d_table, has_spare_cpu, kernel_sum
from .window import band_profile, window_support

# largest harmonic table a level may build, counted in its written bytes
# (rows l >= max(|mu|, |s|)): j = 8 at B = 2 writes about 1.07 GB, j = 9 8.6 GB
MAX_TABLE_BYTES = 2 ** 31
# orders per product of the grid transforms (see _order_chunks); 16 and 32
# time alike at j = 5..7, and 16 reads fewer zero rows
ORDER_CHUNK = 16
# a grid transform whose table writes at least this many bytes (see
# _table_bytes) shares its chunks of orders with one helper thread (see
# _run_chunks): j >= 6 at B = 2
THREAD_TABLE_BYTES = 8 * 2 ** 20


@dataclass(eq=False)
class NeedletCoefficients:
    """Complex beta_{jk;s} (or masked beta*_{jk;s}) on one level's grid."""

    s: int
    values: np.ndarray  # complex, one per grid pixel
    masked: bool
    grid: CubatureGrid

    def __post_init__(self):
        if self.values.shape != (self.grid.n_pixels,):
            raise ValueError("coefficient array length != grid pixel count")


# the one bounded store: at most one (grid, s, L) -> harmonic tables entry
_table_slot: dict = {}


def _harmonic_tables(grid: CubatureGrid, s: int, L: int):
    """Per-(grid, spin, degree) tables for the factorized grid transforms.

    Returns (D, norms, signs, bins) with D the order-major d_table of the
    grid's rings, D[mu + L, l, i] = d^l_{mu,s}(theta_i), norms[l] =
    sqrt((2l+1)/4pi), signs[mu + L] = (-1)^mu and bins[mu + L] the FFT bin of
    order m = -mu (Y_lms carries d^l_{-m,s}).  D is a view of the
    degree-major store d_table fills in place; each (L+1, n_theta) block
    D[mu + L] has unit stride along theta, and the transforms read it in
    place, once per transform.  Only their small coefficient arrays are
    reversed between m and mu.  The zero rows l < max(|mu|, |s|), about
    half of D, are never written, so they take no RAM (see d_table), and
    the transforms read only the few inside a chunk of orders (see the note
    above synthesize_on_grid).

    The one gate before any table: refuses an L the grid's longitudes cannot
    resolve (2L+1 > n_phi), then a table over MAX_TABLE_BYTES.  The key
    fixes n_phi, so a hit skips no check.  A miss empties _table_slot before
    it builds, so unless a caller still holds the old table, d_table finds
    no view of it left and builds the new one into its mapping (see d_table).
    """
    key = (grid, s, L)
    if key in _table_slot:
        return _table_slot[key]
    if grid.n_phi < 2 * L + 1:
        raise BandLimitExceededError(
            f"grid at level {grid.j} resolves orders |m| <= {(grid.n_phi - 1) // 2},"
            f" need {L}")
    _check_table_size(grid, s, L)
    _table_slot.clear()
    D = d_table(L, s, grid.theta)
    ells = np.arange(L + 1)
    norms = np.sqrt((2 * ells + 1) / (4.0 * math.pi))
    mu = np.arange(-L, L + 1)
    signs = np.where(mu % 2 == 0, 1.0, -1.0)
    bins = np.mod(-mu, grid.n_phi)
    _table_slot[key] = D, norms, signs, bins
    return _table_slot[key]


def _table_bytes(n_theta: int, s: int, L: int) -> int:
    """The bytes the harmonic table of n_theta rings at (s, L) writes:
    8 n_theta per row (l, mu) with max(|mu|, |s|) <= l <= L."""
    return 8 * n_theta * max((L + 1) ** 2 - s * s, 0)


def _check_table_size(grid: CubatureGrid, s: int, L: int) -> None:
    """Refuse, before it is allocated, a harmonic table of the grid's rings
    at (s, L) that writes more than MAX_TABLE_BYTES."""
    nbytes = _table_bytes(grid.n_theta, s, L)
    if nbytes > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"level j={grid.j}: harmonic table at s={s}, L={L} needs {nbytes} "
            f"bytes > cap {MAX_TABLE_BYTES}")


def _pairs(z: np.ndarray) -> np.ndarray:
    """Float [..., 2] view of a C-ordered complex array: (real, imaginary)."""
    return z.view(np.float64).reshape(*z.shape, 2)


def _order_chunks(L: int, s: int):
    """(orders, lo) per run of ORDER_CHUNK orders mu + L: the slice of the
    orders and their first nonzero row lo = max(smallest |mu|, |s|)."""
    for a in range(0, 2 * L + 1, ORDER_CHUNK):
        b = min(a + ORDER_CHUNK, 2 * L + 1)
        near = 0 if a <= L < b else min(abs(a - L), abs(b - 1 - L))
        yield slice(a, b), max(near, abs(s))


def _run_chunks(product, L: int, s: int, n_theta: int) -> None:
    """Run product(orders, lo) over _order_chunks(L, s).

    On a table that writes at least THREAD_TABLE_BYTES, in a process with
    a spare CPU (wigner.has_spare_cpu: 2 or more usable CPUs and not a
    pool worker), the odd chunks go to a one-thread ThreadPoolExecutor
    while the caller runs the even ones.  The helper's Future re-raises
    what it raised, and leaving the executor joins its thread, so no thread
    outlives the call.
    product must call only np.matmul (which releases the GIL) and write
    only its chunk's slice.
    """
    chunks = list(_order_chunks(L, s))
    if _table_bytes(n_theta, s, L) < THREAD_TABLE_BYTES or not has_spare_cpu():
        for orders, lo in chunks:
            product(orders, lo)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(lambda: [product(*c) for c in chunks[1::2]])
        for orders, lo in chunks[::2]:
            product(orders, lo)
        helper.result()


# Both transforms run one np.matmul per chunk of ORDER_CHUNK orders, over
# the chunk's rows l >= lo of D (see _order_chunks), with the real and
# imaginary parts as the product's two columns; each chunk writes its slice
# of one preallocated output.  Rows below lo are zero for every order of the
# chunk: they are neither written (see d_table) nor read, so they cost no
# RAM, no page faults and no flops.  Inside a chunk, an order |mu| > lo
# still reads its zero rows lo <= l < |mu| (at most ORDER_CHUNK - 1 of them).
# The synthesis then writes the orders into one zeroed [ring, bin] spectrum
# with two basic slices, m = L..0 at bins L..0 and m = -1..-L at bins
# n_phi - 1 down to n_phi - L, and inverse-transforms each ring's row in
# place (np.fft.ifft with out=, numpy >= 2.0): the spectrum's array is the
# ring-major pixel map.  pocketfft's arithmetic per transform depends on
# neither the axis nor out=, so the map has the bits of an axis-0 transform
# of a [bin, ring] buffer and its transposed copy.  Every temporary is
# coefficient-sized, and a transform peaks at about two of them: the
# synthesis holds its coefficients and products, then its products and
# spectrum; the analysis its spectrum and products.  On a table that writes
# at least THREAD_TABLE_BYTES, in a process that may run on 2 or more CPUs
# and is not a pool worker, a helper thread runs every other chunk (see
# _run_chunks); each chunk still writes its own slice through the same
# product, so the bits are unchanged.  Below that size (j = 5 at B = 2) a
# helper's start and join would cost more than the products it shares.


def synthesize_on_grid(coeffs_full: np.ndarray, grid: CubatureGrid, s: int) -> np.ndarray:
    """Evaluate sum_{lm} c_{lm} Y_{lms} at every grid pixel (ring-major order).

    coeffs_full is indexed [l, m + L] over the full order range.  Reads the
    nonzero rows of the harmonic table once (see the note above).
    """
    L = coeffs_full.shape[0] - 1
    D, norms, signs, _ = _harmonic_tables(grid, s, L)
    A = np.multiply(coeffs_full.T[::-1], signs[:, None], order="C")  # [mu + L, l]
    A *= norms
    g_mu = np.empty((2 * L + 1, grid.n_theta), dtype=np.complex128)  # [mu + L, i]
    a, g = _pairs(A), _pairs(g_mu)
    _run_chunks(lambda orders, lo: np.matmul(
        D[orders, lo:].swapaxes(1, 2), a[orders, lo:], out=g[orders]),
        L, s, grid.n_theta)
    del A, a
    f = np.zeros((grid.n_theta, grid.n_phi), dtype=np.complex128)  # [i, bin]
    f[:, L::-1] = g_mu[:L + 1].T  # m = L..0 at bins L..0
    f[:, grid.n_phi - 1:grid.n_phi - L - 1:-1] = g_mu[L + 1:].T  # m = -1..-L
    del g_mu, g
    np.fft.ifft(f, axis=1, out=f)
    f *= grid.n_phi
    return f.ravel()


def analyze_on_grid(map_values: np.ndarray, grid: CubatureGrid, s: int, L: int,
                    ring_weights: np.ndarray | None = None) -> np.ndarray:
    """Quadrature transform a_{lm} = sum_k w_k f(xi_k) conj(Y_lms(xi_k)).

    Default weights are the cubature lambda; pass sqrt-lambda rings for the
    frame adjoint.  Returns the full-order array [l, m + L].  Reads the
    nonzero rows of the harmonic table once (see the note above
    synthesize_on_grid).
    """
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    w = grid.ring_weights if ring_weights is None else ring_weights
    f = map_values.reshape(grid.n_theta, grid.n_phi)
    Fm = np.ascontiguousarray(np.fft.fft(f, axis=1).T[bins])  # [mu + L, i]
    Fm *= w
    inner = np.zeros((2 * L + 1, L + 1), dtype=np.complex128)  # [mu + L, l]
    F, g = _pairs(Fm), _pairs(inner)
    _run_chunks(lambda orders, lo: np.matmul(
        D[orders, lo:], F[orders], out=g[orders, lo:]), L, s, grid.n_theta)
    del Fm, F
    inner *= signs[:, None]
    inner *= norms
    return inner.T[:, ::-1]


def _exact_support(grid: CubatureGrid, s: int) -> range:
    support = window_support(grid.window, grid.j, s)
    if len(support) and grid.band_limit < 2 * (support.stop - 1):
        raise BandLimitExceededError(
            f"level j={grid.j} needs exactness degree {2 * (support.stop - 1)}, "
            f"grid provides {grid.band_limit}")
    return support


def level_band(grid: CubatureGrid, s: int, L: int | None = None) -> int:
    """The top degree level j reads of a spin-s field band-limited at L
    (None: unbounded): min(L, support top), or |s| (no degree) when the
    support holds no degree <= L.  Refuses, before any transform, a grid not
    exact for the support (BandLimitExceededError) and a table at that
    degree over MAX_TABLE_BYTES (ResourceLimitError)."""
    support = _exact_support(grid, s)
    if L is not None:
        support = range(support.start, min(support.stop, L + 1))
    top = support.stop - 1 if len(support) else abs(s)
    _check_table_size(grid, s, top)
    return top


def _level_coefficients(full, grid: CubatureGrid, s: int, top: int,
                        masked: bool) -> NeedletCoefficients:
    """beta_{jk;s} = sqrt(lambda_k) sum_l b_l sum_m full_{lm} Y_lms(xi_k).

    `full` is a callable returning a full-order [l, m + L] array, L >= top,
    called only when the level reads a degree (top > |s|); the sum stops at
    top.  The synthesized map is ring-major, so it is scaled in place by
    each ring's sqrt(lambda); a level that reads no degree gets +0.0 values.
    """
    if top <= abs(s):
        values = np.zeros(grid.n_pixels, dtype=np.complex128)
        return NeedletCoefficients(s=s, values=values, masked=masked, grid=grid)
    full = full()
    L_in = full.shape[0] - 1
    b = band_profile(grid.window, grid.j, s, np.arange(top + 1))
    banded = full[:top + 1, L_in - top:L_in + top + 1] * b[:, None]
    rings = synthesize_on_grid(banded, grid, s).reshape(grid.n_theta, grid.n_phi)
    rings *= np.sqrt(grid.ring_weights)[:, None]
    return NeedletCoefficients(s=s, values=rings.ravel(), masked=masked, grid=grid)


def needlet_analyze(alm: SpinAlm, grid: CubatureGrid) -> NeedletCoefficients:
    """Spectral needlet coefficients of a band-limited field at the grid's level."""
    return _level_coefficients(alm.full_coeffs, grid, alm.s,
                               level_band(grid, alm.s, alm.L), masked=False)


def masked_analyze(map_values: np.ndarray, mask: SkyMask, s: int) -> NeedletCoefficients:
    """Masked coefficients beta*: quadrature over S^2 \\ G of a map on mask.grid.

    Computed for every pixel k; restricting to k outside the dilated region
    is the estimator's job.
    """
    grid = mask.grid
    top = level_band(grid, s)  # a gap-filled map has no band limit

    def pseudo():  # pseudo-coefficients of the gap-filled map
        gap_filled = np.where(mask.excluded, 0.0 + 0.0j, map_values)
        return analyze_on_grid(gap_filled, grid, s, top)

    return _level_coefficients(pseudo, grid, s, top, masked=True)


def needlet_kernel(grid: CubatureGrid, k: int, p: SphPoint, s: int) -> complex:
    """psi_{jk;s}(p) = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j) K^ls(p, xi_jk)."""
    support = _exact_support(grid, s)
    xi = grid.point(k)
    b = band_profile(grid.window, grid.j, s, np.asarray(support))
    total = kernel_sum(s, p, xi, support, b)
    lam = grid.ring_weights[k // grid.n_phi]
    return complex(math.sqrt(lam) * total)


def frame_band(grids, s: int, L: int) -> int:
    """The top degree a frame round trip over the levels of `grids` rebuilds
    of a spin-s field band-limited at L: the highest l <= L their sum of b^2
    covers (is 1 to 1e-14).  Refuses levels that cover no degree |s| < l <=
    L, or leave one below it uncovered (CoverageGapError).  Reads no table."""
    levels = sorted(grid.j for grid in grids)
    ells = np.arange(abs(s) + 1, L + 1)
    coverage = sum(band_profile(g.window, g.j, s, ells) ** 2 for g in grids)
    covered = coverage >= 1.0 - 1e-14
    if not covered.any():
        raise CoverageGapError(f"levels {levels} fully cover no degree {abs(s)} < l <= {L}")
    top = int(ells[covered][-1])
    gaps = ells[(ells < top) & ~covered].tolist()
    if gaps:
        raise CoverageGapError(f"levels {levels} leave coverage gaps at degrees {gaps}")
    return top


def needlet_synthesize(coeff_levels, L: int) -> SpinAlm:
    """Reconstruct the field up to degree L from coefficients at a family of levels.

    a_{l;ms} = sum_j b(sqrt(e_ls)/B^j) sum_k sqrt(lambda_jk) beta_{jk;s}
               conj(Y_lms(xi_jk)), valid by cubature exactness; level j reads
    up to level_band at L, its analysis' degree when L <= the field's.  l = |s|
    (e_ls = 0) is invisible to every level and comes back as zero.  Raises
    unless the levels cover every |s| < l <= L (frame_band gives such an L).
    """
    levels = list(coeff_levels)
    if not levels:
        raise ValueError("need at least one coefficient level")
    s, B = levels[0].s, levels[0].grid.B
    if any(c.s != s for c in levels):
        raise ValueError("levels mix spins")
    if any(c.grid.B != B for c in levels):
        raise ValueError("levels mix bandwidths B")
    if frame_band([c.grid for c in levels], s, L) < L:
        raise CoverageGapError(f"levels {sorted(c.grid.j for c in levels)} "
                               f"do not fully cover degree L={L}")

    acc = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for c in levels:
        L_j = level_band(c.grid, s, L)
        if L_j == abs(s):  # an empty support: the level reads no degree
            continue
        adj = analyze_on_grid(c.values, c.grid, s, L_j,
                              ring_weights=np.sqrt(c.grid.ring_weights))
        b = band_profile(c.grid.window, c.grid.j, s, np.arange(L_j + 1))
        acc[:L_j + 1, L - L_j:L + L_j + 1] += adj * b[:, None]
    return SpinAlm.from_full(s, acc)


def roundtrip_error(alm: SpinAlm, recon: SpinAlm) -> float:
    """max |a - a_hat| over E and B at the degrees a frame round trip covers,
    |s| < l <= min(L, L_hat) (l = |s| is invisible to every level); 0.0 when
    no degree is covered."""
    top, lo = min(recon.L, alm.L) + 1, abs(alm.s) + 1
    return max((float(np.max(np.abs(a[lo:top, :top] - r[lo:top, :top])))
                for a, r in ((recon.alm_e, alm.alm_e), (recon.alm_b, alm.alm_b))
                if lo < top), default=0.0)


def theoretical_cov(grid: CubatureGrid, model, k: int, k2: int, s: int) -> complex:
    """Cov(beta_{jk;s}, conj beta_{jk2;s}) implied by the model spectrum.

    sqrt(lambda_k lambda_k2) sum_l b^2(sqrt(e_ls)/B^j) C_l K^ls(xi_k, xi_k2);
    at k = k2 the addition theorem collapses K^ls to (2l+1)/4pi.
    """
    support = window_support(grid.window, grid.j, s)
    rings = grid.ring_weights
    lam_k, lam_k2 = rings[k // grid.n_phi], rings[k2 // grid.n_phi]
    if len(support) == 0:
        return 0.0 + 0.0j
    ells = np.asarray(support)
    b2 = band_profile(grid.window, grid.j, s, ells) ** 2
    cl = cl_profile(model, ells)
    if k == k2:
        return complex(lam_k * np.sum(b2 * cl * (2 * ells + 1)) / (4.0 * math.pi))
    total = kernel_sum(s, grid.point(k), grid.point(k2), support, b2 * cl)
    return complex(math.sqrt(lam_k * lam_k2) * total)


def theoretical_corr(grid: CubatureGrid, model, k: int, k2: int, s: int) -> complex:
    """Correlation form of theoretical_cov (1 at k = k2)."""
    var = theoretical_cov(grid, model, k, k, s).real
    var2 = theoretical_cov(grid, model, k2, k2, s).real
    if var <= 0.0 or var2 <= 0.0:
        return 0.0 + 0.0j
    return theoretical_cov(grid, model, k, k2, s) / math.sqrt(var * var2)


_SNBC_MAGIC = b"SNBC"
_SNBC_FIELDS = "<IIiIBd"  # version, j, spin, npix, masked, B


def write_coefficients(path, coeffs: NeedletCoefficients) -> None:
    """Binary SNBC v2: magic, u32 version, u32 j, i32 spin, u32 npix, u8 masked,
    float64 B, then float64 (re, im) per pixel (see encode_pairs)."""
    Path(path).write_bytes(
        _SNBC_MAGIC + struct.pack(_SNBC_FIELDS, 2, coeffs.grid.j, coeffs.s,
                                  coeffs.values.size, 1 if coeffs.masked else 0,
                                  coeffs.grid.B) + encode_pairs(coeffs.values))


def read_coefficients(path) -> NeedletCoefficients:
    """Read an SNBC v2 file on the grid its header names, level j at bandwidth
    B; errors name the file and the field."""
    (version, j, s, npix, masked, B), payload = read_header(
        Path(path).read_bytes(), _SNBC_MAGIC, _SNBC_FIELDS, "SNBC v2",
        InvalidCoefficientFileError, path)
    if version != 2:
        raise InvalidCoefficientFileError(
            f"{path}: version {version} is not 2; write the file again with "
            f"`spinlets transform` (SNBC v2 records the bandwidth B)")
    if masked not in (0, 1):
        raise InvalidCoefficientFileError(
            f"{path}: header field masked={masked} must be 0 or 1")
    grid = header_grid(j, B, npix, InvalidCoefficientFileError, path)
    if len(payload) != 16 * npix:
        raise InvalidCoefficientFileError(
            f"{path}: payload has {len(payload)} bytes, "
            f"npix={npix} needs {16 * npix}")
    return NeedletCoefficients(
        s=s, values=decode_pairs(payload, InvalidCoefficientFileError, path),
        masked=bool(masked), grid=grid)
