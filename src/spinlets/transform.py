"""Needlet analysis and synthesis, needlet kernels, coefficient covariances.

Spectral-domain analysis (no numerical integration):

    beta_{jk;s} = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j)
                  sum_m a_{l;ms} Y_{lms}(xi_jk)

Masked analysis realizes the integral over S^2 \\ G with the grid's own
quadrature: dropping the excluded pixels from the sum, forming the
pseudo-coefficients of the gap-filled map, and evaluating the same spectral
expression.  Exchanging the two finite sums makes the two forms identical,
so the code runs in O(N L^2) instead of O(N^2 L).

All per-grid harmonic tables are cached on (level, bandwidth, spin, degree)
keys; grids are deterministic functions of (j, B), so the cache is safe.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BandLimitExceededError, CoverageGapError,
                     InvalidCoefficientFileError)
from .fields import SpinAlm, cl_profile
from .grid import CubatureGrid, SkyMask, build_cubature
from .wigner import SphPoint, d_table, kernel_sum
from .window import NeedletWindow, band_profile, window_support


@dataclass(eq=False)
class NeedletCoefficients:
    """Complex beta_{jk;s} (or masked beta*_{jk;s}) for one level j."""

    j: int
    s: int
    values: np.ndarray  # complex, one per grid pixel
    masked: bool
    grid: CubatureGrid
    window: NeedletWindow

    def __post_init__(self):
        if self.values.shape != (self.grid.n_pixels,):
            raise ValueError("coefficient array length != grid pixel count")


@functools.lru_cache(maxsize=3)
def _harmonic_tables(j: int, B: float, s: int, L: int):
    """Per-(grid, spin, degree) tables for the factorized grid transforms.

    Returns (D, norms, signs, bins) with D the order-major d_table of the
    level-j rings, D[mu + L, l, i] = d^l_{mu,s}(theta_i), norms[l] =
    sqrt((2l+1)/4pi), signs[mu + L] = (-1)^mu and bins[mu + L] the FFT bin of
    order m = -mu (Y_lms carries d^l_{-m,s}).  The transforms read each
    contiguous (L+1, n_theta) block D[mu + L] in place; only their small
    coefficient arrays are reversed between m and mu.
    """
    grid = build_cubature(j, B)
    D = d_table(L, s, grid.theta)
    ells = np.arange(L + 1)
    norms = np.sqrt((2 * ells + 1) / (4.0 * math.pi))
    mu = np.arange(-L, L + 1)
    signs = np.where(mu % 2 == 0, 1.0, -1.0)
    bins = np.mod(-mu, grid.n_phi)
    return D, norms, signs, bins


def _check_phi_resolution(grid: CubatureGrid, L: int):
    if grid.n_phi < 2 * L + 1:
        raise BandLimitExceededError(
            f"grid at level {grid.j} resolves orders |m| <= {(grid.n_phi - 1) // 2},"
            f" need {L}")


def synthesize_on_grid(coeffs_full: np.ndarray, grid: CubatureGrid, s: int) -> np.ndarray:
    """Evaluate sum_{lm} c_{lm} Y_{lms} at every grid pixel (ring-major order).

    coeffs_full is indexed [l, m + L] over the full order range.
    """
    L = coeffs_full.shape[0] - 1
    _check_phi_resolution(grid, L)
    D, norms, signs, bins = _harmonic_tables(grid.j, grid.B, s, L)
    A = coeffs_full.T[::-1] * signs[:, None] * norms[None, :]  # [mu + L, l]
    g_re = np.matmul(A.real[:, None, :], D)[:, 0, :]
    g_im = np.matmul(A.imag[:, None, :], D)[:, 0, :]
    buf = np.zeros((grid.n_phi, grid.n_theta), dtype=np.complex128)
    buf[bins] = g_re + 1j * g_im
    f = np.fft.ifft(buf, axis=0) * grid.n_phi
    return np.ascontiguousarray(f.T).ravel()


def analyze_on_grid(map_values: np.ndarray, grid: CubatureGrid, s: int, L: int,
                    ring_weights: np.ndarray | None = None) -> np.ndarray:
    """Quadrature transform a_{lm} = sum_k w_k f(xi_k) conj(Y_lms(xi_k)).

    Default weights are the cubature lambda; pass sqrt-lambda rings for the
    frame adjoint.  Returns the full-order array [l, m + L].
    """
    _check_phi_resolution(grid, L)
    D, norms, signs, bins = _harmonic_tables(grid.j, grid.B, s, L)
    w = grid.ring_weights if ring_weights is None else ring_weights
    f = map_values.reshape(grid.n_theta, grid.n_phi)
    F = np.fft.fft(f, axis=1)
    Fm = F[:, bins].T * w[None, :]  # [mu + L, i]
    inner_re = np.matmul(D, Fm.real[:, :, None])[:, :, 0]
    inner_im = np.matmul(D, Fm.imag[:, :, None])[:, :, 0]
    inner = inner_re + 1j * inner_im
    return (inner * signs[:, None] * norms[None, :]).T[:, ::-1]


def _support_or_raise(window: NeedletWindow, grid: CubatureGrid, j: int, s: int) -> range:
    support = window_support(window, j, s)
    if len(support) and grid.band_limit < 2 * (support.stop - 1):
        raise BandLimitExceededError(
            f"level j={j} needs exactness degree {2 * (support.stop - 1)}, "
            f"grid provides {grid.band_limit}")
    return support


def _banded_coeffs(full: np.ndarray, window: NeedletWindow, j: int, s: int,
                   support: range) -> np.ndarray:
    """b-weighted full-order coefficients, truncated to the window support."""
    L_in = full.shape[0] - 1
    L_out = support.stop - 1
    ells = np.arange(L_out + 1)
    b = band_profile(window, j, s, ells)
    out = np.zeros((L_out + 1, 2 * L_out + 1), dtype=np.complex128)
    L_use = min(L_in, L_out)
    out[:L_use + 1, L_out - L_use:L_out + L_use + 1] = full[:L_use + 1,
                                                            L_in - L_use:L_in + L_use + 1]
    return out * b[:, None]


def needlet_analyze(alm: SpinAlm, window: NeedletWindow, grid: CubatureGrid,
                    j: int) -> NeedletCoefficients:
    """Spectral needlet coefficients of a band-limited field at level j.

    Degrees of the window support above the field's band limit carry no
    power by definition of the input and contribute zero.
    """
    s = alm.s
    support = _support_or_raise(window, grid, j, s)
    if len(support) == 0:
        values = np.zeros(grid.n_pixels, dtype=np.complex128)
        return NeedletCoefficients(j=j, s=s, values=values, masked=False,
                                   grid=grid, window=window)
    banded = _banded_coeffs(alm.full_coeffs(), window, j, s, support)
    values = synthesize_on_grid(banded, grid, s) * np.sqrt(grid.weights)
    return NeedletCoefficients(j=j, s=s, values=values, masked=False,
                               grid=grid, window=window)


def masked_analyze(map_values: np.ndarray, mask: SkyMask, window: NeedletWindow,
                   grid: CubatureGrid, j: int, s: int) -> NeedletCoefficients:
    """Masked coefficients beta*: quadrature over S^2 \\ G of a gridded map.

    Computed for every pixel k; restricting to k outside the dilated region
    is the estimator's job.
    """
    if mask.grid is not grid and mask.grid.fingerprint != grid.fingerprint:
        raise ValueError("mask and coefficients must share the grid")
    support = _support_or_raise(window, grid, j, s)
    if len(support) == 0:
        values = np.zeros(grid.n_pixels, dtype=np.complex128)
        return NeedletCoefficients(j=j, s=s, values=values, masked=True,
                                   grid=grid, window=window)
    gap_filled = np.where(mask.excluded, 0.0 + 0.0j, map_values)
    L_sup = support.stop - 1
    pseudo = analyze_on_grid(gap_filled, grid, s, L_sup)
    banded = _banded_coeffs(pseudo, window, j, s, support)
    values = synthesize_on_grid(banded, grid, s) * np.sqrt(grid.weights)
    return NeedletCoefficients(j=j, s=s, values=values, masked=True,
                               grid=grid, window=window)


def needlet_kernel(window: NeedletWindow, grid: CubatureGrid, j: int, k: int,
                   p: SphPoint, s: int) -> complex:
    """psi_{jk;s}(p) = sqrt(lambda_jk) sum_l b(sqrt(e_ls)/B^j) K^ls(p, xi_jk)."""
    support = _support_or_raise(window, grid, j, s)
    xi = grid.point(k)
    b = band_profile(window, j, s, np.asarray(support))
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
    s = levels[0].s
    window = levels[0].window
    if any(c.s != s for c in levels):
        raise ValueError("levels mix spins")

    l_cap = max((window_support(window, c.j, s).stop - 1 for c in levels),
                default=0)
    l_cap = max(l_cap, abs(s))
    ells = np.arange(l_cap + 1)
    coverage = np.zeros(l_cap + 1)
    for c in levels:
        coverage += band_profile(window, c.j, s, ells) ** 2
    if L is None:
        covered = np.flatnonzero(coverage >= 1.0 - 1e-6)
        L = int(covered.max()) if covered.size else abs(s)
    gaps = [int(l) for l in range(abs(s) + 1, L + 1)
            if l > l_cap or coverage[l] < 1.0 - 1e-6]
    if gaps:
        raise CoverageGapError(
            f"levels {sorted(c.j for c in levels)} leave coverage gaps at degrees {gaps}")

    acc = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for c in levels:
        support = window_support(window, c.j, s)
        if len(support) == 0:
            continue
        L_j = min(support.stop - 1, L)
        if L_j < abs(s):
            continue
        adj = analyze_on_grid(c.values, c.grid, s, L_j,
                              ring_weights=np.sqrt(c.grid.ring_weights))
        b = band_profile(window, c.j, s, np.arange(L_j + 1))
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


def theoretical_cov(window: NeedletWindow, grid: CubatureGrid, model,
                    j: int, k: int, k2: int, s: int) -> complex:
    """Cov(beta_{jk;s}, conj beta_{jk2;s}) implied by the model spectrum.

    sqrt(lambda_k lambda_k2) sum_l b^2(sqrt(e_ls)/B^j) C_l K^ls(xi_k, xi_k2);
    at k = k2 the addition theorem collapses K^ls to (2l+1)/4pi.
    """
    support = window_support(window, j, s)
    lam_k, lam_k2 = grid.weights[k], grid.weights[k2]
    if len(support) == 0:
        return 0.0 + 0.0j
    ells = np.asarray(support)
    b2 = band_profile(window, j, s, ells) ** 2
    cl = cl_profile(model, ells)
    if k == k2:
        return complex(lam_k * np.sum(b2 * cl * (2 * ells + 1)) / (4.0 * math.pi))
    total = kernel_sum(s, grid.point(k), grid.point(k2), support, b2 * cl)
    return complex(math.sqrt(lam_k * lam_k2) * total)


def theoretical_corr(window: NeedletWindow, grid: CubatureGrid, model,
                     j: int, k: int, k2: int, s: int) -> complex:
    """Correlation form of theoretical_cov (1 at k = k2)."""
    var = theoretical_cov(window, grid, model, j, k, k, s).real
    var2 = theoretical_cov(window, grid, model, j, k2, k2, s).real
    if var <= 0.0 or var2 <= 0.0:
        return 0.0 + 0.0j
    return theoretical_cov(window, grid, model, j, k, k2, s) / math.sqrt(var * var2)


_SNBC_MAGIC = b"SNBC"
_SNBC_HEADER = 21  # magic + struct "<IIiIB"


def write_coefficients(path, coeffs: NeedletCoefficients) -> None:
    """Binary SNBC v1: magic, u32 version, u32 j, i32 spin, u32 npix, u8 masked,
    float64 (re, im) per pixel, little-endian."""
    with open(path, "wb") as fh:
        fh.write(_SNBC_MAGIC)
        fh.write(struct.pack("<IIiIB", 1, coeffs.j, coeffs.s,
                             coeffs.values.size, 1 if coeffs.masked else 0))
        flat = np.empty(2 * coeffs.values.size, dtype="<f8")
        flat[0::2], flat[1::2] = coeffs.values.real, coeffs.values.imag
        fh.write(flat.tobytes())


def _snbc_header(path, raw: bytes) -> tuple:
    """(j, spin, npix, masked) of an SNBC file whose first bytes are raw."""
    if len(raw) < _SNBC_HEADER:
        raise InvalidCoefficientFileError(
            f"{path}: header has {len(raw)} bytes, SNBC v1 needs {_SNBC_HEADER}")
    if raw[:4] != _SNBC_MAGIC:
        raise InvalidCoefficientFileError(
            f"{path}: magic {raw[:4]!r} is not {_SNBC_MAGIC!r}")
    version, j, s, npix, masked = struct.unpack("<IIiIB", raw[4:_SNBC_HEADER])
    if version != 1:
        raise InvalidCoefficientFileError(f"{path}: version {version} is not 1")
    return j, s, npix, bool(masked)


def peek_coefficients(path) -> tuple:
    """Header of an SNBC file: (j, spin, npix, masked) without the payload."""
    with open(path, "rb") as fh:
        return _snbc_header(path, fh.read(_SNBC_HEADER))


def read_coefficients(path, grid: CubatureGrid, window: NeedletWindow) -> NeedletCoefficients:
    """Read an SNBC v1 file on `grid`; errors name the file and the field."""
    raw = Path(path).read_bytes()
    j, s, npix, masked = _snbc_header(path, raw)
    if (j, npix) != (grid.j, grid.n_pixels):
        raise InvalidCoefficientFileError(
            f"{path}: header j={j}, npix={npix} does not match the grid "
            f"(j={grid.j}, npix={grid.n_pixels})")
    if len(raw) - _SNBC_HEADER != 16 * npix:
        raise InvalidCoefficientFileError(
            f"{path}: payload has {len(raw) - _SNBC_HEADER} bytes, "
            f"npix={npix} needs {16 * npix}")
    data = np.frombuffer(raw[_SNBC_HEADER:], dtype="<f8")
    values = data[0::2] + 1j * data[1::2]
    return NeedletCoefficients(j=j, s=s, values=values, masked=masked,
                               grid=grid, window=window)
