"""Needlet window function b(.), bandwidth B, and spin eigenvalues e_ls.

The window follows the standard three-step recipe: the C-infinity bump
f(t) = exp(-1/(1-t^2)) on (-1,1), its normalized antiderivative psi, and the
plateau difference b^2(x) = phi(x/B) - phi(x) with

    phi(t) = 1                                   t <= 1/B
           = psi(1 - 2B/(B-1) * (t - 1/B))       1/B < t < 1
           = 0                                   t >= 1

so that b is supported on [1/B, B] and sum_j b^2(x / B^j) = 1 for x >= 1
exactly by telescoping.  psi is tabulated once on 4096 nodes (panelwise
Gauss-Legendre quadrature, error far below 1e-12) and evaluated by monotone
cubic (PCHIP) interpolation, _Pchip, a numpy transcription of the arithmetic
of scipy.interpolate.PchipInterpolator whose values equal scipy's bit for bit.

The spin eigenvalues are e_ls = (l - s)(l + s + 1) = l(l+1) - s(s+1); the
window argument at level j is sqrt(e_ls) / B^j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidthError, InvalidDegreeError

_PSI_NODES = 4096


def _bump(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


@functools.cache
def _psi_interpolator():
    """Normalized antiderivative of the bump, tabulated once."""
    return _Pchip(*_psi_nodes())


def _psi_nodes():
    """(nodes, psi at the nodes) of the tabulation."""
    nodes = np.linspace(-1.0, 1.0, _PSI_NODES)
    # 16-point Gauss-Legendre on each panel; the integrand is analytic inside
    # the support, so the panel error is at machine level.
    gx, gw = np.polynomial.legendre.leggauss(16)
    a, b = nodes[:-1], nodes[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    panel = half * (_bump(pts) @ gw)
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    cumulative /= cumulative[-1]
    np.clip(cumulative, 0.0, 1.0, out=cumulative)
    return nodes, cumulative


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of y at nodes x (PCHIP).

    The rule and the operation order are those of scipy's PchipInterpolator
    (Fritsch & Butland 1984): an interior node's slope is the weighted
    harmonic mean of its two secants, or 0 where they differ in sign or one
    is 0; an end slope is the one-sided three-point estimate, set to 0 when
    its sign differs from the end secant's and to 3 times the secant when the
    secants change sign and it exceeds that.  c[:, i] holds the Hermite cubic
    of interval i in powers of u - x_i, highest first, and a call sums it from
    the constant term up; points past either end extrapolate the end interval.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])],
                                np.where(flat, 0.0, 1.0 / whmean),
                                [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        i = np.clip(np.searchsorted(self.x, u, side="right") - 1,
                    0, self.x.size - 2)
        v = u - self.x[i]
        c = self.c[:, i]
        return c[3] + c[2] * v + c[1] * (v * v) + c[0] * (v * v * v)


def _pchip_end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class NeedletWindow:
    """Compactly supported needlet window on [1/B, B].

    Windows are equal, and hash alike, iff their B are, so what is cached per
    window (_level, estimators._band_power) is shared by equal windows.
    """

    B: float

    def _phi(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        out[t <= 1.0 / self.B] = 1.0
        mid = (t > 1.0 / self.B) & (t < 1.0)
        if np.any(mid):
            u = 1.0 - 2.0 * self.B / (self.B - 1.0) * (t[mid] - 1.0 / self.B)
            out[mid] = np.clip(_psi_interpolator()(u), 0.0, 1.0)
        return out

    def b_squared(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        inside = (x > 1.0 / self.B) & (x < self.B)
        if np.any(inside):
            xi = x[inside]
            out[inside] = np.maximum(self._phi(xi / self.B) - self._phi(xi), 0.0)
        return float(out[0]) if scalar else out

    def b(self, x):
        return np.sqrt(self.b_squared(x))


def check_bandwidth(B: float) -> float:
    """B, if 1 < B < inf (the rule of every grid, window, plan and header)."""
    if not 1.0 < B < math.inf:
        raise InvalidBandwidthError(f"bandwidth B={B} must be > 1 and finite")
    return B


def build_window(B: float) -> NeedletWindow:
    """Construct the needlet window for bandwidth B (see check_bandwidth)."""
    return NeedletWindow(B=float(check_bandwidth(B)))


def eval_e_ls(l: int, s: int) -> int:
    """Spin-s eigenvalue e_ls = (l - s)(l + s + 1); l(l+1) for s = 0."""
    if l < abs(s):
        raise InvalidDegreeError(f"l={l} < |s|={abs(s)}")
    return (l - s) * (l + s + 1)


def window_support(window: NeedletWindow, j: int, s: int) -> range:
    """Degrees l >= |s| with 1/B < sqrt(e_ls)/B^j < B and b numerically > 0.

    The analytic support is trimmed of edge degrees whose window value falls
    below double-precision resolution of the plateau (b there is ~e^-200);
    every downstream sum weights by b, so those degrees contribute exactly 0.
    Computed once per (window, j, s) in a process (see _level).
    """
    if j < 0:
        raise ValueError("level j must be >= 0")
    return _level(window, j, s)[0]


@functools.cache
def _level(window: NeedletWindow, j: int, s: int) -> tuple:
    """(support, b(sqrt(e_ls)/B^j) over the support), cached per (window, j, s).

    b is evaluated once over the analytic support t_lo < l(l+1) < t_hi,
    with t_lo = B^(2(j-1)) + s(s+1) and t_hi = B^(2(j+1)) + s(s+1), and the
    edge degrees where it is exactly 0 are trimmed.  An empty support starts
    one past the top of the analytic one.
    """
    j, s = int(j), int(s)
    B, ss = window.B, s * (s + 1)
    t_lo, t_hi = B ** (2 * (j - 1)) + ss, B ** (2 * (j + 1)) + ss
    ells = np.arange(abs(s), int(math.sqrt(t_hi)) + 2, dtype=np.int64)
    lo = abs(s) + int(np.count_nonzero(ells * (ells + 1) <= t_lo))
    hi = abs(s) + int(np.count_nonzero(ells * (ells + 1) < t_hi))
    ells = ells[lo - abs(s):hi - abs(s)]
    e = (ells - s) * (ells + s + 1)  # > 0 on the analytic support
    profile = window.b(np.sqrt(e.astype(np.float64)) / B ** j)
    nz = np.flatnonzero(profile)
    first, stop = (lo + int(nz[0]), lo + int(nz[-1]) + 1) if nz.size \
        else (hi, hi)
    return range(first, stop), profile[first - lo:stop - lo]


def band_profile(window: NeedletWindow, j: int, s: int, ells) -> np.ndarray:
    """b(sqrt(e_ls)/B^j) for an array of degrees (0 outside the support).

    Reads the window's per-(j, s) profile; degrees below |s| or outside
    window_support are exactly 0, as b is there.
    """
    ells = np.asarray(ells, dtype=np.int64)
    support, profile = _level(window, j, s)
    vals = np.zeros(ells.shape, dtype=np.float64)
    inside = (ells >= support.start) & (ells < support.stop)
    vals[inside] = profile[ells[inside] - support.start]
    return vals

