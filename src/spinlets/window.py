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
cubic (PCHIP) interpolation.

The spin eigenvalues are e_ls = (l - s)(l + s + 1) = l(l+1) - s(s+1); the
window argument at level j is sqrt(e_ls) / B^j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InvalidBandwidthError, InvalidDegreeError

_PSI_NODES = 4096


def _bump(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


@functools.lru_cache(maxsize=1)
def _psi_interpolator():
    """Normalized antiderivative of the bump, tabulated once."""
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
    return PchipInterpolator(nodes, cumulative)


@dataclass(frozen=True)
class NeedletWindow:
    """Compactly supported needlet window on [1/B, B]."""

    B: float
    # (j, s) -> (support range, b over the support); filled by _level.  Both
    # depend only on (B, j, s), so a window owns them for its lifetime.
    _levels: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

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


def build_window(B: float) -> NeedletWindow:
    """Construct the needlet window for bandwidth B > 1."""
    if not B > 1.0:
        raise InvalidBandwidthError(f"bandwidth B={B} must be > 1")
    return NeedletWindow(B=float(B))


def eval_b(window: NeedletWindow, x) -> float | np.ndarray:
    """Window value b(x); exactly 0 outside (1/B, B)."""
    return window.b(x)


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
    Computed once per (j, s) and kept by the window.
    """
    if j < 0:
        raise ValueError("level j must be >= 0")
    return _level(window, j, s)[0]


def _level(window: NeedletWindow, j: int, s: int) -> tuple:
    """(support, b(sqrt(e_ls)/B^j) over the support), memoized on the window."""
    j, s = int(j), int(s)
    level = window._levels.get((j, s))
    if level is None:
        support = _support(window, j, s)
        ells = np.arange(support.start, support.stop, dtype=np.int64)
        e = (ells - s) * (ells + s + 1)  # > 0 on the support
        profile = window.b(np.sqrt(e.astype(np.float64)) / window.B ** j)
        level = window._levels[(j, s)] = (support, profile)
    return level


def _support(window: NeedletWindow, j: int, s: int) -> range:
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

