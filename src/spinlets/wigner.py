"""Wigner d-matrices, spin-weighted spherical harmonics and the degree-l kernel.

Conventions (fixed here, consumed everywhere else):

    Y_lms(theta, phi) = (-1)^m sqrt((2l+1)/4pi) exp(i m phi) d^l_{-m,s}(theta)

with d^l_{m,n} the standard Wigner small-d matrix, d^l_{m,n}(0) = delta_{mn},
d^1_{00}(beta) = cos(beta).  For s = 0 this reduces to the usual scalar
spherical harmonic with Condon-Shortley phase.

Every d-value comes from one engine, iter_d_slices: a single upward sweep
of the three-term recursion in degree l at fixed column n, vectorized over
the rows m and the colatitudes.  It is seeded at l = |n| with the closed-form
row d^{|n|}_{m,n}, and at each degree the two boundary rows |m| = l enter in
closed form (both evaluated in log space, so high degrees neither overflow
nor underflow).  Their factorials come from _lgamma, a transcription of the
cephes log-gamma behind scipy.special.gammaln that equals it on every
integer.  Columns at exactly 0 or pi take the exact Kronecker/parity forms.
Everything is a pure function; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, InvalidDegreeError


@dataclass(frozen=True)
class SphPoint:
    """Point on the unit sphere: colatitude theta in [0, pi], longitude phi.

    phi is normalized into [0, 2pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


def _check_indices(l, m, n):
    if l < 0:
        raise InvalidDegreeError(f"l={l} must be >= 0")
    if abs(m) > l or abs(n) > l:
        raise IndexOutOfRangeError(f"indices (m={m}, n={n}) out of range for l={l}")


# log sqrt(2 pi) and the 5-term Stirling series in 1/x^2 of cephes lgam
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)


def _lgamma(n: int) -> float:
    """log Gamma(n) = log (n-1)! for an integer n >= 1.

    The operations of cephes lgam, which scipy.special.gammaln calls, in its
    order: the log of the exact product below 13, the 5-term Stirling series
    below 1000, the 3-term series up to 1e8 and none beyond.  math.lgamma
    rounds differently on about half of the integers.
    """
    x = float(n)
    if x < 13.0:
        return math.log(math.prod(range(2, n)))
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
                    * p + 0.0833333333333333333333) / x
    series = _STIRLING[0]
    for coef in _STIRLING[1:]:
        series = series * p + coef
    return q + series / x


def _log_binom(a, b):
    return _lgamma(a + 1) - _lgamma(b + 1) - _lgamma(a - b + 1)


def wigner_d(l: int, m: int, n: int, beta: float) -> float:
    """Wigner small-d matrix element d^l_{m,n}(beta), beta in [0, pi]."""
    _check_indices(l, m, n)
    return float(wigner_d_slice(l, n, beta)[m + l])


def iter_d_slices(L: int, n: int, theta):
    """Yield (l, d) for l = |n| .. L, d of shape (2l+1, ntheta): d^l_{m,n}(theta).

    theta values lie in [0, pi].  One upward sweep of the degree recursion,
    vectorized over the row index m and over the colatitudes; no per-m
    restarts.  Columns at exactly 0 or pi, where the half-angle logarithms
    of the seeds diverge, take the exact forms d = delta_{mn} and
    (-1)^(l-n) delta_{m,-n}; the recursion runs on the other columns.  Each
    degree gets a fresh array of its own 2l+1 rows, so yielded slices stay
    valid after the sweep moves on.  Nothing is yielded when L < |n|.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size and not (theta.min() >= 0.0 and theta.max() <= math.pi):
        raise ValueError(f"theta outside [0, pi]: {theta.min()}..{theta.max()}")
    if L < abs(n):
        return
    north, south = theta == 0.0, theta == math.pi
    inside = ~(north | south)
    poles = not inside.all()

    def emit(l, d):
        if not poles:
            return d
        full = np.zeros((2 * l + 1, inside.size))
        full[:, inside] = d
        full[l + n, north] = 1.0
        full[l - n, south] = (-1.0) ** (l - n)
        return full

    if poles:
        theta = theta[inside]
    x = np.cos(theta)
    lc = np.log(np.cos(0.5 * theta))
    ls = np.log(np.sin(0.5 * theta))
    nth = theta.size
    l0 = abs(n)

    # seed row of the sweep: l = |n|, all |m| <= |n|
    if l0 > 0:
        mcol = np.arange(-l0, l0 + 1)
        if n >= 0:
            half = 0.5 * np.array([_log_binom(2 * l0, l0 + m) for m in mcol])
            logmag = (half[:, None]
                      + np.outer(l0 + mcol, lc) + np.outer(l0 - mcol, ls))
            sign = np.ones(mcol.size)
        else:
            half = 0.5 * np.array([_log_binom(2 * l0, l0 - m) for m in mcol])
            logmag = (half[:, None]
                      + np.outer(l0 - mcol, lc) + np.outer(l0 + mcol, ls))
            sign = np.where((mcol + l0) % 2 == 0, 1.0, -1.0)
        cur = sign[:, None] * np.exp(logmag)
    else:
        cur = np.ones((1, nth))
    prev = None
    # the c_prev * prev products of every degree reuse one buffer, so the
    # sweep allocates only the rows it yields
    scratch = np.empty((max(2 * L - 1, 0), nth))
    yield l0, emit(l0, cur)

    for l in range(l0, L):
        # rows |m| <= l of degree l+1 come from the recursion, the two rows
        # |m| = l+1 enter with their closed-form boundary values
        nxt = np.empty((2 * l + 3, nth))
        inner = nxt[1:-1]
        if l == 0:  # degenerate first step (m = n = 0): Legendre P1 = x
            np.multiply(x, cur[0], out=inner[0])
        else:
            m = np.arange(-l, l + 1)
            c_next = l * np.sqrt(((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - n * n))
            # inner = c_cur * cur, c_cur = (2l+1) (l(l+1) x - m n), in place
            np.subtract(l * (l + 1) * x[None, :], (m * n)[:, None], out=inner)
            inner *= 2 * l + 1
            inner *= cur
            if prev is not None:  # prev holds rows |m| <= l-1; c_prev is 0 beyond
                c_prev = (l + 1) * np.sqrt(
                    np.maximum((l * l - m * m) * (l * l - n * n), 0))
                inner[1:-1] -= np.multiply(c_prev[1:-1, None], prev,
                                           out=scratch[:2 * l - 1])
            inner /= c_next[:, None]
        logc = 0.5 * _log_binom(2 * (l + 1), l + 1 + n)
        nxt[-1] = (-1.0) ** (l + 1 - n) * np.exp(
            logc + (l + 1 + n) * lc + (l + 1 - n) * ls)
        logc = 0.5 * _log_binom(2 * (l + 1), l + 1 - n)
        nxt[0] = np.exp(logc + (l + 1 - n) * lc + (l + 1 + n) * ls)
        prev, cur = cur, nxt
        yield l + 1, emit(l + 1, cur)


def wigner_d_slice(l: int, n: int, beta: float) -> np.ndarray:
    """All d^l_{m,n}(beta) for m = -l..l, indexed m + l, in one recursion sweep."""
    _check_indices(l, 0, n)
    for _, d in iter_d_slices(l, n, beta):
        pass  # the sweep ends at degree l
    return d[:, 0].copy()


def d_table(L: int, n: int, theta) -> np.ndarray:
    """Order-major table t[mu + L, l, i] = d^l_{mu,n}(theta_i) for l = 0..L.

    Each order's (L+1, ntheta) block is contiguous, the layout the grid
    transforms of spinlets.transform read.  Entries with l < |n| or
    l < |mu| are zero.  The degree recursion writes straight into the table.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    table = np.zeros((2 * L + 1, L + 1, theta.size))
    for l, d in iter_d_slices(L, n, theta):
        table[L - l:L + l + 1, l, :] = d
    return table


def spin_sph_harm(l: int, m: int, s: int, p: SphPoint) -> complex:
    """Spin-s spherical harmonic Y_lms at p (scalar Y_lm when s = 0)."""
    if l < abs(s):
        raise InvalidDegreeError(f"l={l} < |s|={abs(s)}")
    _check_indices(l, m, s)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi))
    d = wigner_d(l, -m, s, p.theta)
    return (-1.0) ** m * norm * complex(math.cos(m * p.phi),
                                        math.sin(m * p.phi)) * d


def kernel_K(l: int, s: int, p: SphPoint, q: SphPoint) -> complex:
    """Reproducing kernel K^ls(p, q) = sum_m Y_lms(p) conj(Y_lms(q)).

    Direct summation over m; at p = q this is (2l+1)/4pi by the addition
    theorem.
    """
    return kernel_sum(s, p, q, [l], [1.0])


def kernel_sum(s: int, p: SphPoint, q: SphPoint, degrees, weights) -> complex:
    """sum_l w_l K^ls(p, q) over ascending degrees l >= |s|; w_l = 0 is skipped.

    One recursion sweep over the colatitudes of p and q serves every degree:
    O(L^2) instead of the O(L^3) of a fresh sweep per degree.
    """
    terms = {int(l): w for l, w in zip(degrees, weights) if w != 0.0}
    total = 0.0 + 0.0j
    if not terms:
        return total
    if min(terms) < abs(s):
        raise InvalidDegreeError(f"l={min(terms)} < |s|={abs(s)}")
    dphi = p.phi - q.phi
    thetas = [p.theta] if q.theta == p.theta else [p.theta, q.theta]
    for l, d in iter_d_slices(max(terms), s, thetas):
        if l in terms:
            # (-1)^m phases cancel between Y(p) and conj(Y(q)); mu = -m
            # reindexes the rows of d^l_{., s}
            phase = np.exp(1j * np.arange(-l, l + 1) * dphi)
            norm = (2 * l + 1) / (4.0 * math.pi)
            total += terms[l] * complex(
                norm * np.sum(phase * d[::-1, 0] * d[::-1, -1]))
    return total
