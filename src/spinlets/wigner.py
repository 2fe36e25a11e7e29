"""Wigner d-matrices, spin-weighted spherical harmonics and the degree-l kernel.

Conventions (fixed here, consumed everywhere else):

    Y_lms(theta, phi) = (-1)^m sqrt((2l+1)/4pi) exp(i m phi) d^l_{-m,s}(theta)

with d^l_{m,n} the standard Wigner small-d matrix, d^l_{m,n}(0) = delta_{mn},
d^1_{00}(beta) = cos(beta).  For s = 0 this reduces to the usual scalar
spherical harmonic with Condon-Shortley phase.

d-values are computed by a three-term recursion in degree l at fixed (m, n),
seeded at l = max(|m|, |n|) with the closed-form boundary element (evaluated
in log space so high degrees neither overflow nor underflow).  Everything is
a pure function; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi),
                         math.cos(self.theta)])


@dataclass(frozen=True)
class WignerDSlice:
    """All rows d^l_{m,n}(beta), m = -l..l, at fixed degree l and column n."""

    l: int
    n: int
    beta: float
    values: np.ndarray  # shape (2l+1,), index m + l

    def value(self, m: int) -> float:
        if abs(m) > self.l:
            raise IndexOutOfRangeError(f"|m|={abs(m)} > l={self.l}")
        return float(self.values[m + self.l])


def _check_indices(l, m, n):
    if l < 0:
        raise InvalidDegreeError(f"l={l} must be >= 0")
    if abs(m) > l or abs(n) > l:
        raise IndexOutOfRangeError(f"indices (m={m}, n={n}) out of range for l={l}")


def _endpoint_d(l, m, n, beta):
    # beta = 0 and beta = pi are exact Kronecker/parity cases; the recursion
    # coefficients would hit 0/0 there.
    if beta == 0.0:
        return 1.0 if m == n else 0.0
    return (-1.0) ** (l - n) if m == -n else 0.0


def _log_half_angle(beta):
    # log cos(beta/2), log sin(beta/2) for beta strictly inside (0, pi)
    return math.log(math.cos(0.5 * beta)), math.log(math.sin(0.5 * beta))


def _log_binom(a, b):
    return float(gammaln(a + 1) - gammaln(b + 1) - gammaln(a - b + 1))


def _column_seed(n, m_arr, lc, ls):
    """d^{|n|}_{m,n} for all |m| <= |n|, the first row of the l-recursion."""
    l0 = abs(n)
    m = np.asarray(m_arr, dtype=np.int64)
    if n >= 0:
        logmag = 0.5 * (gammaln(2 * l0 + 1) - gammaln(l0 + m + 1)
                        - gammaln(l0 - m + 1)) + (l0 + m) * lc + (l0 - m) * ls
        sign = np.ones_like(m, dtype=np.float64)
    else:
        logmag = 0.5 * (gammaln(2 * l0 + 1) - gammaln(l0 - m + 1)
                        - gammaln(l0 + m + 1)) + (l0 - m) * lc + (l0 + m) * ls
        sign = np.where((m + l0) % 2 == 0, 1.0, -1.0)
    return sign * np.exp(logmag)


def _row_seeds(l, n, lc, ls):
    """d^l_{+l,n} and d^l_{-l,n}: elements entering the recursion at degree l."""
    top = (-1.0) ** (l - n) * math.exp(
        0.5 * _log_binom(2 * l, l + n) + (l + n) * lc + (l - n) * ls)
    bot = math.exp(0.5 * _log_binom(2 * l, l - n) + (l - n) * lc + (l + n) * ls)
    return top, bot


def wigner_d(l: int, m: int, n: int, beta: float) -> float:
    """Wigner small-d matrix element d^l_{m,n}(beta), beta in [0, pi]."""
    _check_indices(l, m, n)
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta={beta} outside [0, pi]")
    if beta == 0.0 or beta == math.pi:
        return _endpoint_d(l, m, n, beta)

    lc, ls = _log_half_angle(beta)
    l0 = max(abs(m), abs(n))
    if abs(n) >= abs(m):
        d_cur = float(_column_seed(n, np.array([m]), lc, ls)[0])
    else:
        top, bot = _row_seeds(l0, n, lc, ls)
        d_cur = top if m > 0 else bot
    if l == l0:
        return d_cur

    x = math.cos(beta)
    d_prev = 0.0
    for k in range(l0, l):
        if k == 0:  # only reachable for m = n = 0: Legendre step P1 = x
            d_prev, d_cur = d_cur, x * d_cur
            continue
        c_next = k * math.sqrt(((k + 1) ** 2 - m * m) * ((k + 1) ** 2 - n * n))
        c_cur = (2 * k + 1) * (k * (k + 1) * x - m * n)
        c_prev = (k + 1) * math.sqrt((k * k - m * m) * (k * k - n * n))
        d_prev, d_cur = d_cur, (c_cur * d_cur - c_prev * d_prev) / c_next
    return d_cur


def iter_d_slices(L: int, n: int, theta):
    """Yield (l, d) for l = |n| .. L, d of shape (2l+1, ntheta): d^l_{m,n}(theta).

    One upward sweep of the degree recursion, vectorized over the row index m
    and over the colatitudes; no per-m restarts.  Each degree gets a fresh
    array of its own 2l+1 rows, so yielded slices stay valid after the sweep
    moves on.  theta values must lie strictly inside (0, pi) (endpoints are
    handled by callers via the exact Kronecker/parity forms).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size and (theta.min() <= 0.0 or theta.max() >= math.pi):
        raise ValueError("iter_d_slices needs theta strictly inside (0, pi)")
    x = np.cos(theta)
    lc = np.log(np.cos(0.5 * theta))
    ls = np.log(np.sin(0.5 * theta))
    nth = theta.size
    l0 = abs(n)

    # seed row of the sweep: l = |n|, all |m| <= |n|
    if l0 > 0:
        mcol = np.arange(-l0, l0 + 1)
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
        cur = sign[:, None] * np.exp(logmag)
    else:
        cur = np.ones((1, nth))
    prev = None
    # the c_prev * prev products of every degree reuse one buffer, so the
    # sweep allocates only the rows it yields
    scratch = np.empty((max(2 * L - 1, 0), nth))
    yield l0, cur

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
        yield l + 1, cur


def _point_slices(L: int, n: int, beta: float):
    """Yield (l, d^l_{m,n}(beta) for m = -l..l) for l = |n| .. L at one colatitude.

    One recursion sweep; beta = 0 and beta = pi take the exact
    Kronecker/parity forms.
    """
    if beta == 0.0 or beta == math.pi:
        for l in range(abs(n), L + 1):
            yield l, np.array([_endpoint_d(l, m, n, beta) for m in range(-l, l + 1)])
        return
    for l, d in iter_d_slices(L, n, np.array([beta])):
        yield l, d[:, 0]


def wigner_d_slice(l: int, n: int, beta: float) -> WignerDSlice:
    """All d^l_{m,n}(beta) for m = -l..l in a single recursion sweep."""
    _check_indices(l, 0, n)
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta={beta} outside [0, pi]")
    for ll, d in _point_slices(l, n, beta):
        if ll == l:
            return WignerDSlice(l=l, n=n, beta=beta, values=d.copy())
    raise AssertionError("unreachable")


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
    if l < abs(s):
        raise InvalidDegreeError(f"l={l} < |s|={abs(s)}")
    dp = wigner_d_slice(l, s, p.theta).values
    dq = wigner_d_slice(l, s, q.theta).values
    return _kernel_from_slices(l, dp, dq, p.phi - q.phi)


def _kernel_from_slices(l, dp, dq, dphi) -> complex:
    m = np.arange(-l, l + 1)
    # (-1)^m phases cancel between Y(p) and conj(Y(q)); mu = -m reindexes the
    # slice arrays, which run over the row index of d^l_{., s}.
    phase = np.exp(1j * m * dphi)
    norm = (2 * l + 1) / (4.0 * math.pi)
    return complex(norm * np.sum(phase * dp[::-1] * dq[::-1]))


def kernel_sum(s: int, p: SphPoint, q: SphPoint, degrees, weights) -> complex:
    """sum_l w_l K^ls(p, q) over ascending degrees l >= |s|; w_l = 0 is skipped.

    The same terms, added in the same order, as calling kernel_K per degree,
    but from one recursion sweep per distinct colatitude instead of a fresh
    sweep per degree and point: O(L^2) instead of O(L^3).
    """
    terms = {int(l): w for l, w in zip(degrees, weights) if w != 0.0}
    total = 0.0 + 0.0j
    if not terms:
        return total
    if min(terms) < abs(s):
        raise InvalidDegreeError(f"l={min(terms)} < |s|={abs(s)}")
    dphi = p.phi - q.phi
    sweep_p = _point_slices(max(terms), s, p.theta)
    sweep_q = None if q.theta == p.theta else _point_slices(max(terms), s, q.theta)
    for l, dp in sweep_p:
        dq = dp if sweep_q is None else next(sweep_q)[1]
        if l in terms:
            total += terms[l] * _kernel_from_slices(l, dp, dq, dphi)
    return total
