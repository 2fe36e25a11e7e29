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

Every function is pure in its values.  The one piece of process state is
_spare, the mapping of the last table store no array can read any more:
d_table builds into it, so a table build writes pages that are already
resident instead of faulting in and zeroing fresh ones (see d_table).
"""

from __future__ import annotations

import math
import mmap
import sys
import weakref
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


def iter_d_slices(L: int, n: int, theta, out=None):
    """Yield (l, d) for l = |n| .. L, d of shape (2l+1, ntheta): d^l_{m,n}(theta).

    theta values lie in [0, pi].  One upward sweep of the degree recursion,
    vectorized over the row index m and over the colatitudes; no per-m
    restarts.  Columns at exactly 0 or pi, where the half-angle logarithms
    of the seeds diverge, go through the sweep like the others (no column
    reads another) and are then overwritten with the exact forms
    d = delta_{mn} and (-1)^(l-n) delta_{m,-n}.  Without `out`, each degree
    gets a fresh array of its own 2l+1 rows, so yielded slices stay valid
    after the sweep moves on.  With `out`, a degree-major store of shape
    (L+1, 2L+1, ntheta), degree l's rows are written in place to
    out[l, L-l:L+l+1] and yielded as that view; the sweep reads its last two
    degrees back from the store and writes no other entry.  Nothing is
    yielded when L < |n|.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size and not (theta.min() >= 0.0 and theta.max() <= math.pi):
        raise ValueError(f"theta outside [0, pi]: {theta.min()}..{theta.max()}")
    if L < abs(n):
        return
    north = np.flatnonzero(theta == 0.0)
    south = np.flatnonzero(theta == math.pi)
    nth = theta.size
    l0 = abs(n)

    def rows(l):  # where degree l's 2l+1 rows go
        return np.empty((2 * l + 1, nth)) if out is None \
            else out[l, L - l:L + l + 1]

    def emit(l, d):
        if north.size or south.size:
            d[:, north] = 0.0
            d[l + n, north] = 1.0
            d[:, south] = 0.0
            d[l - n, south] = (-1.0) ** (l - n)
        return l, d

    # log sin(theta/2) is -inf on a north pole column, which the seed may
    # scale by 0; emit overwrites those columns before the sweep reads them
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.cos(theta)
        lc = np.log(np.cos(0.5 * theta))
        ls = np.log(np.sin(0.5 * theta))
        # seed row of the sweep: l = |n|, all |m| <= |n|
        cur = rows(l0)
        if l0 > 0:  # for n < 0, the n >= 0 row at -m times (-1)^(m+|n|)
            mcol = np.arange(-l0, l0 + 1) * (1 if n >= 0 else -1)
            half = 0.5 * np.array([_log_binom(2 * l0, l0 + m) for m in mcol])
            np.exp(half[:, None] + np.outer(l0 + mcol, lc)
                   + np.outer(l0 - mcol, ls), out=cur)
            if n < 0:  # row i holds m = i - |n|, so the sign is (-1)^i
                cur[1::2] *= -1.0
        else:
            cur[...] = 1.0
    prev = None
    # the c_prev * prev products of every degree reuse one buffer, so the
    # sweep allocates only the rows it yields
    scratch = np.empty((max(2 * L - 1, 0), nth))
    yield emit(l0, cur)

    for l in range(l0, L):
        # rows |m| <= l of degree l+1 come from the recursion, the two rows
        # |m| = l+1 enter with their closed-form boundary values
        nxt = rows(l + 1)
        inner = nxt[1:-1]
        if l == 0:  # degenerate first step (m = n = 0): Legendre P1 = x
            np.multiply(x, cur[0], out=inner[0])
        else:
            # float rows: the subtraction below then casts no int64 column
            # (exact either way, as every product here is an integer < 2^53)
            m = np.arange(-l, l + 1, dtype=np.float64)
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
        yield emit(l + 1, cur)


def wigner_d_slice(l: int, n: int, beta: float) -> np.ndarray:
    """All d^l_{m,n}(beta) for m = -l..l, indexed m + l, in one recursion sweep."""
    _check_indices(l, 0, n)
    for _, d in iter_d_slices(l, n, beta):
        pass  # the sweep ends at degree l
    return d[:, 0].copy()


def d_table(L: int, n: int, theta) -> np.ndarray:
    """Order-major table t[mu + L, l, i] = d^l_{mu,n}(theta_i) for l = 0..L.

    The view store.transpose(1, 0, 2) of a C-contiguous degree-major store
    [l, mu + L, i], which the degree recursion fills in place.  Each order's
    (L+1, ntheta) block t[mu + L] has unit stride along theta and evenly
    strided rows, a matrix BLAS reads in place.  Entries with l < |n| or
    l < |mu| are zero and are never written by the sweep: they cost no RAM,
    and a reader that skips them takes no page faults on them either.

    The store is anonymous memory on 4 KB pages (see demand_zero), in the
    spare when it is big enough: the mapping of the last table store whose
    owning array died, so that no view of it survives.  The store sits at
    the mapping's page-aligned end.  A spare too small is unmapped before a
    fresh mapping is made, so two tables are never resident together.
    Either way each gap between written degrees is made to read as zero
    (see _zero_gaps); on a fresh mapping, the pages that drops were never
    touched.  Every value is computed anew.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    shape = (L + 1, 2 * L + 1, theta.size)
    nbytes = 8 * math.prod(shape)
    buf = _spare.pop() if _spare else None
    if buf is not None and len(buf) < nbytes:
        buf.close()
        buf = None
    if buf is None:
        buf = _mapping(nbytes)
    offset = (len(buf) - nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    flat = np.frombuffer(buf, dtype=np.float64, count=nbytes // 8, offset=offset)
    # numpy collapses the base of every view to this array, so it dies only
    # when no view of the table is left
    weakref.finalize(flat, _release, buf).atexit = False
    store = flat.reshape(shape)
    _zero_gaps(buf, offset, store, n)
    for _ in iter_d_slices(L, n, theta, out=store):
        pass
    return store.transpose(1, 0, 2)


# the one spare table mapping: at most one mmap, no longer read by any array
_spare: list = []


def _release(buf: mmap.mmap) -> None:
    """Make a dead table store's mapping the spare, unmapping the last one.

    Only Linux is known to zero-fill a private anonymous page dropped with
    MADV_DONTNEED; elsewhere no mapping is kept."""
    while _spare:
        _spare.pop().close()
    if sys.platform.startswith("linux"):
        _spare.append(buf)


def _zero_gaps(buf: mmap.mmap, offset: int, store: np.ndarray, n: int) -> None:
    """Zero every entry of a store [l, mu + L, i] that the sweep of
    d_table(L, n) does not write: the gaps around degree l's rows
    [l, L-l:L+l+1] for l = |n|..L (the whole store when L < |n|).  A gap's
    whole pages are dropped (MADV_DONTNEED), so they read as fresh zero
    pages, and its partial pages at either end are zeroed.  The store
    starts at byte `offset` of buf, a page boundary."""
    L, nth = store.shape[0] - 1, store.shape[2]
    flat = store.reshape(-1)
    ells = np.arange(abs(n), L + 1)
    starts = (ells * (2 * L + 1) + L - ells) * nth
    stops = starts + (2 * ells + 1) * nth
    gaps = zip([0, *stops.tolist()], [*starts.tolist(), flat.size])
    page = mmap.PAGESIZE // flat.itemsize
    for a, b in gaps:  # whole pages [pa, pb), none when pa >= pb
        pa, pb = min(-(-a // page) * page, b), max(b // page * page, a)
        if pa < pb:
            buf.madvise(mmap.MADV_DONTNEED, offset + 8 * pa, 8 * (pb - pa))
        flat[a:pa] = 0.0
        flat[pb:b] = 0.0


def _mapping(nbytes: int) -> mmap.mmap:
    """Private anonymous mapping of nbytes (at least 1) on 4 KB pages."""
    buf = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE)
    try:
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    except (AttributeError, OSError):  # no huge pages to refuse here
        pass
    return buf


def demand_zero(shape, dtype=np.float64) -> np.ndarray:
    """Zeroed array of private anonymous memory on 4 KB pages.

    A page takes RAM when it is first written; one that is only read maps
    the kernel's shared zero page, at the cost of a page fault, and one
    never touched costs nothing.  np.zeros asks for transparent huge
    pages from 4 MB up, so there one write makes a whole 2 MB page resident,
    zeros included.  Each call makes a fresh mapping, so its first writes
    fault in zeroed pages; d_table recycles its stores' mappings instead.
    """
    size, dtype = math.prod(shape), np.dtype(dtype)
    buf = _mapping(dtype.itemsize * size)
    return np.frombuffer(buf, dtype=dtype, count=size).reshape(shape)


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
