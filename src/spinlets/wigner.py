"""Wigner d-matrices, spin-weighted spherical harmonics and the degree-l kernel.

Conventions (fixed here, consumed everywhere else):

    Y_lms(theta, phi) = (-1)^m sqrt((2l+1)/4pi) exp(i m phi) d^l_{-m,s}(theta)

with d^l_{m,n} the standard Wigner small-d matrix, d^l_{m,n}(0) = delta_{mn},
d^1_{00}(beta) = cos(beta).  For s = 0 this reduces to the usual scalar
spherical harmonic with Condon-Shortley phase.

Every d-value comes from one engine, iter_d_slices: an upward sweep of the
three-term recursion in degree l at fixed column n, vectorized over the
rows m and the colatitudes.  It is seeded at l = |n| with the closed-form
row d^{|n|}_{m,n}, and at each degree the two boundary rows |m| = l enter in
closed form (both evaluated in log space, so high degrees neither overflow
nor underflow).  Their factorials come from _lgamma, a transcription of the
cephes log-gamma behind scipy.special.gammaln that equals it on every
integer.  Columns at exactly 0 or pi take the exact Kronecker/parity forms.
Row m of a degree reads only row m of the two below it, so a sweep may
hold only the rows m < 0 or only m >= 0; d_table sweeps the two halves of
a big table on two threads (see has_spare_cpu), with the bits of one sweep.

Every function is pure in its values.  The one piece of process state is
_last_store, the mapping of d_table's last store: once no view of that table
is left, the next build writes resident pages instead of fresh ones.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
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


def iter_d_slices(L: int, n: int, theta, out=None, half=None):
    """Yield (l, d) for l = |n| .. L, d of shape (2l+1, ntheta): d^l_{m,n}(theta).

    theta values lie in [0, pi].  One upward sweep of the degree recursion,
    vectorized over the row index m and over the colatitudes; no per-m
    restarts.  Columns at exactly 0 or pi, where the half-angle logarithms
    of the seeds diverge, go through the sweep like the others (no column
    reads another) and are then overwritten with the exact forms
    d = delta_{mn} and (-1)^(l-n) delta_{m,-n}.  Without `out`, each degree
    gets a fresh array of its own rows, so yielded slices stay valid after
    the sweep moves on.  With `out`, a degree-major store of shape
    (L+1, 2L+1, ntheta), degree l's rows m are written in place to
    out[l, L + m] and yielded as that view; the sweep reads its last two
    degrees back from the store and writes no other entry.  Nothing is
    yielded when L < |n|.

    half = -1 or +1 sweeps only the rows m < 0 (l of them) or m >= 0 (l+1)
    of each degree, and yields those.  Row m of degree l+1 reads only row m
    of degrees l and l-1, so the two halves share no entry: each seeds its
    own rows, enters its own boundary row m = -(l+1) or l+1 and overwrites
    the pole columns of its own rows, with the operations of the full sweep
    in its order, so together they write the bits of one full sweep.
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
    neg, pos = half != 1, half != -1  # the sweep holds rows m < 0, m >= 0

    def rows(l):  # where degree l's rows go: m = -l..l, -l..-1 or 0..l
        lo, hi = -l if neg else 0, l if pos else -1
        return np.empty((hi - lo + 1, nth)) if out is None \
            else out[l, L + lo:L + hi + 1]

    def emit(l, d):
        if north.size or south.size:
            lo = -l if neg else 0  # row i holds m = lo + i
            d[:, north] = 0.0
            if 0 <= n - lo < len(d):
                d[n - lo, north] = 1.0
            d[:, south] = 0.0
            if 0 <= -n - lo < len(d):
                d[-n - lo, south] = (-1.0) ** (l - n)
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
            lo = -l0 if neg else 0
            mcol = np.arange(lo, lo + len(cur)) * (1 if n >= 0 else -1)
            logc = 0.5 * np.array([_log_binom(2 * l0, l0 + m) for m in mcol])
            np.exp(logc[:, None] + np.outer(l0 + mcol, lc)
                   + np.outer(l0 - mcol, ls), out=cur)
            if n < 0:  # row i holds m = lo + i, so the sign is (-1)^(i+lo+|n|)
                cur[(1 + lo + l0) % 2::2] *= -1.0
        else:
            cur[...] = 1.0
    prev = None
    # the c_prev * prev products of every degree reuse one buffer, so the
    # sweep allocates only the rows it yields
    scratch = np.empty((max(2 * L - 1, 0), nth))
    yield emit(l0, cur)

    steps = _step_terms(L, n, lc, ls, neg, pos)
    for l, (c_next, c_prev, mn, upper, lower) in zip(range(l0, L), steps):
        # rows |m| <= l of degree l+1 come from the recursion, the rows
        # |m| = l+1 enter with their closed-form boundary values
        nxt = rows(l + 1)
        inner = nxt[int(neg):int(neg) + len(cur)]  # the m of cur's rows
        if l == 0:  # degenerate first step (m = n = 0): Legendre P1 = x
            np.multiply(x, cur, out=inner)
        else:
            # inner = c_cur * cur, c_cur = (2l+1) (l(l+1) x - m n), in place
            np.subtract(l * (l + 1) * x[None, :], mn[:, None], out=inner)
            inner *= 2 * l + 1
            inner *= cur
            if prev is not None:  # prev holds rows |m| <= l-1; c_prev is 0 beyond
                a, b = int(neg), len(cur) - int(pos)
                inner[a:b] -= np.multiply(c_prev[a:b, None], prev,
                                          out=scratch[:b - a])
            inner /= c_next[:, None]
        if pos:
            nxt[-1] = upper
        if neg:
            nxt[0] = lower
        prev, cur = cur, nxt
        yield emit(l + 1, cur)


def _step_terms(L: int, n: int, lc, ls, neg: bool, pos: bool):
    """Yield the terms of the sweep's steps l -> l+1, l = |n| .. L-1: the
    recursion's c_next, c_prev and m n over the rows m of degree l the
    sweep holds (m < 0 if neg, then m >= 0 if pos), and the boundary rows
    of degree l+1, m = l+1 if pos and m = -(l+1) if neg (else None), as
    functions of the colatitudes through lc = log cos(theta/2) and
    ls = log sin(theta/2).

    They are computed for STEP_BLOCK steps at a time, so few numpy calls
    run per step and one block's terms are held at once.  Each value goes
    through the operations and rounding the step applied to it alone:
    every product of the coefficients is an integer < 2^53, exact in
    float64, so only their square roots and final products round.
    """
    for first in range(abs(n), L, STEP_BLOCK):
        ell = np.arange(first, min(first + STEP_BLOCK, L))
        sizes = ell * neg + (ell + 1) * pos  # rows m = -l..-1, then 0..l
        starts = np.cumsum(sizes) - sizes
        l = np.repeat(ell, sizes).astype(np.float64)
        m = np.arange(sizes.sum()) - np.repeat(starts, sizes) - l * neg
        c_next = l * np.sqrt(((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - n * n))
        c_prev = (l + 1) * np.sqrt(
            np.maximum((l * l - m * m) * (l * l - n * n), 0))
        cuts = starts[1:]
        k = ell + 1
        upper = lower = [None] * ell.size
        if pos:
            logc = 0.5 * np.array([_log_binom(2 * d, d + n) for d in k.tolist()])
            upper = np.where((k - n) % 2 == 0, 1.0, -1.0)[:, None] * np.exp(
                logc[:, None] + np.outer(k + n, lc) + np.outer(k - n, ls))
        if neg:
            logc = 0.5 * np.array([_log_binom(2 * d, d - n) for d in k.tolist()])
            lower = np.exp(logc[:, None] + np.outer(k - n, lc)
                           + np.outer(k + n, ls))
        yield from zip(np.split(c_next, cuts), np.split(c_prev, cuts),
                       np.split(m * n, cuts), upper, lower)


# steps per block of _step_terms: a j = 7 block (257 rings) holds 2 x 32
# boundary rows, 132 KB, and three coefficient arrays of at most 122 KB; 64
# steps timed the same and held 0.8 MB more at the peak of multilevel_j3_7
STEP_BLOCK = 32


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

    The store is anonymous memory on 4 KB pages (see demand_zero), at the
    page-aligned end of the last store's mapping when no view of that table
    is left and the mapping is big enough.  Else it takes a fresh mapping; a
    dead one too small is unmapped first, so two tables are never resident
    together, and one still read stays with its holder.  Each gap between
    written degrees is made to read as zero (see _zero_gaps).  Every value
    is computed anew.

    A store of at least SPLIT_TABLE_BYTES, in a process with a spare CPU
    (see has_spare_cpu), is filled by two sweeps: the orders mu < 0 on a
    one-thread ThreadPoolExecutor, mu >= 0 on the caller's thread.  Each
    writes only its own rows (see iter_d_slices), so the table has the bits
    of one sweep.  The numpy products that do the work release the GIL.
    The helper's Future re-raises what it raised, and leaving the executor
    joins its thread, so no thread outlives the call.  Below that size
    (j <= 6 at B = 2) a split costs more CPU than it saves wall time.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    shape = (L + 1, 2 * L + 1, theta.size)
    nbytes = 8 * math.prod(shape)
    buf = None
    if _last_store:  # a mapping a view still reads stays with its holder
        last, table = _last_store.pop()
        if table() is None and len(last) >= nbytes:
            buf = last
        elif table() is None:
            last.close()
    if buf is None:
        buf = _mapping(nbytes)
    offset = (len(buf) - nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    flat = np.frombuffer(buf, dtype=np.float64, count=nbytes // 8, offset=offset)
    # every view's base collapses to flat, so it dies with the table's last
    # view; only Linux is known to zero-fill a page dropped with MADV_DONTNEED
    if sys.platform.startswith("linux"):
        _last_store.append((buf, weakref.ref(flat)))
    store = flat.reshape(shape)
    _zero_gaps(buf, offset, store, n)

    def sweep(half=None):
        for _ in iter_d_slices(L, n, theta, out=store, half=half):
            pass

    if nbytes < SPLIT_TABLE_BYTES or not has_spare_cpu():
        sweep()
    else:  # the orders mu < 0 on a helper thread, mu >= 0 on this one
        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool.submit(sweep, -1)
            sweep(+1)
            helper.result()
    return store.transpose(1, 0, 2)


# at most one (mapping, weak reference to its flat array) of d_table's last store
_last_store: list = []
# a table whose store spans at least this many bytes is swept on two threads
# (see d_table): j >= 7 at B = 2, whose store spans 269 MB (j = 6: 34 MB)
SPLIT_TABLE_BYTES = 2 ** 26


def has_spare_cpu() -> bool:
    """True when this process may run on 2 or more CPUs
    (os.sched_getaffinity) and is not a multiprocessing child, whose sibling
    workers already hold the other CPUs: a helper thread then has a core of
    its own.  False where the platform cannot say (macOS, Windows)."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and multiprocessing.parent_process() is None)


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
