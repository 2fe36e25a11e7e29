"""Tests for the needlet window, eigenvalues, and level supports."""

import math

import numpy as np
import pytest

from spinlets import build_window, eval_b, eval_e_ls, window_support
from spinlets.errors import InvalidBandwidthError, InvalidDegreeError
from spinlets.window import band_profile

from oracles import window_derivative_bound


@pytest.fixture(scope="module")
def win():
    return build_window(2.0)


def test_invalid_bandwidth():
    with pytest.raises(InvalidBandwidthError):
        build_window(1.0)
    with pytest.raises(InvalidBandwidthError):
        build_window(0.5)


def test_support_endpoints_and_outside(win):
    assert eval_b(win, 0.0) == 0.0
    assert eval_b(win, 1.0 / win.B) == 0.0
    assert eval_b(win, win.B) == 0.0
    assert eval_b(win, win.B ** 2) == 0.0


def test_interior_positive(win):
    # away from the support edges (where the true value drops below double
    # resolution) the window is strictly positive
    xs = np.linspace(1.0 / win.B + 0.01, win.B - 0.01, 101)
    assert np.all(eval_b(win, xs) > 0.0)
    assert eval_b(win, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_partition_of_unity_pinned_point(win):
    total = sum(win.b_squared(7.3 / win.B ** j) for j in range(0, 16))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_partition_of_unity_random(win):
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(0.0, 10.0 * math.log(win.B), size=10_000))
    total = np.zeros_like(x)
    for j in range(0, 18):
        total += win.b_squared(x / win.B ** j)
    assert np.max(np.abs(total - 1.0)) < 1e-10


def test_eigenvalues():
    assert eval_e_ls(2, 2) == 0
    assert eval_e_ls(4, 0) == 20
    assert eval_e_ls(3, 2) == 6
    with pytest.raises(InvalidDegreeError):
        eval_e_ls(1, 2)


def test_support_solves_quadratic(win):
    # s=0, B=2, j=3: 4 < sqrt(l(l+1)) < 16  =>  l in [4, 15]
    assert window_support(win, 3, 0) == range(4, 16)


def test_support_matches_bruteforce_scan(win):
    for j in range(0, 13):
        for s in (0, 1, 2, 3, -2):
            sup = window_support(win, j, s)
            ells = np.arange(abs(s), max(sup.stop + 10, abs(s) + 50))
            b = band_profile(win, j, s, ells)
            nonzero = ells[b > 0.0]
            if nonzero.size == 0:
                assert len(sup) == 0
            else:
                assert sup.start == nonzero.min()
                assert sup.stop - 1 == nonzero.max()
                assert nonzero.size == len(sup)  # contiguous, no interior zeros


def _fresh_profile(window, j, s, ells):
    """b(sqrt(e_ls)/B^j) straight from the window function, 0 below |s|."""
    vals = np.zeros(ells.shape)
    ok = ells >= abs(s)
    e = (ells[ok] - s) * (ells[ok] + s + 1)
    vals[ok] = window.b(np.sqrt(e.astype(np.float64)) / window.B ** j)
    return vals


def test_memoized_support_and_profile_match_fresh_evaluation():
    for B in (1.5, 2.0, 3.0):
        for j in range(0, 9):
            for s in (0, 1, 2, 3, -2):
                ells = np.arange(0, int(B ** (j + 1)) + abs(s) + 12)
                want = _fresh_profile(build_window(B), j, s, ells)
                nonzero = np.flatnonzero(want)
                want_sup = range(ells[nonzero[0]], ells[nonzero[-1]] + 1) \
                    if nonzero.size else range(0)
                # fill the memo from either entry point; later calls read it
                for profile_first in (False, True):
                    win = build_window(B)
                    if profile_first:
                        band_profile(win, j, s, ells)
                    for _ in range(2):
                        assert window_support(win, j, s) == want_sup
                        got = band_profile(win, j, s, ells)
                        assert got.tobytes() == want.tobytes()
                        assert band_profile(win, j, s, ells[::-1]).tobytes() \
                            == want[::-1].tobytes()


def test_windows_do_not_share_a_memo():
    wide, narrow = build_window(3.0), build_window(1.5)
    ells = np.arange(40)
    for win in (wide, narrow):
        window_support(win, 3, 2)
    assert wide._levels is not narrow._levels
    assert window_support(narrow, 3, 2) != window_support(wide, 3, 2)
    for win in (wide, narrow):
        assert band_profile(win, 3, 2, ells).tobytes() == \
            _fresh_profile(build_window(win.B), 3, 2, ells).tobytes()
    assert "_levels" not in repr(wide)


def test_support_empty_for_large_spin_small_level(win):
    # lowest eigenvalue already above the top of the band
    sup = window_support(win, 0, 25)
    assert len(sup) == 0


def test_support_high_level_lower_edge(win):
    j = 9
    sup = window_support(win, j, 0)
    e_min = sup.start * (sup.start + 1)
    assert math.sqrt(e_min) > win.B ** (j - 1)


def test_smoothness_proxy(win):
    # centered finite differences of b^2 stay within 10x the construction
    # bound, and do not explode when the step is refined
    lo, hi = 1.0 / win.B, win.B
    for r in range(1, 4):
        bound = window_derivative_bound(win.B, r)
        for h in (2e-3, 1e-3):
            x = np.arange(lo - 0.05, hi + 0.05, h)
            d = win.b_squared(x)
            for _ in range(r):
                d = (d[2:] - d[:-2]) / (2.0 * h)
            assert np.max(np.abs(d)) < 10.0 * bound, (r, h)
