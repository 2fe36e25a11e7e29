"""Tests for Wigner d recursion, spin harmonics and the degree kernel."""

import math
from itertools import zip_longest

import numpy as np
import pytest
from scipy.special import gammaln

from spinlets import SphPoint, kernel_K, spin_sph_harm, wigner_d, wigner_d_slice
from spinlets.errors import IndexOutOfRangeError, InvalidDegreeError
from spinlets.wigner import _lgamma, d_table, iter_d_slices, kernel_sum

from oracles import (d_table_degree_major, iter_d_slices_buffered,
                     kernel_sum_per_degree, scalar_sph_harm,
                     wigner_d_factorial)

ANGLES = [0.1, math.pi / 3, math.pi / 2, 2.5]


def test_identity_at_beta_zero():
    assert wigner_d(5, 3, 3, 0.0) == 1.0
    assert wigner_d(5, 2, 3, 0.0) == 0.0
    np.testing.assert_allclose(
        wigner_d_slice(1, 0, 0.0), [0.0, 1.0, 0.0], atol=0)


def test_pinned_values():
    assert wigner_d(1, 0, 0, math.pi / 3) == pytest.approx(0.5, rel=1e-14)
    assert wigner_d(2, 0, 2, math.pi / 2) == pytest.approx(
        math.sqrt(3.0 / 8.0), rel=1e-14)


def test_beta_pi_parity():
    for l, m, n in [(1, 0, 0), (3, 2, -2), (4, -1, 1), (5, 5, -5)]:
        expect = (-1.0) ** (l - n) if m == -n else 0.0
        assert wigner_d(l, m, n, math.pi) == expect


@pytest.mark.parametrize("beta", ANGLES)
def test_recursion_matches_factorial_sum(beta):
    # all (m, n) pairs up to l = 12 here; the acceptance suite extends to 20
    for l in range(0, 13):
        for m in range(-l, l + 1):
            for n in range(-l, l + 1):
                got = wigner_d(l, m, n, beta)
                ref = wigner_d_factorial(l, m, n, beta)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-13), (l, m, n)


def test_slice_matches_elementwise_and_is_unitary():
    rng = np.random.default_rng(5)
    for l in [1, 2, 7, 64, 256]:
        for n in {0, 1, min(l, 2), -min(l, 2)}:
            beta = float(rng.uniform(0.05, math.pi - 0.05))
            sl = wigner_d_slice(l, n, beta)
            assert abs(np.sum(sl ** 2) - 1.0) < 1e-12
            if l <= 7:
                for m in range(-l, l + 1):
                    assert sl[m + l] == pytest.approx(
                        wigner_d_factorial(l, m, n, beta), rel=1e-12, abs=1e-15)


def test_symmetry_negate_both_indices():
    rng = np.random.default_rng(11)
    for _ in range(50):
        l = int(rng.integers(1, 40))
        m = int(rng.integers(-l, l + 1))
        n = int(rng.integers(-l, l + 1))
        beta = float(rng.uniform(0.05, math.pi - 0.05))
        a = wigner_d(l, m, n, beta)
        b = (-1.0) ** (m - n) * wigner_d(l, -m, -n, beta)
        assert a == pytest.approx(b, abs=1e-12)


def test_index_errors():
    with pytest.raises(IndexOutOfRangeError):
        wigner_d(2, 3, 0, 0.5)
    with pytest.raises(IndexOutOfRangeError):
        wigner_d(2, 0, -3, 0.5)
    with pytest.raises(InvalidDegreeError):
        spin_sph_harm(1, 0, 2, SphPoint(0.3, 0.1))
    with pytest.raises(InvalidDegreeError, match="l=-1 must be >= 0"):
        wigner_d(-1, 0, 0, 0.5)
    for theta in (-0.1, math.pi + 0.1, math.nan):
        with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
            SphPoint(theta, 0.0)


def test_constant_mode():
    p = SphPoint(1.234, 5.0)
    assert spin_sph_harm(0, 0, 0, p) == pytest.approx(1.0 / math.sqrt(4 * math.pi))


def test_spin2_pinned_value():
    p = SphPoint(math.pi / 2, 0.0)
    want = math.sqrt(5 / (4 * math.pi)) * math.sqrt(3.0 / 8.0)
    assert spin_sph_harm(2, 0, 2, p) == pytest.approx(want, rel=1e-13)


def test_scalar_harmonics_match_legendre_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        l = int(rng.integers(0, 33))
        m = int(rng.integers(-l, l + 1)) if l else 0
        p = SphPoint(float(rng.uniform(0.05, math.pi - 0.05)),
                     float(rng.uniform(0, 2 * math.pi)))
        got = spin_sph_harm(l, m, 0, p)
        ref = scalar_sph_harm(l, m, p.theta, p.phi)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_addition_theorem_sample():
    rng = np.random.default_rng(7)
    for s in (0, 1, 2, 3):
        for _ in range(5):
            l = int(rng.integers(abs(s), 65))
            p = SphPoint(float(rng.uniform(0.05, math.pi - 0.05)),
                         float(rng.uniform(0, 2 * math.pi)))
            total = sum(abs(spin_sph_harm(l, m, s, p)) ** 2
                        for m in range(-l, l + 1))
            assert abs(total - (2 * l + 1) / (4 * math.pi)) < 1e-10


def test_kernel_at_coincident_points():
    p = SphPoint(0.9, 2.2)
    for l, s in [(0, 0), (4, 0), (5, 2), (9, 3)]:
        k = kernel_K(l, s, p, p)
        assert k.real == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-12)
        assert abs(k.imag) < 1e-14


def test_kernel_single_constant_mode():
    p, q = SphPoint(0.4, 1.0), SphPoint(2.0, 4.0)
    assert kernel_K(0, 0, p, q) == pytest.approx(1.0 / (4 * math.pi))


def test_kernel_bound_and_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(10):
        l = int(rng.integers(2, 12))
        s = int(rng.integers(0, min(l, 3) + 1))
        p = SphPoint(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0, 6.2)))
        q = SphPoint(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0, 6.2)))
        k = kernel_K(l, s, p, q)
        brute = sum(spin_sph_harm(l, m, s, p) * np.conj(spin_sph_harm(l, m, s, q))
                    for m in range(-l, l + 1))
        assert k == pytest.approx(complex(brute), rel=1e-11, abs=1e-13)
        assert abs(k) <= (2 * l + 1) / (4 * math.pi) + 1e-12


# Spin columns n and band limits L of the engine equivalence tests: every
# sign and small |n| (n = 0 takes the Legendre first step), L = |n| (seed row
# only) and L from 1 to 40.
ENGINE_CASES = [(n, L) for n in (-3, -2, -1, 0, 1, 2, 3, 5)
                for L in sorted({abs(n), 1, 2, 7, 40}) if L >= abs(n)]


def _engine_theta(n, L):
    rng = np.random.default_rng(7000 + 100 * L + n)
    return np.sort(rng.uniform(1e-3, math.pi - 1e-3, size=11))


@pytest.mark.parametrize("n, L", ENGINE_CASES)
def test_iter_d_slices_bitwise_equal_to_buffered_engine(n, L):
    theta = _engine_theta(n, L)
    kept = []
    for got, ref in zip_longest(iter_d_slices(L, n, theta),
                                iter_d_slices_buffered(L, n, theta)):
        (l, d), (l_ref, d_ref) = got, ref
        assert l == l_ref
        assert d.shape == d_ref.shape == (2 * l + 1, theta.size)
        assert d.tobytes() == d_ref.tobytes(), (n, L, l)
        kept.append((d, d_ref.copy()))
    assert [d.shape[0] for d, _ in kept] == [2 * l + 1 for l in range(abs(n), L + 1)]
    # slices kept across iterations are independent arrays, intact after the sweep
    for d, ref in kept:
        assert d.tobytes() == ref.tobytes()
    for (a, _), (b, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(a, b)


def test_no_degree_below_the_order():
    # d^l_{m,n} needs l >= |n|: for L < |n| the sweep yields nothing and the
    # table is all zeros
    theta = np.array([0.0, 0.4, 1.9, math.pi])
    assert list(iter_d_slices(2, 5, theta)) == []
    table = d_table(2, 5, theta)
    assert table.shape == (5, 3, 4) and not table.any()


@pytest.mark.parametrize("n, L", ENGINE_CASES)
def test_iter_d_slices_exact_endpoint_columns(n, L):
    interior = _engine_theta(n, L)
    theta = np.concatenate([[0.0, math.pi], interior[:5], [math.pi, 0.0],
                            interior[5:], [0.0]])
    inside = (theta > 0.0) & (theta < math.pi)
    for got, ref in zip_longest(iter_d_slices(L, n, theta),
                                iter_d_slices(L, n, interior)):
        (l, d), (l_ref, d_ref) = got, ref
        assert l == l_ref and d.shape == (2 * l + 1, theta.size)
        assert np.ascontiguousarray(d[:, inside]).tobytes() == d_ref.tobytes()
        m = np.arange(-l, l + 1)
        north = np.where(m == n, 1.0, 0.0)
        south = np.where(m == -n, (-1.0) ** (l - n), 0.0)
        for col in np.flatnonzero(theta == 0.0):
            assert np.array_equal(d[:, col], north)
        for col in np.flatnonzero(theta == math.pi):
            assert np.array_equal(d[:, col], south)
    for bad in ([-1e-12], [math.pi + 1e-12], [0.5, np.nan]):
        with pytest.raises(ValueError):
            next(iter_d_slices(L, n, np.array(bad)))


@pytest.mark.parametrize("n, L", ENGINE_CASES)
def test_d_table_order_major_bitwise_equal_to_degree_major(n, L):
    theta = _engine_theta(n, L)
    table = d_table(L, n, theta)
    assert table.shape == (2 * L + 1, L + 1, theta.size)
    store = table.transpose(1, 0, 2)  # the degree-major store [l, mu + L, i]
    assert store.flags.c_contiguous
    assert table.strides[2] == table.itemsize  # unit stride along theta
    ref = d_table_degree_major(L, n, theta)  # [l, mu + L, i]
    assert store.tobytes() == ref.tobytes()
    mu, ell = np.meshgrid(np.arange(-L, L + 1), np.arange(L + 1), indexing="ij")
    assert np.all(table[(ell < np.abs(mu)) | (ell < abs(n))] == 0.0)


@pytest.mark.parametrize("n, L", ENGINE_CASES)
def test_d_table_exact_endpoint_columns(n, L):
    # the sweep fills the pole columns of the store like any other and then
    # overwrites them; the interior columns keep the bits of a pole-free table
    interior = _engine_theta(n, L)
    theta = np.concatenate([[0.0], interior[:5], [math.pi], interior[5:]])
    inside = (theta > 0.0) & (theta < math.pi)
    table = d_table(L, n, theta)
    assert np.ascontiguousarray(table[:, :, inside]).tobytes() == \
        d_table(L, n, interior).tobytes()
    mu, ell = np.meshgrid(np.arange(-L, L + 1), np.arange(L + 1), indexing="ij")
    swept = ell >= abs(n)  # the degrees the sweep writes
    assert np.array_equal(table[:, :, 0],
                          np.where(swept & (mu == n), 1.0, 0.0))
    assert np.array_equal(table[:, :, 6],
                          np.where(swept & (mu == -n), (-1.0) ** (ell - n), 0.0))


@pytest.mark.parametrize("s", [-2, 0, 1, 2, 3])
def test_kernel_sum_equals_per_degree_kernel_loop(s):
    rng = np.random.default_rng(40 + s)
    degrees = range(abs(s), 30)
    weights = rng.uniform(0.1, 1.0, size=len(degrees))
    weights[[0, 4, 5]] = 0.0
    interior = SphPoint(1.1, 0.4)
    points = [(interior, SphPoint(2.3, 5.0)),           # two colatitudes
              (interior, SphPoint(1.1, 2.9)),           # one shared colatitude
              (interior, interior),
              (SphPoint(0.0, 0.0), interior),           # exact pole forms
              (interior, SphPoint(math.pi, 1.0)),
              (SphPoint(0.0, 0.0), SphPoint(math.pi, 0.0))]
    for p, q in points:
        got = kernel_sum(s, p, q, degrees, weights)
        assert got == kernel_sum_per_degree(s, p, q, degrees, weights), (p, q)
    assert kernel_sum(s, interior, interior, [], []) == 0.0
    assert kernel_sum(s, interior, interior, degrees, 0.0 * weights) == 0.0
    with pytest.raises(InvalidDegreeError):
        kernel_sum(3, interior, interior, [2, 3], [1.0, 1.0])


def test_lgamma_equals_scipy_gammaln_on_integers():
    # every branch: the exact product below 13, the 5-term Stirling series
    # below 1000, the 3-term one up to 1e8 and none beyond; math.lgamma
    # misses about half
    n = np.concatenate((np.arange(1, 200_001), [10**8 + 1, 123456789, 10**9]))
    ours = np.array([_lgamma(int(k)) for k in n])
    assert (ours == gammaln(n)).all()
