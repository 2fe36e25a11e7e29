"""Tests for cubature grids, masks, dilation, and region pairs."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinlets import (SphPoint, build_cubature, dilate_mask, geodesic_distance,
                      hemispheres)
from spinlets.errors import (EmptyObservedRegionError, EmptyRegionError,
                             InvalidBandwidthError, InvalidMaskFileError,
                             ResourceLimitError)
from spinlets.grid import (CubatureGrid, RegionPair, SkyMask, _within_distance,
                           empty_mask, polar_cap_mask, read_mask, write_mask)
from spinlets.wigner import iter_d_slices

from oracles import cap_membership, within_distance_all_pairs


@pytest.fixture(scope="module")
def grid5():
    return build_cubature(5, 2.0)


def test_build_errors():
    with pytest.raises(InvalidBandwidthError):
        build_cubature(2, 1.0)
    with pytest.raises(ResourceLimitError):
        build_cubature(12, 2.0)  # 134M pixels
    with pytest.raises(ValueError, match="level j must be >= 0"):
        CubatureGrid(j=-1, B=2.0)
    # the rings follow from (j, B): a grid cannot be given others
    with pytest.raises(TypeError):
        CubatureGrid(j=3, B=2.0, theta=np.zeros(2), cos_theta=np.ones(2),
                     phi=np.zeros(3), ring_weights=np.ones(2))
    # refused before B^(j+1) can overflow a float
    for j, B in ((5000, 2.0), (4_000_000, 2.0), (40, 2.0), (1, 1e300)):
        with pytest.raises(ResourceLimitError, match=f"level j={j} needs"):
            build_cubature(j, B)


def test_a_grid_is_the_value_j_B():
    grid = build_cubature(3, 2)
    assert CubatureGrid(3, 2.0) == grid
    assert hash(CubatureGrid(3, 2.0)) == hash(grid)
    assert build_cubature(3, 2.5) != grid and build_cubature(4, 2.0) != grid
    assert len({grid, CubatureGrid(3, 2.0), build_cubature(3, 2.5)}) == 2


def test_build_cubature_returns_one_read_only_grid_per_level():
    grid = build_cubature(3, 2)
    assert build_cubature(3, 2.0) is grid
    assert CubatureGrid(3, 2.0) is not grid and CubatureGrid(3, 2.0) == grid
    assert build_cubature(3, 2.5) is not grid
    # positional-only, so every call form of one (j, B) is one cache key
    assert build_cubature(4, 2) is build_cubature(4, 2.0)
    with pytest.raises(TypeError):
        build_cubature(j=4, B=2.0)
    with pytest.raises(TypeError):
        build_cubature(4, B=2.0)
    for values in (grid.theta, grid.cos_theta, grid.phi, grid.ring_weights):
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_weights_sum_to_sphere_area(grid5):
    assert abs(grid5.weights.sum() - 4 * math.pi) < 1e-10


def test_pixel_count_scaling():
    # the GL x uniform-phi family carries ~2 B^2 pixels per B^(2j)
    for j in range(2, 9):
        g = build_cubature(j, 2.0)
        ratio = g.n_pixels / 2.0 ** (2 * j)
        assert 1.0 <= ratio <= 4 * 2.0 ** 2


def test_weight_bounds(grid5):
    lam = grid5.weights
    c = lam * 2.0 ** (2 * grid5.j)
    assert np.all(lam > 0)
    assert c.max() < 50.0  # lambda <= c' B^(-2j) family bound
    # GL endpoint weights shrink like sin(theta): the min/max ratio is not
    # O(1); report-style check that it stays within the known n/2.4 envelope
    assert lam.max() / lam.min() < grid5.n_theta


def test_cubature_exactness_spin0_pairs(grid5):
    # Gram of scalar harmonics on a small degree set, exact to 1e-8
    rng = np.random.default_rng(0)
    L = 24
    table = {}
    for l, d in iter_d_slices(L, 0, grid5.theta):
        table[l] = d
    lam_ring = grid5.ring_weights
    nphi = grid5.n_phi
    phis = grid5.phi
    for _ in range(20):
        l1, l2 = rng.integers(0, L + 1, size=2)
        m1 = int(rng.integers(-l1, l1 + 1)) if l1 else 0
        m2 = int(rng.integers(-l2, l2 + 1)) if l2 else 0
        n1 = math.sqrt((2 * l1 + 1) / (4 * math.pi))
        n2 = math.sqrt((2 * l2 + 1) / (4 * math.pi))
        y1 = (-1.0) ** m1 * n1 * table[l1][-m1 + l1]
        y2 = (-1.0) ** m2 * n2 * table[l2][-m2 + l2]
        ring = np.sum(lam_ring * y1 * y2)
        azim = np.sum(np.exp(1j * (m1 - m2) * phis))
        total = ring * azim
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(total - want) < 1e-8


def test_geodesic_distance_basics():
    n = SphPoint(0.0, 0.0)
    s = SphPoint(math.pi, 1.0)
    e = SphPoint(math.pi / 2, 0.0)
    assert geodesic_distance(n, n) == 0.0
    assert geodesic_distance(n, s) == pytest.approx(math.pi)
    assert geodesic_distance(n, e) == pytest.approx(math.pi / 2)
    p = SphPoint(0.7, 1.2)
    q = SphPoint(2.1, 4.0)
    r = SphPoint(1.1, 2.0)
    assert geodesic_distance(p, q) == pytest.approx(geodesic_distance(q, p))
    assert geodesic_distance(p, q) <= geodesic_distance(p, r) + geodesic_distance(r, q)


def test_dilate_zero_is_identity(grid5):
    mask = polar_cap_mask(grid5, 0.1, epsilon=0.0)
    assert np.array_equal(mask.dilated, mask.excluded)


def test_dilated_set_is_computed_not_passed(grid5):
    with pytest.raises(TypeError):
        SkyMask(grid=grid5, excluded=np.zeros(grid5.n_pixels, dtype=bool),
                dilated=np.ones(grid5.n_pixels, dtype=bool))


def test_dilate_full_sphere_rejected(grid5):
    with pytest.raises(EmptyObservedRegionError):
        SkyMask(grid=grid5, excluded=np.ones(grid5.n_pixels, dtype=bool),
                epsilon=0.0)


def test_dilated_cap_matches_analytic_cap(grid5):
    frac = 0.1
    cap_radius = math.acos(1.0 - 2.0 * frac)
    eps = 0.12
    mask = polar_cap_mask(grid5, frac, epsilon=eps)
    got = mask.dilated
    # pixel-level oracle: the dilated set should be the cap of radius r + eps,
    # up to pixels within half a pixel spacing of the boundary
    spacing = math.pi / grid5.n_theta
    theta = grid5.theta_pixels
    inner = cap_membership(theta, cap_radius + eps - spacing)
    outer = cap_membership(theta, cap_radius + eps + spacing)
    assert np.all(got[inner])
    assert not np.any(got[~outer])


def test_dilation_monotone_and_idempotent(grid5):
    base = polar_cap_mask(grid5, 0.05, epsilon=0.0)
    m1 = dilate_mask(base, 0.05)
    m2 = dilate_mask(base, 0.10)
    assert np.all(m2.dilated[m1.dilated])  # monotone in epsilon
    again = dilate_mask(m1, 0.05)
    assert np.array_equal(again.dilated, m1.dilated)  # idempotent at fixed eps
    assert np.array_equal(again.excluded, base.excluded)


def _target_sets(grid, rng):
    cz, n = grid.cos_theta_pixels, grid.n_pixels
    spread = rng.random(n) < 0.03
    spread[np.arange(grid.n_theta) * grid.n_phi
           + rng.integers(grid.n_phi, size=grid.n_theta)] = True  # every ring
    return {"cap": cz > 0.8, "hemisphere complement": ~(cz > 0.0),
            "north pole pixel": np.arange(n) == 0,
            "south pole pixel": np.arange(n) == n - 1,
            "random on every ring": spread}


@pytest.mark.parametrize("B", [2.0, 1.5])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_ring_local_dilation_matches_all_pairs_oracle(j, B):
    grid = build_cubature(j, B)
    sets = _target_sets(grid, np.random.default_rng(j))
    for eps in (0.0, 3.0 * B ** -j, 0.3, 1.0, math.pi, 4.0):
        for name, targets in sets.items():
            assert np.array_equal(_within_distance(grid, targets, eps),
                                  within_distance_all_pairs(grid, targets, eps)), \
                (name, eps)


def _epsilon_with_cos(d):
    """An epsilon whose math.cos is exactly d, or None."""
    eps = math.acos(d)
    for _ in range(64):
        c = math.cos(eps)
        if c == d:
            return eps
        eps = float(np.nextafter(eps, math.inf if c > d else 0.0))
    return None


def test_pixel_at_exactly_epsilon_is_in(grid5):
    # one target; a pixel on another ring whose dot with it rounds the same
    # in every evaluation order, and an epsilon with cos(epsilon) == that dot
    vec = grid5.unit_vectors
    t = 3 * grid5.n_phi
    targets = np.arange(grid5.n_pixels) == t
    ring = vec[5 * grid5.n_phi:6 * grid5.n_phi]
    for q, d in enumerate(ring @ vec[t]):
        exact = float(sum(Fraction(a) * Fraction(b) for a, b in zip(ring[q], vec[t])))
        eps = _epsilon_with_cos(float(d))
        if d == exact == sum(a * b for a, b in zip(ring[q], vec[t])) and eps:
            break
    else:
        pytest.fail("no pixel pair with an exactly representable distance")
    p = 5 * grid5.n_phi + q
    inside = _within_distance(grid5, targets, eps)
    assert inside[p]  # closed rule: distance exactly epsilon is in
    assert np.array_equal(inside, within_distance_all_pairs(grid5, targets, eps))
    below = eps
    while math.cos(below) <= d:
        below = float(np.nextafter(below, 0.0))
    assert not _within_distance(grid5, targets, below)[p]


def test_dilation_memory_is_one_ring_pair():
    # extra memory is one n_phi x n_phi block of dots, not |targets| x |rest|
    grid = build_cubature(7, 2.0)
    targets = ~(grid.cos_theta_pixels > 0.0)
    tracemalloc.start()
    try:
        _within_distance(grid, targets, 3.0 * 2.0 ** -7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_hemispheres(grid5):
    pair = hemispheres(grid5)
    assert not np.any(pair.a1 & pair.a2)
    w = grid5.weights
    assert abs(w[pair.a1].sum() - w[pair.a2].sum()) / (4 * math.pi) < 1e-10
    north_idx = int(np.argmax(grid5.cos_theta_pixels))
    assert pair.a1[north_idx]
    # exact equator ring belongs to neither
    eq = grid5.cos_theta_pixels == 0.0
    if eq.any():
        assert not np.any(pair.a1[eq]) and not np.any(pair.a2[eq])


def test_regions_must_be_disjoint(grid5):
    a = grid5.cos_theta_pixels > 0
    with pytest.raises(EmptyRegionError):
        RegionPair(grid=grid5, a1=a, a2=a, epsilon=0.0)


def test_wrong_lengths_and_a_full_cap_refused(grid5):
    full = np.zeros(grid5.n_pixels, dtype=bool)
    short = full[:-1]
    with pytest.raises(ValueError, match="mask length does not match"):
        SkyMask(grid=grid5, excluded=short)
    for a1, a2 in ((short, full), (full, short)):
        with pytest.raises(ValueError, match="region length does not match"):
            RegionPair(grid=grid5, a1=a1, a2=a2)
    for fraction in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"sky_fraction must be in \[0, 1\)"):
            polar_cap_mask(grid5, fraction)


def test_negative_or_nan_epsilon_refused(grid5):
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon="):
            polar_cap_mask(grid5, 0.1, epsilon=eps)
        with pytest.raises(ValueError, match="epsilon="):
            dilate_mask(empty_mask(grid5), eps)
        with pytest.raises(ValueError, match="epsilon="):
            hemispheres(grid5, epsilon=eps)


def test_region_interior_shrinks(grid5):
    pair = hemispheres(grid5, epsilon=0.1)
    i1 = pair.interior(1)
    assert i1.sum() < pair.a1.sum()
    assert np.all(pair.a1[i1])


def test_mask_io_roundtrip(tmp_path, grid5):
    mask = polar_cap_mask(grid5, 0.07, epsilon=0.05)
    path = tmp_path / "cap.mask"
    write_mask(path, mask)
    header = path.read_text().splitlines()[0]
    assert header == f"mask v1 j=5 B=2.0 npix={grid5.n_pixels}"
    back = read_mask(path, epsilon=0.05)
    assert np.array_equal(back.excluded, mask.excluded)
    assert np.array_equal(back.dilated, mask.dilated)


@pytest.mark.parametrize("entry, reason", [
    ("-3", "outside 0..152"),          # would wrap to pixel 150
    ("153", "outside 0..152"),         # first index past the grid
    ("999", "outside 0..152"),
    ("7.5", "is not a pixel index"),
    ("pole", "is not a pixel index"),
])
def test_read_mask_rejects_bad_pixel_index(tmp_path, entry, reason):
    path = tmp_path / "bad.mask"
    path.write_text(f"mask v1 j=2 B=2.0 npix=153\n4\n\n{entry}\n")
    with pytest.raises(InvalidMaskFileError) as err:
        read_mask(path)
    assert f"{path}:4:" in str(err.value)
    assert reason in str(err.value)


@pytest.mark.parametrize("text, reason", [
    ("", "empty mask file"),
    ("\n  \n", "empty mask file"),
    ("mask v2 j=2 B=2.0 npix=153\n4\n", ":1: header 'mask v2"),
    ("4\nmask v1 j=2 B=2.0 npix=153\n", ":1: header '4'"),
    ("\nmask v1 j=2 B=2.0.1 npix=153\n", ":2: header field B='2.0.1'"),
    ("mask v1 j=2 B=2.0 npix=154\n4\n", ":1: header field npix=154"),
    ("mask v1 j=3 B=1.7 npix=99\n4\n", ":1: header field npix=99 does not "
     "match the 190 pixels of the level-3 grid at B=1.7"),
    ("mask v1 j=5000 B=2.0 npix=153\n4\n", ":1: header field j=5000: level "
     "j=5000 needs > 8000000 pixels (cap)"),
    ("mask v1 j=2 B=1.0 npix=153\n4\n", ":1: header field B=1.0: bandwidth "
     "B=1.0 must be > 1 and finite"),
    ("mask v1 j=2 B=1e400 npix=153\n4\n", ":1: header field B=inf: bandwidth "
     "B=inf must be > 1 and finite"),
    # the header's B in full: not "at B=1", which reads as the refused B = 1
    ("mask v1 j=2 B=1.0000001 npix=9\n", ":1: header field npix=9 does not "
     "match the 15 pixels of the level-2 grid at B=1.0000001"),
])
def test_read_mask_rejects_bad_header(tmp_path, text, reason):
    path = tmp_path / "bad.mask"
    path.write_text(text)
    with pytest.raises(InvalidMaskFileError) as err:
        read_mask(path)
    assert str(path) in str(err.value)
    assert reason in str(err.value)


def test_read_mask_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.mask"
    path.write_bytes(b"mask v1 j=2 B=2.0 npix=153\n4\xff\n")
    with pytest.raises(InvalidMaskFileError) as err:
        read_mask(path)
    assert str(err.value) == f"{path}: byte 28 is not UTF-8"


def test_empty_mask_observes_everything(grid5):
    m = empty_mask(grid5, epsilon=0.3)
    assert m.n_observed == grid5.n_pixels
