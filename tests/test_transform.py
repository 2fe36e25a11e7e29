"""Tests for needlet analysis/synthesis, kernels, and theoretical covariances."""

import ast
import dataclasses
import gc
import importlib
import inspect
import math
import multiprocessing
import os
import pkgutil
import struct
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from weakref import ref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinlets import (SphPoint, build_cubature, build_window, draw_alm,
                      needlet_analyze, needlet_kernel, needlet_synthesize,
                      masked_analyze, power_law, theoretical_cov,
                      theoretical_corr, transform, wigner)
from spinlets.errors import (BandLimitExceededError, CoverageGapError,
                             InvalidCoefficientFileError, ResourceLimitError)
from spinlets.fields import SpinAlm
from spinlets.grid import CubatureGrid, empty_mask, polar_cap_mask
from spinlets.transform import (MAX_TABLE_BYTES, _check_table_size,
                                _harmonic_tables, _table_slot, analyze_on_grid,
                                frame_band, level_band, read_coefficients,
                                roundtrip_error, synthesize_on_grid,
                                write_coefficients)
from spinlets.wigner import d_table
from spinlets.window import _level, band_profile, window_support

from oracles import (analyze_on_grid_two_pass, kernel_sum_per_degree,
                     synthesize_on_grid_phi_major, synthesize_on_grid_two_pass)

B, S = 2.0, 2


@pytest.fixture(scope="module")
def win():
    return build_window(B)


@pytest.fixture(scope="module")
def half_model():
    return power_law(3.0, l_min=2).scaled(0.5)


def test_zero_alm_gives_zero_coefficients():
    grid = build_cubature(4, B)
    alm = SpinAlm.zeros(S, 31)
    coeffs = needlet_analyze(alm, grid)
    assert np.all(coeffs.values == 0.0)
    assert not coeffs.masked


def test_mode_outside_support_gives_zero():
    grid = build_cubature(4, B)
    alm = SpinAlm.zeros(S, 40)
    alm.alm_e[3, 1] = 1.0  # below the level-4 support [8, 31]
    coeffs = needlet_analyze(alm, grid)
    assert np.max(np.abs(coeffs.values)) < 1e-14


def test_grid_carries_its_level_window():
    grid = build_cubature(4, 1.7)
    assert grid.window.B == grid.B == 1.7
    assert "window" not in inspect.signature(CubatureGrid).parameters
    _level.cache_clear()
    coeffs = needlet_analyze(SpinAlm.zeros(S, 20), grid)
    assert coeffs.grid is grid
    assert not hasattr(coeffs, "j") and not hasattr(coeffs, "window")
    # the analysis cached the level of the grid's window, which an equal
    # window built anew hits
    assert _level.cache_info().currsize == 1
    hits = _level.cache_info().hits
    window_support(build_window(1.7), 4, S)
    assert _level.cache_info()[:2] == (hits + 1, 1)  # hits, misses


def test_analysis_stops_at_the_field_band_limit(half_model):
    # an L=20 field has no degree in the level-7 support (64..255 at B = 2):
    # the synthesis reads a table up to l = 20, not up to the support top
    grid = build_cubature(7, B)
    alm = draw_alm(half_model, half_model, S, 20, 12)
    _table_slot.clear()
    tracemalloc.start()
    try:
        coeffs = needlet_analyze(alm, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _table_slot.clear()
    assert peak < 32 * 2 ** 20, peak
    assert np.all(coeffs.values == 0.0)


def test_synthesis_refuses_mixed_bandwidths(half_model):
    alm = draw_alm(half_model, half_model, S, 12, 4)
    levels = [needlet_analyze(alm, build_cubature(j, B)) for j in range(4)]
    with pytest.raises(ValueError, match="bandwidths"):
        needlet_synthesize(levels + [needlet_analyze(alm, build_cubature(4, 2.5))],
                           12)
    with pytest.raises(ValueError, match="^levels mix spins$"):
        needlet_synthesize(levels + [replace(levels[3], s=S + 1)], 12)
    with pytest.raises(ValueError, match="^need at least one coefficient level$"):
        needlet_synthesize([], 12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(s=st.integers(0, 3), B_=st.floats(1.5, 3.0), top=st.integers(1, 20),
       seed=st.integers(0, 2 ** 16))
@example(s=3, B_=2.9, top=10, seed=1)  # level 0 exceeds its grid here
@example(s=3, B_=1.5, top=20, seed=2)
def test_frame_roundtrip_property(s, B_, top, seed):
    # analysis over every level that sees a degree <= L, then synthesis,
    # returns each degree above |s| (l = |s| has e_ls = 0, no level sees it)
    L = s + top
    half = power_law(3.0, l_min=max(1, s)).scaled(0.5)
    alm = draw_alm(half, half, s, L, seed)
    x_top = math.sqrt((L - s) * (L + s + 1))
    levels = []
    for j in range(int(math.log(x_top) / math.log(B_)) + 2):
        grid = build_cubature(j, B_)
        try:
            levels.append(needlet_analyze(alm, grid))
        except BandLimitExceededError:
            # refused only where the support top really exceeds the grid
            assert 2 * (window_support(grid.window, j, s).stop - 1) > grid.band_limit
            assume(False)
    recon = needlet_synthesize(levels, L=L)
    scale = max(np.max(np.abs(alm.alm_e)), np.max(np.abs(alm.alm_b)))
    for got, want in ((recon.alm_e, alm.alm_e), (recon.alm_b, alm.alm_b)):
        assert np.max(np.abs(got[s + 1:] - want[s + 1:])) <= 1e-10 * scale


def test_grid_too_coarse_raises():
    # spin 5 at level 2: support 6..9 needs exactness 18, the grid gives 16
    grid = build_cubature(2, B)
    alm = SpinAlm.zeros(5, 40)
    with pytest.raises(BandLimitExceededError):
        needlet_analyze(alm, grid)


def test_roundtrip_and_parseval(half_model):
    L = 30
    alm = draw_alm(half_model, half_model, S, L, 11)
    alm.alm_e[S, :] = 0.0  # e_ls = 0 degree is invisible to the frame
    alm.alm_b[S, :] = 0.0
    levels = [needlet_analyze(alm, build_cubature(j, B))
              for j in range(0, 7)]
    recon = needlet_synthesize(levels, L=L)
    assert np.max(np.abs(recon.alm_e - alm.alm_e)) < 1e-8
    assert np.max(np.abs(recon.alm_b - alm.alm_b)) < 1e-8
    total_beta = sum(float(np.sum(np.abs(c.values) ** 2)) for c in levels)
    norm = alm.norm_squared()
    assert abs(total_beta - norm) / norm < 1e-8


def test_roundtrip_error_reads_only_the_covered_degrees():
    # rows l <= |s| and degrees above the smaller band limit do not count
    alm, recon = SpinAlm.zeros(S, 10), SpinAlm.zeros(S, 8)
    alm.alm_e[S, 0] = alm.alm_b[1, 1] = 5.0
    alm.alm_e[9, 3] = alm.alm_b[10, 10] = 7.0
    assert roundtrip_error(alm, recon) == 0.0
    recon.alm_b[S + 1, 2] = 0.25j
    recon.alm_e[8, 8] = -0.5
    assert roundtrip_error(alm, recon) == roundtrip_error(recon, alm) == 0.5
    # at L = |s| no degree is covered
    lone = SpinAlm.zeros(-S, S)
    lone.alm_e[S, 1] = 3.0
    assert roundtrip_error(lone, SpinAlm.zeros(-S, S)) == 0.0


def test_synthesize_zero_levels():
    zero = SpinAlm.zeros(S, 15)
    levels = [needlet_analyze(zero, build_cubature(j, B))
              for j in range(0, 5)]
    recon = needlet_synthesize(levels, L=15)
    assert np.all(recon.alm_e == 0.0) and np.all(recon.alm_b == 0.0)


def test_coverage_gap_raises(half_model):
    alm = draw_alm(half_model, half_model, S, 30, 3)
    levels = [needlet_analyze(alm, build_cubature(j, B))
              for j in (0, 1, 4)]  # levels 2, 3 missing
    with pytest.raises(CoverageGapError):
        needlet_synthesize(levels, L=30)


def test_frame_band_is_the_fully_covered_top_at_most_l(monkeypatch):
    # levels 0..7 at B = 2 cover l <= 128 to rounding: a round trip rebuilds
    # min(L, 128), reading no table; a set with no covered degree, or with
    # one below a gap, is refused naming the levels
    monkeypatch.setattr(transform, "d_table", _no_table)
    grids = [build_cubature(j, B) for j in range(8)]
    assert frame_band(grids, S, 255) == 128
    assert frame_band(grids, S, 24) == 24
    assert frame_band(grids, -S, 129) == 128
    with pytest.raises(CoverageGapError) as err:
        frame_band(grids[4:5], S, 24)
    assert str(err.value) == "levels [4] fully cover no degree 2 < l <= 24"
    with pytest.raises(CoverageGapError) as err:
        frame_band(grids[:2], S, S)
    assert str(err.value) == "levels [0, 1] fully cover no degree 2 < l <= 2"
    with pytest.raises(CoverageGapError) as err:
        frame_band(grids[3:6], S, 24)
    assert str(err.value) == ("levels [3, 4, 5] leave coverage gaps at "
                              "degrees [3, 4, 5, 6, 7]")


def test_synthesis_refuses_an_l_its_levels_cover_only_in_part(half_model,
                                                              monkeypatch):
    # 1 - sum b^2 is 6.5e-13 .. 8.6e-7 at l = 129..131 for levels 0..7: an L
    # there is refused before any adjoint reads a table
    alm = draw_alm(half_model, half_model, S, 24, 3)
    levels = [needlet_analyze(alm, build_cubature(j, B)) for j in range(8)]
    monkeypatch.setattr(transform, "d_table", _no_table)
    for L in (129, 131):
        with pytest.raises(CoverageGapError) as err:
            needlet_synthesize(levels, L)
        assert str(err.value) == (f"levels {list(range(8))} do not fully "
                                  f"cover degree L={L}")


def test_masked_empty_agrees_with_spectral(half_model):
    # standing regression: quadrature path with empty mask == spectral path
    j = 4
    grid = build_cubature(j, B)
    alm = draw_alm(half_model, half_model, S, 31, 5)
    pix = synthesize_on_grid(alm.full_coeffs(), grid, S)
    star = masked_analyze(pix, empty_mask(grid), S)
    plain = needlet_analyze(alm, grid)
    assert star.masked and not plain.masked
    assert np.max(np.abs(star.values - plain.values)) < 1e-8


def test_masked_zero_map():
    j = 3
    grid = build_cubature(j, B)
    star = masked_analyze(np.zeros(grid.n_pixels, dtype=complex),
                          polar_cap_mask(grid, 0.1), S)
    assert np.all(star.values == 0.0)


@pytest.mark.parametrize("j", [3, 4, 5, 6])
def test_z_rotation_by_one_pixel_rolls_coefficients(win, half_model, j):
    # metamorphic, no reference implementation: a z-rotation by one longitude
    # step multiplies a_lm by e^{-im 2pi/n_phi}, keeps the local frame (no
    # spin phase) and moves every ring by one pixel; the polar cap maps to
    # itself, so masked coefficients roll too
    grid = build_cubature(j, B)
    mask = polar_cap_mask(grid, 0.10)
    for s in range(4):
        L = window_support(win, j, s).stop - 1
        alm = draw_alm(half_model, half_model, s, L, (808, j, s))
        turned = alm.copy()
        phase = np.exp(-1j * np.arange(L + 1) * 2 * math.pi / grid.n_phi)
        turned.alm_e *= phase
        turned.alm_b *= phase
        maps = [synthesize_on_grid(a.full_coeffs(), grid, s) for a in (alm, turned)]
        pairs = [[needlet_analyze(a, grid) for a in (alm, turned)],
                 [masked_analyze(f, mask, s) for f in maps]]
        for before, after in pairs:
            want = np.roll(before.values.reshape(grid.n_theta, grid.n_phi), 1, axis=1)
            got = after.values.reshape(grid.n_theta, grid.n_phi)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                (j, s, before.masked)


def test_masked_coefficient_error_decays_with_margin(win, half_model):
    # E|beta - beta*|^2 drops sharply as the distance to the mask grows
    j, reps = 5, 40
    grid = build_cubature(j, B)
    mask = polar_cap_mask(grid, 0.10)
    sup = window_support(win, j, S)
    L = sup.stop - 1
    vec = grid.unit_vectors
    ex = vec[mask.excluded]
    dmin = np.arccos(np.clip((vec @ ex.T).max(axis=1), -1.0, 1.0))
    eps = 3.0 * B ** (-j)
    near = ~mask.excluded & (dmin > eps) & (dmin < 1.5 * eps)
    far = dmin > 4 * eps
    acc_near = acc_far = 0.0
    for r in range(reps):
        alm = draw_alm(half_model, half_model, S, L, (31, r))
        pix = synthesize_on_grid(alm.full_coeffs(), grid, S)
        star = masked_analyze(pix, mask, S).values
        plain = needlet_analyze(alm, grid).values
        diff2 = np.abs(star - plain) ** 2
        acc_near += diff2[near].mean()
        acc_far += diff2[far].mean()
    assert acc_far < 1e-3 * acc_near


def test_coefficient_moments_match_theory(win, half_model):
    # E|beta_k|^2 equals the model variance and E beta_k beta_k' (no
    # conjugate) vanishes, across Monte Carlo replicates
    j, R = 3, 4000
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    sup = window_support(win, j, S)
    rng = np.random.default_rng(12)
    pix = rng.choice(grid.n_pixels, size=6, replace=False)
    beta = np.empty((R, pix.size), dtype=complex)
    for r in range(R):
        alm = draw_alm(half_model, half_model, S, sup.stop - 1, (71, r))
        beta[r] = needlet_analyze(alm, grid).values[pix]
    for i, k in enumerate(pix):
        power = np.abs(beta[:, i]) ** 2
        want = theoretical_cov(grid, model, int(k), int(k), S).real
        se = power.std(ddof=1) / math.sqrt(R)
        assert abs(power.mean() - want) < 3 * se
    pseudo = beta[:, 0] * beta[:, 1]
    for comp in (pseudo.real, pseudo.imag):
        assert abs(comp.mean()) < 3 * comp.std(ddof=1) / math.sqrt(R)


def test_kernel_peak_value(win):
    j = 4
    grid = build_cubature(j, B)
    k = grid.n_pixels // 2
    sup = window_support(win, j, S)
    ells = np.asarray(sup)
    from spinlets.window import band_profile
    b = band_profile(win, j, S, ells)
    want = math.sqrt(grid.weights[k]) * np.sum(b * (2 * ells + 1)) / (4 * math.pi)
    got = needlet_kernel(grid, k, grid.point(k), S)
    assert got.real == pytest.approx(want, rel=1e-10)
    assert abs(got.imag) < 1e-12


def test_kernel_far_tail_below_near_value():
    j = 5
    grid = build_cubature(j, B)
    k = (grid.n_theta // 2) * grid.n_phi
    th = grid.theta_pixels[k]
    near = abs(needlet_kernel(grid, k, SphPoint(th + 2 * B ** (-j), 0.0), S))
    far = abs(needlet_kernel(grid, k, SphPoint(th + 20 * B ** (-j), 0.0), S))
    assert far < 0.1 * near  # sharper 1e-2 bound is probed in acceptance


def test_empty_window_level_gives_zero_kernel():
    grid = build_cubature(0, B)
    val = needlet_kernel(grid, 0, SphPoint(1.0, 1.0), 25)
    assert val == 0.0
    # level 0 at s = 2 reads no degree either: covariance and correlation 0
    assert len(window_support(grid.window, 0, S)) == 0
    model = power_law(3.0, l_min=2)
    for k2 in (0, 1):
        for value in (theoretical_cov(grid, model, 0, k2, S),
                      theoretical_corr(grid, model, 0, k2, S)):
            assert type(value) is complex and value == 0j


def test_theoretical_cov_diagonal_and_correlation(win):
    j = 4
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    k = grid.n_pixels // 3
    var = theoretical_cov(grid, model, k, k, S)
    sup = window_support(win, j, S)
    ells = np.asarray(sup)
    from spinlets.fields import cl_profile
    from spinlets.window import band_profile
    b2 = band_profile(win, j, S, ells) ** 2
    want = grid.weights[k] * np.sum(b2 * cl_profile(model, ells)
                                    * (2 * ells + 1)) / (4 * math.pi)
    assert var.real == pytest.approx(want, rel=1e-12)
    assert var.imag == 0.0
    assert theoretical_corr(grid, model, k, k, S) == pytest.approx(1.0)


def test_correlation_decays():
    j = 5
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    k0 = (grid.n_theta // 2) * grid.n_phi
    ring = grid.n_theta // 2
    d_near = 2 * B ** (-j)
    d_far = 20 * B ** (-j)
    idx_near = ring * grid.n_phi + int(round(d_near / (2 * math.pi / grid.n_phi)))
    idx_far = ring * grid.n_phi + int(round(d_far / (2 * math.pi / grid.n_phi)))
    c_near = abs(theoretical_corr(grid, model, k0, idx_near, S))
    c_far = abs(theoretical_corr(grid, model, k0, idx_far, S))
    assert c_far < 0.05 * c_near


def test_phase_invariance_of_power(half_model):
    j = 4
    grid = build_cubature(j, B)
    alm = draw_alm(half_model, half_model, S, 31, 9)
    coeffs = needlet_analyze(alm, grid)
    # quarter-turn unit phases swap re/im exactly: bit-level invariance
    rng = np.random.default_rng(2)
    quarter = 1j ** rng.integers(0, 4, size=grid.n_pixels)
    rotated = coeffs.values * quarter
    assert np.array_equal(np.abs(rotated) ** 2, np.abs(coeffs.values) ** 2)
    # generic unit phases: invariance to roundoff
    phases = np.exp(1j * S * rng.uniform(0, 2 * math.pi, size=grid.n_pixels))
    rotated = coeffs.values * phases
    a, b = np.abs(rotated) ** 2, np.abs(coeffs.values) ** 2
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(b)


def test_snbc_roundtrip(tmp_path, half_model):
    j = 3
    grid = build_cubature(j, B)
    alm = draw_alm(half_model, half_model, S, 15, 8)
    coeffs = needlet_analyze(alm, grid)
    path = tmp_path / "lev3.snbc"
    write_coefficients(path, coeffs)
    raw = path.read_bytes()
    assert raw[:4] == b"SNBC"
    back = read_coefficients(path)
    assert (back.grid.j, back.grid.B, back.s) == (3, B, 2)
    assert back.grid.fingerprint == grid.fingerprint
    assert np.array_equal(back.values, coeffs.values)
    assert back.masked == coeffs.masked
    write_coefficients(path, back)  # write -> read -> write: the same bytes
    assert path.read_bytes() == raw


def test_snbc_malformed_files_name_the_field(tmp_path, half_model):
    grid = build_cubature(3, B)
    coeffs = needlet_analyze(draw_alm(half_model, half_model, S, 15, 8), grid)
    path = tmp_path / "lev3.snbc"
    write_coefficients(path, coeffs)
    good = path.read_bytes()
    cases = [
        (good[:5], "header has 5 bytes, SNBC v2 needs 29"),
        (b"SNBX" + good[4:], "magic b'SNBX' is not b'SNBC'"),
        # an SNBC v1 file: its 21-byte header has no bandwidth B
        (good[:4] + struct.pack("<IIiIB", 1, 3, S, grid.n_pixels, 0) + good[29:],
         "version 1 is not 2; write the file again with `spinlets transform`"),
        (good[:21] + struct.pack("<d", 1.0) + good[29:],
         "header field B=1.0: bandwidth B=1.0 must be > 1 and finite"),
        (good[:21] + struct.pack("<d", math.nan) + good[29:],
         "header field B=nan: bandwidth B=nan must be > 1 and finite"),
        (good[:21] + struct.pack("<d", math.inf) + good[29:],
         "header field B=inf: bandwidth B=inf must be > 1 and finite"),
        (good[:20] + bytes([7]) + good[21:], "header field masked=7 must be 0 or 1"),
        (good[:8] + struct.pack("<I", 40) + good[12:],
         "header field j=40: level j=40 needs > 8000000 pixels (cap)"),
        (good[:-16], f"payload has {16 * grid.n_pixels - 16} bytes, "
                     f"npix={grid.n_pixels} needs {16 * grid.n_pixels}"),
        (good + b"\0", f"payload has {16 * grid.n_pixels + 1} bytes"),
    ]
    for data, field in cases:
        path.write_bytes(data)
        with pytest.raises(InvalidCoefficientFileError) as err:
            read_coefficients(path)
        assert str(err.value).startswith(f"{path}: {field}")
    npix = grid.n_pixels + 1  # header bytes 16..20 hold npix
    path.write_bytes(good[:16] + npix.to_bytes(4, "little") + good[20:])
    with pytest.raises(InvalidCoefficientFileError,
                       match=rf"header field npix={npix} does not match the "
                             rf"{grid.n_pixels} pixels of the level-3 grid at B=2\.0$"):
        read_coefficients(path)
    # the same rule holds for coefficients built in memory
    with pytest.raises(ValueError, match="coefficient array length != grid "
                                         "pixel count"):
        replace(coeffs, values=coeffs.values[:-1])


def test_harmonic_tables_read_d_table_in_place(monkeypatch):
    built = []

    def recording_d_table(L, n, theta):
        built.append(d_table(L, n, theta))
        return built[-1]

    d_table = transform.d_table
    monkeypatch.setattr(transform, "d_table", recording_d_table)
    grid = build_cubature(4, B)
    _table_slot.clear()
    try:
        D = _harmonic_tables(grid, S, 24)[0]
    finally:
        _table_slot.clear()
    assert len(built) == 1
    assert np.shares_memory(D, built[0])
    assert D.shape == (49, 25, grid.n_theta)
    # a C-contiguous degree-major store; each order's block has unit stride
    # along theta and evenly strided rows, a matrix BLAS reads in place
    assert D.transpose(1, 0, 2).flags.c_contiguous
    assert all(D[k].strides == (D.shape[0] * D.shape[2] * D.itemsize, D.itemsize)
               for k in range(D.shape[0]))


def test_an_equal_grid_built_anew_hits_the_harmonic_tables(monkeypatch):
    from spinlets import grid as grid_module

    def no_grid(*args):
        raise AssertionError("a table build must not build a grid")

    calls, build = [], transform.d_table

    def counting_d_table(L, s, theta):
        calls.append(L)
        return build(L, s, theta)

    monkeypatch.setattr(transform, "d_table", counting_d_table)
    _table_slot.clear()
    try:
        first = _harmonic_tables(build_cubature(3, B), S, 12)
        monkeypatch.setattr(grid_module, "build_cubature", no_grid)
        grid = CubatureGrid(3, B)
        again = _harmonic_tables(grid, S, 12)
        # the gate runs before the slot empties: a refusal keeps the table
        with pytest.raises(BandLimitExceededError):
            _harmonic_tables(grid, S, 17)
        assert _harmonic_tables(grid, S, 12) is first
    finally:
        _table_slot.clear()
    assert again is first
    assert calls == [12]


def test_a_miss_frees_the_held_table_before_it_builds(monkeypatch):
    # one table per process: the previous D is gone when d_table runs, so a
    # level sweep never holds two tables at once; a spare mapping too small
    # for the next table is unmapped before the fresh one is made
    held, alive, maps = [], [], []
    build, fresh = transform.d_table, wigner._mapping

    def recording_d_table(L, s, theta):
        gc.collect()
        alive.append(bool(held) and held[-1]() is not None)
        return build(L, s, theta)

    def recording_mapping(nbytes):
        assert all(buf.closed for buf in maps)
        maps.append(fresh(nbytes))
        return maps[-1]

    monkeypatch.setattr(transform, "d_table", recording_d_table)
    monkeypatch.setattr(wigner, "_mapping", recording_mapping)
    _table_slot.clear()
    wigner._spare.clear()
    try:
        for j, L in ((3, 12), (4, 24), (4, 20), (3, 12), (5, 40)):
            held.append(ref(_harmonic_tables(build_cubature(j, B), S, L)[0]))
            assert len(_table_slot) == 1
    finally:
        _table_slot.clear()
    assert alive == [False] * 5
    # (4, 20) and (3, 12) are built into the pages (4, 24) left behind
    assert len(maps) == 3 and maps[:2] == [buf for buf in maps if buf.closed]


def _mapping_of(table):
    """The mmap under a d_table view: every view's base is the one array
    np.frombuffer made, whose base is a memoryview of the mapping."""
    return table.base.base.obj


def test_a_recycled_table_equals_a_fresh_one(win):
    # each build lands in the pages of the table before it, stale values of
    # another degree, spin or grid included, and reads bit for bit as a
    # table built into a fresh mapping, signed zeros included
    keys = [(j, s, window_support(win, j, s).stop - 1)
            for s in (0, S, -S) for j in (3, 7, 4, 7, 5)]
    keys += [(7, s, 1) for s in (S, -S)]  # L < |s|: the sweep writes nothing
    wigner._spare.clear()
    recycled = []
    for j, s, L in keys:
        theta = build_cubature(j, B).theta
        spare = list(wigner._spare)
        table = d_table(L, s, theta)
        recycled.append(spare == [_mapping_of(table)])
        fresh = d_table(L, s, theta)  # the spare is taken: a fresh mapping
        assert _mapping_of(fresh) not in spare + [_mapping_of(table)]
        assert _same_bits(table, fresh), (j, s, L)
        del fresh, table  # the recycled mapping is the spare again
    # only the first table and the first j = 7 one take fresh pages
    assert recycled == [False, False] + [True] * (len(keys) - 2)


def test_a_held_table_or_view_is_never_recycled():
    _table_slot.clear()
    try:
        D = _harmonic_tables(build_cubature(4, B), S, 24)[0]
        part = _harmonic_tables(build_cubature(5, B), -S, 40)[0][30:40, 10:]
        kept = D.copy(), part.copy()
        for j, s, L in ((3, 0, 12), (5, S, 63), (4, 1, 31), (3, S, 16),
                        (5, 0, 63), (4, -S, 24)):
            _harmonic_tables(build_cubature(j, B), s, L)
            gc.collect()
            assert _mapping_of(D) not in wigner._spare
            assert _mapping_of(part) not in wigner._spare
    finally:
        _table_slot.clear()
    assert _same_bits(D, kept[0]) and _same_bits(part, kept[1])


def test_level6_harmonic_tables_peak_memory(win):
    # The table itself lives in anonymous mmap memory, which tracemalloc does
    # not see (test_level6_table_keeps_its_zero_rows_out_of_ram bounds its
    # RSS); what is traced is the sweep's own arrays, one scratch buffer of a
    # degree's rows and row-sized temporaries.  Building the table
    # degree-major and copying it into the order-major layout peaked at 2x.
    j = 6
    L = window_support(win, j, S).stop - 1
    grid = build_cubature(j, B)
    _table_slot.clear()
    tracemalloc.start()
    try:
        D = _harmonic_tables(grid, S, L)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _table_slot.clear()
    assert peak <= 1.25 * D.nbytes, (peak, D.nbytes)


def _vm_rss():
    """Resident set size in bytes from /proc/self/status, None off Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return 1024 * int(line.split()[1])
    except OSError:
        pass
    return None


def test_level6_table_keeps_its_zero_rows_out_of_ram(win):
    # the rows l < max(|mu|, |s|), about half of the table, are never
    # written, so only the pages of the written rows become resident
    if _vm_rss() is None:
        pytest.skip("needs /proc/self/status")
    j = 6
    L = window_support(win, j, S).stop - 1
    grid = build_cubature(j, B)
    wigner._spare.clear()  # a fresh mapping, not the pages of an older table
    before = _vm_rss()
    D = d_table(L, S, grid.theta)
    grown = _vm_rss() - before
    assert grown <= 0.6 * D.nbytes, (grown, D.nbytes)


def test_a_recycled_table_drops_the_pages_of_its_gaps(win):
    # at n = L the sweep writes degree L alone, 1/(L+1) of the store; built
    # into the pages of a table at n = 0, the rest of them are dropped, not
    # zeroed in place
    if _vm_rss() is None:
        pytest.skip("needs /proc/self/status")
    L = window_support(win, 6, 0).stop - 1
    theta = build_cubature(6, B).theta
    wigner._spare.clear()
    before = _vm_rss()
    D = d_table(L, 0, theta)
    full, mapping = _vm_rss() - before, _mapping_of(D)
    del D
    D = d_table(L, L, theta)
    grown = _vm_rss() - before
    assert _mapping_of(D) is mapping
    assert full >= 0.4 * D.nbytes and grown <= 0.05 * D.nbytes, \
        (full, grown, D.nbytes)


def test_table_cap_admits_level_8_and_refuses_level_9(win, monkeypatch):
    # the cap counts written bytes, 8 n_theta per row l >= max(|mu|, |s|)
    for j, nbytes in ((8, 1_075_822_560), (9, 8_598_290_400)):
        grid = build_cubature(j, B)
        L = window_support(win, j, S).stop - 1
        assert nbytes == 8 * grid.n_theta * ((L + 1) ** 2 - S * S)
        if nbytes <= MAX_TABLE_BYTES:
            _check_table_size(grid, S, L)
            continue
        with pytest.raises(ResourceLimitError) as err:
            _check_table_size(grid, S, L)
        assert str(err.value) == (
            f"level j={j}: harmonic table at s={S}, L={L} needs {nbytes} "
            f"bytes > cap {MAX_TABLE_BYTES}")
    _check_table_size(build_cubature(9, B), S, 24)  # a small field passes

    def no_table(*args):
        raise AssertionError("an oversized table must not be allocated")

    # every table build is guarded, whoever asks for it
    monkeypatch.setattr(transform, "d_table", no_table)
    with pytest.raises(ResourceLimitError, match="level j=9: "):
        _harmonic_tables(build_cubature(9, B), S, 1023)


def test_level_support_keeps_the_exactness_message():
    # at B = 2.9 and s = 3 the level-0 window needs exactness degree 8
    with pytest.raises(BandLimitExceededError) as err:
        level_band(build_cubature(0, 2.9), 3)
    assert str(err.value) == "level j=0 needs exactness degree 8, grid provides 6"


def test_level_support_sizes_the_table_the_field_reads(win, monkeypatch):
    # level 9 reads no degree of an L = 24 field, all below its support
    # (|s|, as for an empty support), and is refused unbounded, before any
    # table is built
    monkeypatch.setattr(transform, "d_table", _no_table)
    grid = build_cubature(9, B)
    assert window_support(win, 9, S).start > 24
    assert level_band(grid, S, 24) == S  # no degree: its support starts at 258
    assert level_band(build_cubature(4, B), S, 24) == 24
    assert level_band(build_cubature(3, B), S, 24) == 15
    with pytest.raises(ResourceLimitError) as err:
        level_band(grid, S)
    assert str(err.value) == ("level j=9: harmonic table at s=2, L=1023 needs "
                              "8598290400 bytes > cap 2147483648")


def test_level_support_sizes_an_empty_support_at_the_spin(monkeypatch):
    sized = []
    monkeypatch.setattr(transform, "_check_table_size",
                        lambda grid, s, L: sized.append(L))
    grid = build_cubature(0, B)
    assert len(window_support(grid.window, 0, 25)) == 0
    assert level_band(grid, 25) == 25
    assert level_band(grid, -25, 40) == 25
    assert sized == [25, 25]


def test_harmonic_tables_refuse_unresolved_orders_before_the_table(monkeypatch):
    monkeypatch.setattr(transform, "d_table", _no_table)
    grid = build_cubature(3, B)
    assert (grid.n_phi - 1) // 2 == 16
    with pytest.raises(BandLimitExceededError) as err:
        _harmonic_tables(grid, S, 17)
    assert str(err.value) == "grid at level 3 resolves orders |m| <= 16, need 17"


def test_no_module_imports_a_private_name_of_another():
    # the package's modules share only public names (level_band, not
    # the checks behind it)
    src = Path(transform.__file__).parent
    private = [(path.name, node.module, alias.name)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_process_state_is_the_listed_stores():
    # what a process keeps between calls: unbounded functools.cache functions
    # of values, the one harmonic table slot, the one spare table mapping,
    # and constant tables; a
    # hand-rolled memo (a module dict, or a dict field no caller passes)
    # fails here
    src = Path(transform.__file__).parent
    modules = [importlib.import_module(name) for name in ["spinlets"] + [
        f"spinlets.{m.name}" for m in pkgutil.iter_modules([str(src)])]]
    cached, stores, memo_fields = set(), set(), set()
    for module in modules:
        home = module.__name__.split(".")[-1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__ \
                    and hasattr(obj, "cache_info"):
                assert obj.cache_parameters()["maxsize"] is None, name
                cached.add(f"{home}.{name}")
            if not name.startswith("__") and isinstance(
                    obj, (dict, list, set, bytearray, np.ndarray)):
                stores.add(f"{home}.{name}")
            if isinstance(obj, type) and obj.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(obj):
                memo_fields |= {f"{home}.{name}.{f.name}"
                                for f in dataclasses.fields(obj)
                                if not f.init and f.default_factory is dict}
    assert cached == {"grid.build_cubature", "window._level",
                      "window._psi_interpolator", "estimators._band_power",
                      "estimators._selection_of"}
    assert stores == {"transform._table_slot", "wigner._spare", "cli._SYNTAX",
                      "estimators.KINDS", "estimators.PAPER_KIND", "mc.FIELDS"}
    assert memo_fields == {"grid.RegionPair._interior_cache"}


def _no_table(*args):
    raise AssertionError("no table may be built")


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())  # signed zeros included


@pytest.mark.parametrize("s", [0, 1, 2, -3])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
def test_grid_transforms_equal_the_two_pass_products(j, s):
    # the chunked products group each order's sum otherwise than one gemv per
    # part over all rows, so the outputs agree to rounding, not bit for bit
    grid = build_cubature(j, B)
    rng = np.random.default_rng(100 * j + s)
    top = (grid.n_phi - 1) // 2  # the largest L the grid resolves

    def assert_close(got, oracle):
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    try:
        for L in sorted({abs(s), (abs(s) + top) // 2, top}):
            shape = (L + 1, 2 * L + 1)
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert_close(synthesize_on_grid(coeffs, grid, s),
                         synthesize_on_grid_two_pass(coeffs, grid, s))
            pix = rng.standard_normal((2, grid.n_pixels))
            values = pix[0] + 1j * pix[1]
            for w in (None, np.sqrt(grid.ring_weights)):
                assert_close(analyze_on_grid(values, grid, s, L, ring_weights=w),
                             analyze_on_grid_two_pass(values, grid, s, L, w))
    finally:
        _table_slot.clear()


@pytest.mark.parametrize("B_", [2.0, 1.5])
@pytest.mark.parametrize("s", [0, 2, -3])
def test_ring_major_synthesis_equals_the_phi_major_tail(s, B_, half_model):
    # the spectrum is written [ring, bin] and each ring's row is
    # inverse-transformed in place; pocketfft's arithmetic per transform does
    # not depend on the axis or on out=, so the map is the [phi, ring] tail's
    # bit for bit, from L = |s| up to the largest L the grid resolves (where
    # the runs m >= 0 and m < 0 meet), at both grids' zero gaps between them
    rng = np.random.default_rng(30 + s)
    try:
        for j in (3, 4, 5):
            grid = build_cubature(j, B_)
            top = level_band(grid, s)
            for L in sorted({abs(s), top, (grid.n_phi - 1) // 2}):
                shape = (L + 1, 2 * L + 1)
                coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                assert _same_bits(synthesize_on_grid(coeffs, grid, s),
                                  synthesize_on_grid_phi_major(coeffs, grid, s))
            # the analysis scales the ring-major map per ring, in place: the
            # per-pixel sqrt(lambda) product's bits
            alm = draw_alm(half_model, half_model, s, top, 10 * j + s)
            b = band_profile(grid.window, j, s, np.arange(top + 1))
            want = synthesize_on_grid(alm.full_coeffs() * b[:, None], grid, s) \
                * np.sqrt(grid.weights)
            assert _same_bits(needlet_analyze(alm, grid).values, want)
    finally:
        _table_slot.clear()


@pytest.mark.parametrize("s", [0, 2, -3])
def test_grid_transforms_never_read_the_zero_rows(s):
    # every run of ORDER_CHUNK orders is summed from its first nonzero row
    # max(smallest |mu|, |s|): NaN in the never-written rows below it must
    # not reach an output (the few zero rows above it are read)
    grid = build_cubature(4, B)
    L = (grid.n_phi - 1) // 2
    rng = np.random.default_rng(40 + s)
    shape = (L + 1, 2 * L + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pix = rng.standard_normal((2, grid.n_pixels))
    values = pix[0] + 1j * pix[1]
    weights = (None, np.sqrt(grid.ring_weights))
    _table_slot.clear()
    try:
        clean = [synthesize_on_grid(coeffs, grid, s)] + [
            analyze_on_grid(values, grid, s, L, ring_weights=w) for w in weights]
        D = _harmonic_tables(grid, s, L)[0]
        W = transform.ORDER_CHUNK
        for a in range(0, 2 * L + 1, W):
            mu = np.arange(a, min(a + W, 2 * L + 1)) - L
            D[a:a + W, :max(np.abs(mu).min(), abs(s))] = np.nan
        poisoned = [synthesize_on_grid(coeffs, grid, s)] + [
            analyze_on_grid(values, grid, s, L, ring_weights=w) for w in weights]
        assert all(_same_bits(a, b) for a, b in zip(poisoned, clean))
    finally:
        _table_slot.clear()


def test_level6_transforms_do_not_copy_the_table(win):
    # each chunk reads a view of D and every temporary is coefficient-sized:
    # a warm transform peaks at a few percent of the table it reads
    j = 6
    L = window_support(win, j, S).stop - 1
    grid = build_cubature(j, B)
    rng = np.random.default_rng(6)
    coeffs = rng.standard_normal((L + 1, 2 * L + 1)) + 0.5j
    values = rng.standard_normal(grid.n_pixels) + 0.5j
    _table_slot.clear()
    try:
        D = _harmonic_tables(grid, S, L)[0]
        for transform_once in (lambda: synthesize_on_grid(coeffs, grid, S),
                               lambda: analyze_on_grid(values, grid, S, L)):
            transform_once()
            tracemalloc.start()
            try:
                transform_once()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.05 * D.nbytes, (peak, D.nbytes)
    finally:
        _table_slot.clear()


def _cpus(monkeypatch, n):
    # the CPUs the process may run on, as _run_chunks reads them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _thread_spy(monkeypatch):
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


def _level_transforms(j, s):
    """synthesize_on_grid, then analyze_on_grid at both ring weightings, of
    random inputs at level j's top degree."""
    grid = build_cubature(j, B)
    L = level_band(grid, s)
    rng = np.random.default_rng(60 + j + s)
    shape = (L + 1, 2 * L + 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pix = rng.standard_normal((2, grid.n_pixels))
    values = pix[0] + 1j * pix[1]
    return [synthesize_on_grid(coeffs, grid, s)] + [
        analyze_on_grid(values, grid, s, L, ring_weights=w)
        for w in (None, np.sqrt(grid.ring_weights))]


@pytest.mark.parametrize("s", [0, 2, -3])
def test_the_helper_thread_keeps_the_bits_of_one_thread(s, monkeypatch):
    # each chunk writes its own slice through the same product, whichever
    # thread runs it
    started = _thread_spy(monkeypatch)
    try:
        _cpus(monkeypatch, 2)
        shared = _level_transforms(6, s)
        assert len(started) == 3
        _cpus(monkeypatch, 1)
        alone = _level_transforms(6, s)
        assert len(started) == 3
    finally:
        _table_slot.clear()
    assert all(_same_bits(a, b) for a, b in zip(shared, alone))


def test_the_helper_starts_at_level_6_and_not_at_level_5(monkeypatch):
    # level 5's table writes 2.1 MB, under THREAD_TABLE_BYTES; level 6's 16.9
    started = _thread_spy(monkeypatch)
    _cpus(monkeypatch, 2)
    try:
        for j, threads in ((5, 0), (6, 3)):
            started.clear()
            _level_transforms(j, S)
            grid = build_cubature(j, B)
            table = transform._table_bytes(grid.n_theta, S,
                                           level_band(grid, S))
            assert (table >= transform.THREAD_TABLE_BYTES) == (threads > 0)
            assert len(started) == threads, j
            assert not any(t.is_alive() for t in started)
    finally:
        _table_slot.clear()


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    started = _thread_spy(monkeypatch)
    _cpus(monkeypatch, 1)
    try:
        _level_transforms(6, S)
    finally:
        _table_slot.clear()
    assert started == []


@pytest.mark.parametrize("side, error", [
    (0, ArithmeticError), (1, ArithmeticError),
    (0, KeyboardInterrupt), (1, KeyboardInterrupt)],
    ids=["0", "1", "0-KeyboardInterrupt", "1-KeyboardInterrupt"])
def test_a_chunk_error_reaches_the_caller_and_leaves_no_thread(side, error,
                                                               monkeypatch):
    # side 1 raises in a chunk the helper runs, side 0 in one the caller
    # runs; KeyboardInterrupt is a BaseException, not an Exception
    started = _thread_spy(monkeypatch)
    _cpus(monkeypatch, 2)
    L, s, n_theta = 127, S, 129
    failing = list(transform._order_chunks(L, s))[2 + side][0]
    ran = []

    def product(orders, lo):
        if orders == failing:
            raise error(f"chunk {orders}")
        ran.append(orders)

    before = threading.active_count()
    with pytest.raises(error, match="chunk"):
        transform._run_chunks(product, L, s, n_theta)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before
    assert failing not in ran


def _threads_in_child(j):
    started = _thread_spy(pytest.MonkeyPatch())
    _level_transforms(j, S)
    return len(started)


def test_a_pool_worker_starts_no_thread(monkeypatch):
    # a run_experiment worker's siblings hold the other CPUs
    _cpus(monkeypatch, 2)
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_threads_in_child, 6).result() == 0


def test_needlet_kernel_and_cov_equal_per_degree_kernel_sums(win):
    j = 4
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    sup = window_support(win, j, S)
    ells = np.asarray(sup)
    b = band_profile(win, j, S, ells)
    w = b ** 2 * transform.cl_profile(model, ells)
    k = grid.n_pixels // 2 + 5
    for p in (grid.point(k), grid.point(3), SphPoint(0.0, 1.0),
              SphPoint(math.pi, 2.0), SphPoint(0.7, 4.0)):
        want = complex(math.sqrt(grid.weights[k])
                       * kernel_sum_per_degree(S, p, grid.point(k), sup, b))
        assert needlet_kernel(grid, k, p, S) == want
    for k2 in (3, k + 1, k + grid.n_phi, grid.n_pixels - 1):
        want = complex(math.sqrt(grid.weights[k] * grid.weights[k2])
                       * kernel_sum_per_degree(S, grid.point(k), grid.point(k2), sup, w))
        assert theoretical_cov(grid, model, k, k2, S) == want
