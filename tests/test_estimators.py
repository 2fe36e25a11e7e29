"""Tests for band-power estimators, test statistics, and subsampling."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlets import (build_cubature, build_window, draw_alm, estimate,
                      estimate_ap, estimate_asymmetry, estimate_cp,
                      estimate_masked, gamma_theoretical, hausman_statistic,
                      hemispheres, needlet_analyze, masked_analyze, power_law,
                      subsampling_variance)
from spinlets import estimators
from spinlets.errors import (EmptyRegionError, InvalidChannelCountError,
                             InvalidConfigError, MaskedFlagMismatchError,
                             MissingNoiseModelError, NonpositiveVarianceError,
                             SelfCheckError, TooFewBlocksError)
from spinlets.estimators import (KINDS, PAPER_KIND, EstimateReport,
                                 _exact_sum, block_labels, estimate_hausman)
from spinlets.fields import PowerSpectrumModel
from spinlets.grid import CubatureGrid, empty_mask, polar_cap_mask
from spinlets.transform import synthesize_on_grid
from spinlets.window import band_profile, window_support

from oracles import block_labels_loop, fsum_reference

B, S = 2.0, 2


@pytest.fixture(scope="module")
def win():
    return build_window(B)


@pytest.fixture(scope="module")
def grid4():
    return build_cubature(4, B)


def _coeffs(win, grid, j, seed, L=None):
    half = power_law(3.0, l_min=2).scaled(0.5)
    sup = window_support(win, j, S)
    L = L or sup.stop - 1
    alm = draw_alm(half, half, S, L, seed)
    return needlet_analyze(alm, grid)


def test_gamma_single_degree_spectrum(win):
    # spectrum concentrated where b = 1 exactly would give (2 l0 + 1); our
    # window peaks at b = 1 only at sqrt(e) = B^j, so check the sum directly
    j = 4
    sup = window_support(win, j, S)
    l0 = sup.start + len(sup) // 2
    spike = PowerSpectrumModel(alpha=0.0, l_min=l0,
                               g=lambda l: np.where(l == l0, 1.0, 0.0))
    got = gamma_theoretical(win, spike, j, S)
    b0 = band_profile(win, j, S, np.array([l0]))[0]
    assert got == pytest.approx(b0 ** 2 * (2 * l0 + 1), rel=1e-12)
    assert got >= 0.0


def test_gamma_scaling_across_levels(win):
    # log Gamma vs j slope approaches (2 - alpha) log B
    model = power_law(3.0, l_min=2)
    js = np.arange(3, 9)
    gammas = [gamma_theoretical(win, model, j, S) for j in js]
    slope = np.polyfit(js, np.log(gammas), 1)[0]
    want = (2 - 3.0) * math.log(B)
    assert abs(slope - want) < 0.1 * abs(want)


def test_gamma_empty_support_warns(win):
    model = power_law(3.0, l_min=2)
    for _ in range(3):  # on every call, not only before the band power is kept
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            val = gamma_theoretical(win, model, 0, 25)
        assert val == 0.0
        assert any("empty window support" in str(w.message) for w in rec)


def test_gamma_is_kept_per_level_spin_and_model():
    cached = estimators._band_power
    cached.cache_clear()
    window, model = build_window(B), power_law(3.0, l_min=2)
    first = gamma_theoretical(window, model, 5, S)
    assert gamma_theoretical(window, model, 5, S) == first
    # a window and a model built anew, equal to the first, hit
    assert gamma_theoretical(build_window(B), power_law(3.0, l_min=2), 5,
                             S) == first
    assert cached.cache_info()[:2] == (2, 1)  # hits, misses
    # another amplitude, B, level or spin misses
    other = power_law(3.0, l_min=2, amplitude=2.0)
    assert gamma_theoretical(window, other, 5, S) == pytest.approx(2 * first,
                                                                   rel=1e-15)
    assert gamma_theoretical(build_window(1.9), model, 5, S) != first
    for j, s in ((6, S), (5, S + 1)):
        gamma_theoretical(window, model, j, s)
    assert cached.cache_info()[:2] == (2, 5)
    cached.cache_clear()  # computed again, the same bits
    assert gamma_theoretical(window, model, 5, S) == first


def test_gamma_of_silent_noise_model_is_zero(win):
    silent = power_law(2.5, l_min=2, kind="noise", amplitude=0.0)
    assert gamma_theoretical(win, silent, 5, S) == 0.0


def test_masked_flag_contracts(win, grid4, monkeypatch):
    # estimate_masked reports the kind its coefficients give; the dispatch
    # refuses, before the call, coefficients whose masked flag the kind
    # does not read: masked for "masked", unmasked for gapfree and channels
    model = power_law(3.0, l_min=2)
    mask = empty_mask(grid4)
    plain = _coeffs(win, grid4, 4, 1)
    pix = synthesize_on_grid(
        draw_alm(model.scaled(0.5), model.scaled(0.5), S, 31, 1).full_coeffs(),
        grid4, S)
    star = masked_analyze(pix, mask, S)
    assert estimate_masked(plain, mask, model).kind == "unfeasible"
    assert estimate_masked(star, mask, model).kind == "masked"
    for kind, coeffs in (("masked", plain), ("unfeasible", star)):
        inputs = {"masked": coeffs, "gapfree": coeffs, "mask": mask,
                  "signal": model}
        with pytest.raises(MaskedFlagMismatchError, match=f"kind={kind}"):
            estimate(kind, inputs)
    calls = []
    monkeypatch.setattr(estimators, "estimate_asymmetry",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(estimators, "estimate_cp",
                        lambda *args: calls.append(args))
    with pytest.raises(MaskedFlagMismatchError,
                       match="gapfree input 0 has masked=True"):
        estimate("asymmetry", {"gapfree": star, "regions": None,
                               "signal": model})
    with pytest.raises(MaskedFlagMismatchError,
                       match="channels input 1 has masked=True"):
        estimate("cp", {"channels": [plain, star], "signal": model})
    assert calls == []
    inputs = {"masked": star, "gapfree": plain, "mask": mask,
              "signal": model}
    for kind in ("masked", "unfeasible"):
        rep = estimate(kind, inputs)
        assert rep.kind == kind
        assert rep.value == estimate_masked(inputs[KINDS[kind].args[0]],
                                            mask, model).value


def test_dispatch_looks_estimators_up_at_call_time(win, grid4, monkeypatch):
    with pytest.raises(InvalidConfigError, match="nope"):
        estimate("nope", {})
    # the estimator is looked up by name on each call, so a replacement
    # installed on the module (as a tracer installs its wrappers) is used
    model, noise, coeffs = _channel_setup(win, grid4, 4, 18)
    calls = []

    def recording_cp(*args):
        calls.append(len(args))
        return estimate_cp(*args)

    monkeypatch.setattr(estimators, "estimate_cp", recording_cp)
    rep = estimate("cp", {"channels": coeffs, "signal": model})
    assert rep.kind == "cp" and calls == [2]
    estimate("hausman", {"channels": coeffs, "noise": noise,
                         "signal": model})
    assert calls == [2, 2]


def test_masked_zero_map_gives_zero(grid4):
    model = power_law(3.0, l_min=2)
    mask = empty_mask(grid4)
    star = masked_analyze(np.zeros(grid4.n_pixels, dtype=complex), mask, S)
    rep = estimate_masked(star, mask, model)
    assert rep.value == 0.0
    assert rep.kind == "masked" and PAPER_KIND[rep.kind] == "masked_spectral"


def test_unfeasible_equals_masked_on_empty_mask(grid4):
    model = power_law(3.0, l_min=2)
    mask = empty_mask(grid4)
    half = model.scaled(0.5)
    alm = draw_alm(half, half, S, 31, 2)
    pix = synthesize_on_grid(alm.full_coeffs(), grid4, S)
    star = masked_analyze(pix, mask, S)
    plain = needlet_analyze(alm, grid4)
    a = estimate_masked(star, mask, model)
    b = estimate_masked(plain, mask, model)
    assert a.value == pytest.approx(b.value, rel=1e-10)
    assert a.theoretical_target == b.theoretical_target
    with pytest.raises(ValueError, match="^mask and coefficients use different"):
        estimate_masked(plain, empty_mask(build_cubature(3, B)), model)


def test_estimator_phase_invariance(win, grid4):
    model = power_law(3.0, l_min=2)
    mask = empty_mask(grid4)
    coeffs = _coeffs(win, grid4, 4, 3)
    base = estimate_masked(coeffs, mask, model)
    rng = np.random.default_rng(0)
    coeffs.values = coeffs.values * 1j ** rng.integers(0, 4, coeffs.values.size)
    rotated = estimate_masked(coeffs, mask, model)
    assert rotated.value == base.value  # bit-level for |.|^2 statistics


def test_masked_expectation_full_sky(win):
    # empty mask: E masked-estimate = Gamma within 3 standard errors
    j, R = 3, 400
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    half = model.scaled(0.5)
    mask = empty_mask(grid)
    sup = window_support(win, j, S)
    vals = []
    for r in range(R):
        alm = draw_alm(half, half, S, sup.stop - 1, (50, r))
        pix = synthesize_on_grid(alm.full_coeffs(), grid, S)
        star = masked_analyze(pix, mask, S)
        vals.append(estimate_masked(star, mask, model).value)
    vals = np.array(vals)
    gamma = gamma_theoretical(win, model, j, S)
    se = vals.std(ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - gamma) < 3 * se


def test_subsampling_constant_and_scaling(win):
    grid = build_cubature(5, B)
    # zero map -> zero coefficients -> zero variance estimate
    assert subsampling_variance(np.zeros(grid.n_pixels), grid) == 0.0
    # a deterministic power profile E|beta_k|^2 = lambda_k * const has the
    # same block statistic everywhere, so the spread is exactly zero
    assert subsampling_variance(0.37 * grid.weights, grid) == pytest.approx(0.0, abs=1e-20)
    rng = np.random.default_rng(4)
    x = grid.weights * rng.standard_normal(grid.n_pixels) ** 2
    v1 = subsampling_variance(x, grid)
    v2 = subsampling_variance(4.0 * x, grid)  # doubled field amplitude
    assert v2 == pytest.approx(16.0 * v1, rel=1e-12)
    assert v1 > 0.0


def test_subsampling_matches_mc_variance_iid(win):
    # iid-like regime: per-pixel powers with mean proportional to lambda_k
    # (as needlet power at high j, where correlations are negligible)
    grid = build_cubature(5, B)
    rng = np.random.default_rng(9)
    lam = grid.weights
    stats, subs = [], []
    for _ in range(200):
        x = lam * rng.standard_normal(grid.n_pixels) ** 2
        stats.append(4 * math.pi * np.sum(x) / lam.sum())
        subs.append(subsampling_variance(x, grid))
    ratio = np.mean(subs) / np.var(stats, ddof=1)
    assert 0.5 < ratio < 2.0


def test_subsampling_too_few_blocks(win):
    grid = build_cubature(1, B)  # 15 pixels only
    with pytest.raises(TooFewBlocksError):
        subsampling_variance(np.ones(grid.n_pixels), grid)


def _assert_labels_match_loop(grid, observed, n_blocks=None):
    labels = block_labels(grid, observed, n_blocks)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, block_labels_loop(grid, observed, n_blocks))
    return labels


def test_block_labels_match_loop_on_plan_selections():
    for j in range(3, 8):
        grid = build_cubature(j, B)
        _assert_labels_match_loop(grid, np.ones(grid.n_pixels, dtype=bool))
    for j in (4, 5):
        grid = build_cubature(j, B)
        eps = 3.0 * B ** (-j)
        _assert_labels_match_loop(grid, polar_cap_mask(grid, 0.10, eps).observed)
        regions = hemispheres(grid, epsilon=eps)
        for which in (1, 2):
            _assert_labels_match_loop(grid, regions.interior(which))
    grid = build_cubature(4, B)
    for n_blocks in (1, 8, 30, 97, 400):
        _assert_labels_match_loop(grid, np.ones(grid.n_pixels, dtype=bool),
                                  n_blocks)


def _runt_branches(grid, observed, n_blocks):
    """Which merge rules block_labels applies: its cells, then its carry walk."""
    idx = np.flatnonzero(observed)
    if n_blocks is None:
        n_blocks = max(8, math.ceil(math.sqrt(idx.size) / 4.0))
    n_lat = max(2, int(round(math.sqrt(n_blocks / 2.0))))
    n_lon = max(2, math.ceil(n_blocks / n_lat))
    w = grid.weights[idx]
    cum = np.cumsum(w) - 0.5 * w
    band = np.minimum((cum / cum[-1] * n_lat).astype(int), n_lat - 1)
    sector = np.minimum((grid.phi_pixels[idx] / (2.0 * math.pi)
                         * n_lon).astype(int), n_lon - 1)
    cells = np.bincount(band * n_lon + sector, minlength=n_lat * n_lon)
    hit = set()
    for row in cells.reshape(n_lat, n_lon).tolist():
        if 0 in row:
            hit.add("empty sector")
        carry = None
        for i, count in enumerate(row):
            if count == 0 and carry is None:
                continue
            if carry is not None:
                hit.add("interior runt")
                row[i] += row[carry]
                row[carry] = 0
                carry = None
            if row[i] < 16:
                carry = i
        if carry is not None:
            hit.add("trailing runt folded" if max(row) >= 16
                    else "trailing runt kept")
    return hit


def test_block_labels_match_loop_on_random_holes():
    # levels 2..5, each with the default n_blocks (None) twice and 46 draws
    # from 1..120
    hit = set()
    for seed in range(192):
        rng = np.random.default_rng(seed)
        grid = build_cubature(2 + seed % 4, B)
        wedge = np.minimum((grid.phi_pixels / (2.0 * math.pi) * 24).astype(int),
                           23)
        n_blocks = None if seed < 8 else int(rng.integers(1, 121))
        density = rng.choice([0.0, 0.05, 0.2, 1.0], size=24,
                             p=[0.2, 0.3, 0.2, 0.3]) * rng.choice([1.0, 0.1])
        observed = rng.random(grid.n_pixels) < density[wedge]
        if not observed.any():  # see test_block_labels_empty_selection
            continue
        labels = _assert_labels_match_loop(grid, observed, n_blocks)
        branches = _runt_branches(grid, observed, n_blocks)
        # pixels stay unlabelled only in a runt no block of its band can take
        assert ("trailing runt kept" in branches) == \
            bool(np.any(labels[observed] < 0))
        hit |= branches
    assert hit == {"empty sector", "interior runt", "trailing runt folded",
                   "trailing runt kept"}


def test_block_labels_empty_selection(grid4):
    none = np.zeros(grid4.n_pixels, dtype=bool)
    assert np.all(block_labels(grid4, none) == -1)
    with pytest.raises(TooFewBlocksError):
        subsampling_variance(np.ones(grid4.n_pixels), grid4, observed=none)


def _level4_selections(grid):
    eps = 3.0 * B ** (-4)
    return [np.ones(grid.n_pixels, dtype=bool),
            polar_cap_mask(grid, 0.10, eps).observed,
            hemispheres(grid, epsilon=eps).interior(1)]


def test_block_labels_hit_equals_the_loop_and_a_fresh_grid():
    cached = estimators._selection_of
    cached.cache_clear()
    grid = CubatureGrid(j=4, B=B)
    selections = _level4_selections(grid)
    hits = []
    for n, observed in enumerate(selections, start=1):
        block_labels(grid, observed)
        assert cached.cache_info()[:2] == (n - 1, n)  # hits, misses
        # an equal grid built anew hits
        hits.append(block_labels(CubatureGrid(j=4, B=B), observed))
        assert cached.cache_info()[:2] == (n, n)
        assert np.array_equal(hits[-1], block_labels_loop(grid, observed))
    # another B misses, even where its rings and pixels are those of B = 2
    other = CubatureGrid(j=4, B=1.999)
    assert other.n_pixels == grid.n_pixels
    block_labels(other, selections[0])
    assert cached.cache_info()[:2] == (3, 4)
    # the cache keeps runs of labels, not an array over the pixels
    for observed in selections:
        sizes = [a.size for a in estimators._selection(grid, observed)
                 if isinstance(a, np.ndarray)]
        assert max(sizes) < grid.n_pixels // 4
    cached.cache_clear()  # computed again, the same labels
    for observed, hit in zip(selections, hits):
        assert np.array_equal(block_labels(grid, observed), hit)


def test_block_labels_returns_a_fresh_array():
    grid = CubatureGrid(j=4, B=B)
    observed = np.ones(grid.n_pixels, dtype=bool)
    labels = block_labels(grid, observed)
    want = labels.copy()
    labels[:] = 7
    assert np.array_equal(block_labels(grid, observed), want)


def test_selections_of_equal_size_get_distinct_entries():
    estimators._selection_of.cache_clear()
    grid = CubatureGrid(j=4, B=B)
    first, second = np.zeros((2, grid.n_pixels), dtype=bool)
    first[:1000], second[1000:2000] = True, True
    weights = np.ones(grid.n_pixels)
    for observed in (first, second):
        assert np.array_equal(block_labels(grid, observed),
                              block_labels_loop(grid, observed))
        assert estimators._weighted_estimate(weights, grid, observed) == \
            4.0 * math.pi * 1000 / fsum_reference(grid.weights[observed])
    assert estimators._selection_of.cache_info().currsize == 2


def _subsampling_reference(values, grid, observed):
    """The block-subsampling variance from the loop labels, step by step."""
    labels = block_labels_loop(grid, observed)
    used = labels >= 0
    n_b = labels[used].max() + 1
    w_b = np.bincount(labels[used], weights=grid.weights[used], minlength=n_b)
    v_b = np.bincount(labels[used], weights=values[used], minlength=n_b)
    W = w_b.sum()
    s_b = 4.0 * math.pi * v_b / w_b
    s_full = 4.0 * math.pi * v_b.sum() / W
    shares = w_b / W
    denom = 1.0 - float(np.sum(shares ** 2))
    var = float(np.sum(shares ** 2 * (s_b - s_full) ** 2) / denom)
    nu = n_b - 1
    return var * (nu / (nu - 2.0)) if nu > 2 else var


def test_variance_and_estimate_on_a_hit_equal_a_fresh_grid():
    grid = CubatureGrid(j=4, B=B)
    rng = np.random.default_rng(11)
    for observed in _level4_selections(grid):
        for _ in range(3):  # the first fills the cache, the others hit it
            x = rng.standard_normal(grid.n_pixels) ** 2
            variance = subsampling_variance(x, grid, observed)
            assert variance == _subsampling_reference(x, grid, observed)
            value = estimators._weighted_estimate(x, grid, observed)
            assert value == 4.0 * math.pi * fsum_reference(x[observed]) \
                / fsum_reference(grid.weights[observed])
        estimators._selection_of.cache_clear()  # computed again, on a new grid
        fresh = CubatureGrid(j=4, B=B)
        assert variance == subsampling_variance(x, fresh, observed)
        assert value == estimators._weighted_estimate(x, fresh, observed)


def test_asymmetry_regions_and_errors(win, grid4):
    model = power_law(3.0, l_min=2)
    coeffs = _coeffs(win, grid4, 4, 5)
    regions = hemispheres(grid4, epsilon=3.0 * B ** (-4))
    rep = estimate_asymmetry(coeffs, regions, model)
    assert rep.theoretical_target == 0.0
    assert rep.variance_estimate == pytest.approx(
        rep.meta["region1_variance"] + rep.meta["region2_variance"])
    assert rep.value == pytest.approx(
        rep.meta["region1_value"] - rep.meta["region2_value"])
    big = hemispheres(grid4, epsilon=2.0)  # interiors empty
    with pytest.raises(EmptyRegionError):
        estimate_asymmetry(coeffs, big, model)
    with pytest.raises(ValueError, match="^regions and coefficients use different"):
        estimate_asymmetry(coeffs, hemispheres(build_cubature(3, B)), model)


def test_ap_cp_zero_noise_consistency(win, grid4):
    # two identical noiseless channels: AP == CP == plain band-power sum
    model = power_law(3.0, l_min=2)
    coeffs = _coeffs(win, grid4, 4, 6)
    silent = [power_law(2.5, l_min=2, kind="noise", amplitude=0.0)] * 2
    ap = estimate_ap([coeffs, coeffs], silent, model)
    cp = estimate_cp([coeffs, coeffs], model)
    direct = float(np.sum(np.abs(coeffs.values) ** 2))
    assert ap.value == pytest.approx(direct, rel=1e-12)
    assert ap.value == pytest.approx(cp.value, rel=1e-10)


def test_ap_noise_model_count(win, grid4):
    model = power_law(3.0, l_min=2)
    coeffs = _coeffs(win, grid4, 4, 7)
    with pytest.raises(MissingNoiseModelError):
        estimate_ap([coeffs, coeffs], [power_law(2.5, kind="noise")], model)


def test_cp_needs_two_channels(win, grid4):
    model = power_law(3.0, l_min=2)
    coeffs = _coeffs(win, grid4, 4, 8)
    with pytest.raises(InvalidChannelCountError, match="at least 2 channels"):
        estimate_cp([coeffs], model)
    with pytest.raises(InvalidChannelCountError, match="^no channels provided$"):
        estimate_cp([], model)
    level3 = _coeffs(win, build_cubature(3, B), 3, 8)
    for other in (level3, replace(coeffs, s=S + 1)):
        with pytest.raises(ValueError, match=r"must share \(s, grid\)"):
            estimate_cp([coeffs, other], model)


def test_cp_common_phase_invariance(win, grid4):
    model = power_law(3.0, l_min=2)
    c1 = _coeffs(win, grid4, 4, 9)
    c2 = _coeffs(win, grid4, 4, 10)
    base = estimate_cp([c1, c2], model)
    rng = np.random.default_rng(1)
    shared = np.exp(1j * S * rng.uniform(0, 2 * math.pi, grid4.n_pixels))
    c1.values = c1.values * shared
    c2.values = c2.values * shared
    rotated = estimate_cp([c1, c2], model)
    assert rotated.value == pytest.approx(base.value, rel=1e-12)


def test_coupling_at_fixed_dilation(win):
    # polar-cap mask with a fixed 0.2 rad dilation at j = 5: the masked and
    # gap-free estimators couple tightly (mean |diff|/sd < 0.1) and their
    # variances agree within 5%
    from spinlets.mc import ExperimentPlan, run_experiment
    j = 5
    eps_scale = 0.2 / (B ** (-j))
    plan = ExperimentPlan(B=B, s=S, j_list=(j,), alpha=3.0, replicates=150,
                          base_seed=808, kinds=("masked", "unfeasible"),
                          mask_fraction=0.10, epsilon_scale=eps_scale)
    _, rows = run_experiment(plan)
    vals = {"masked": [], "unfeasible": []}
    for r in rows:
        vals[r[2]].append(r[3])
    m = np.array(vals["masked"])
    u = np.array(vals["unfeasible"])
    assert np.mean(np.abs(m - u)) / m.std(ddof=1) < 0.1
    assert 0.95 < u.var(ddof=1) / m.var(ddof=1) < 1.05


def test_asymmetry_power_on_stitched_field(win):
    # two independent draws stitched at the equator, northern spectrum
    # doubled: the standardized statistic strays far positive
    j, R = 5, 25
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    half, boosted = model.scaled(0.5), model.scaled(1.0)
    regions = hemispheres(grid, epsilon=3.0 * B ** (-j))
    mask = empty_mask(grid)
    north = grid.cos_theta_pixels > 0.0
    sup = window_support(win, j, S)
    stats = []
    for r in range(R):
        south_alm = draw_alm(half, half, S, sup.stop - 1, (61, r, 0))
        north_alm = draw_alm(boosted, boosted, S, sup.stop - 1, (61, r, 1))
        pix = np.where(north,
                       synthesize_on_grid(north_alm.full_coeffs(), grid, S),
                       synthesize_on_grid(south_alm.full_coeffs(), grid, S))
        coeffs = masked_analyze(pix, mask, S)
        stats.append(estimate_asymmetry(coeffs, regions, model).standardized)
    assert np.mean(stats) > 3.0


def _channel_setup(win, grid, j, seed, d=3, bias_factor=1.0):
    model = power_law(3.0, l_min=2)
    noise = [power_law(2.5, l_min=2, kind="noise", amplitude=1.0)] * d
    half = model.scaled(0.5)
    sup = window_support(win, j, S)
    signal = draw_alm(half, half, S, sup.stop - 1, (seed, 0))
    from spinlets.fields import observe_channels
    chans = observe_channels(signal, noise, (seed, 1))
    coeffs = [needlet_analyze(chans.channel(r), grid) for r in range(d)]
    adopted = [m.scaled(bias_factor) for m in noise]
    return model, adopted, coeffs


def test_hausman_identity_machine_precision(win, grid4):
    for seed in (11, 12, 13):
        model, noise, coeffs = _channel_setup(win, grid4, 4, seed)
        rep = estimate_hausman(coeffs, noise, model)
        assert rep.meta["identity_residual"] < 1e-10
        assert rep.kind == "hausman"


def test_hausman_identity_holds_even_when_bias_misspecified(win, grid4):
    model, noise, coeffs = _channel_setup(win, grid4, 4, 14, bias_factor=1.5)
    rep = estimate_hausman(coeffs, noise, model)
    assert rep.meta["identity_residual"] < 1e-10


def test_hausman_requires_positive_variance(win, grid4):
    model, noise, coeffs = _channel_setup(win, grid4, 4, 15)
    ap = estimate_ap(coeffs, noise, model)
    cp = estimate_cp(coeffs, model)
    for variance in (0.0, -1.0, float("nan")):
        with pytest.raises(NonpositiveVarianceError):
            hausman_statistic(ap, cp, variance, coeffs, noise)


def test_hausman_identity_violation_raises(win, grid4):
    # the identity is checked on the channels and noise models it is handed
    model, noise, coeffs = _channel_setup(win, grid4, 4, 17)
    ap = estimate_ap(coeffs, noise, model)
    cp = estimate_cp(coeffs, model)
    assert not hasattr(ap, "channel_values") and not hasattr(ap, "noise_bias")
    rep = hausman_statistic(ap, cp, 1.0, coeffs, noise)
    assert rep.meta["identity_residual"] < 1e-10
    off = [m.scaled(1.0 + 1e-6) for m in noise]
    with pytest.raises(SelfCheckError, match="hausman identity violated"):
        hausman_statistic(ap, cp, 1.0, coeffs, off)
    with pytest.raises(MissingNoiseModelError):
        hausman_statistic(ap, cp, 1.0, coeffs, noise[:2])


def test_hausman_refuses_channels_of_another_level_or_spin(win, grid4):
    model, noise, coeffs = _channel_setup(win, grid4, 4, 19)
    ap = estimate_ap(coeffs, noise, model)
    cp = estimate_cp(coeffs, model)
    grid3 = build_cubature(3, B)
    _, _, level3 = _channel_setup(win, grid3, 3, 19)
    with pytest.raises(ValueError, match=r"\(j, s\) = \(3, 2\).* \(4, 2\)"):
        hausman_statistic(ap, cp, 1.0, level3, noise)
    spin3 = [replace(c, s=3) for c in coeffs]
    with pytest.raises(ValueError, match=r"\(j, s\) = \(4, 3\).* \(4, 2\)"):
        hausman_statistic(ap, cp, 1.0, spin3, noise)
    with pytest.raises(ValueError, match=r"different \(j, s\)"):
        hausman_statistic(ap, replace(cp, j=3), 1.0, coeffs, noise)
    for first, second in ((cp, ap), (ap, ap)):
        with pytest.raises(ValueError, match="needs one AP and one CP report"):
            hausman_statistic(first, second, 1.0, coeffs, noise)


@pytest.mark.parametrize("value, target, variance, want", [
    (5.0, 3.0, 4.0, 1.0), (1.0, 3.0, 16.0, -0.5),
    (7.0, 0.0, 2.0, 7.0 / math.sqrt(2.0)), (5.0, 3.0, 0.0, 0.0),
    (5.0, 3.0, -1.0, 0.0)])
def test_standardized_is_derived(value, target, variance, want):
    rep = EstimateReport(j=4, s=S, kind="masked", value=value,
                         theoretical_target=target, variance_estimate=variance)
    assert rep.standardized == want
    rep.value += 2.0  # derived, so it follows the value
    assert rep.standardized == pytest.approx(
        want + 2.0 / math.sqrt(variance) if variance > 0.0 else 0.0, rel=1e-15)


def test_report_serialization(win, grid4):
    model = power_law(3.0, l_min=2)
    mask = empty_mask(grid4)
    coeffs = _coeffs(win, grid4, 4, 16)
    rep = estimate_masked(coeffs, mask, model)
    d = rep.to_dict()
    assert set(d) == {"j", "s", "kind", "paper_kind", "value",
                      "theoretical_target", "variance_estimate",
                      "standardized", "meta"}
    assert d["paper_kind"] == "gapfree_spectral"
    assert d["standardized"] == pytest.approx(
        (d["value"] - d["theoretical_target"])
        / math.sqrt(d["variance_estimate"]))


def _sum_outcome(total, a):
    """The float's bytes (sign of zero and nan included), or the exception type."""
    try:
        return np.float64(total(a)).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_exact_sum_is_fsum(a):
    assert _sum_outcome(_exact_sum, a) == _sum_outcome(fsum_reference, a)


_MAX = sys.float_info.max
_EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
          _MAX, -_MAX, np.nextafter(_MAX, 0.0), 1e300, -1e300]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
       lo=st.integers(-1074, 1023), width=st.integers(0, 2100),
       cancel=st.booleans(),
       extra=st.lists(st.one_of(st.sampled_from(_EDGES),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      max_size=8))
@example(n=3000, seed=1, lo=-1000, width=2000, cancel=True, extra=[])  # 10^+-300
@example(n=100, seed=2, lo=-1074, width=60, cancel=False, extra=[-0.0])
@example(n=0, seed=0, lo=0, width=0, cancel=False, extra=[-0.0, -0.0])
@example(n=2, seed=3, lo=1020, width=3, cancel=False, extra=[_MAX, _MAX])
def test_exact_sum_is_fsum_on_finite_arrays(n, seed, lo, width, cancel, extra):
    # mantissas in (-1, 1) scaled by 2^e, e uniform over [lo, lo + width]:
    # subnormals at the bottom, sums that overflow at the top
    rng = np.random.default_rng(seed)
    e = rng.integers(lo, min(lo + width, 1023), endpoint=True, size=n)
    a = np.ldexp(rng.uniform(-1.0, 1.0, n), e)
    a = np.insert(a, rng.integers(0, n, endpoint=True, size=len(extra)), extra)
    if cancel:  # exact cancellation: the sum is zero
        a = rng.permutation(np.concatenate([a, -a]))
    _assert_exact_sum_is_fsum(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGES)), max_size=40))
@example([math.inf, -math.inf])  # ValueError: -inf + inf
@example([1e308, 1e308, -1e308])  # OverflowError: intermediate overflow
@example([math.inf, 1e308, 1e308])  # OverflowError, despite the inf
@example([math.nan, 1.0])
@example([-math.inf, 1.0])
def test_exact_sum_is_fsum_on_any_float_list(values):
    _assert_exact_sum_is_fsum(np.array(values, dtype=np.float64))


@pytest.mark.parametrize("n", [8385, 33153, 131841])  # j = 5, 6, 7 at B = 2
def test_exact_sum_is_fsum_at_level_sizes(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    for a in (np.abs(z[0]) ** 2,                # auto-power terms
              (z[0] * np.conj(z[1])).real,      # cross-power terms, mixed sign
              (z[0] * np.conj(z[1])).imag,
              rng.uniform(0.0, 1.0, n) * 4.0 * math.pi / n):  # weight-like
        _assert_exact_sum_is_fsum(a)


@pytest.fixture(scope="module")
def level5_reports(win):
    """One j = 5 report of each kind on fixed seeds, with the inputs it read."""
    j = 5
    grid = build_cubature(j, B)
    model = power_law(3.0, l_min=2)
    eps = 3.0 * B ** (-j)
    half = model.scaled(0.5)
    alm = draw_alm(half, half, S, window_support(win, j, S).stop - 1, 21)
    mask = polar_cap_mask(grid, 0.1, epsilon=eps)
    inputs = {"masked": masked_analyze(
                  synthesize_on_grid(alm.full_coeffs(), grid, S), mask, S),
              "gapfree": needlet_analyze(alm, grid), "mask": mask,
              "regions": hemispheres(grid, epsilon=eps), "signal": model}
    _, inputs["noise"], inputs["channels"] = _channel_setup(win, grid, j, 22)
    return {kind: estimate(kind, inputs) for kind in KINDS}, inputs


def _weighted_reference(coeffs, selection):
    idx = np.flatnonzero(selection)
    return (4.0 * math.pi * fsum_reference(np.abs(coeffs.values[idx]) ** 2)
            / fsum_reference(coeffs.grid.weights[idx]))


def test_level5_values_are_the_fsum_reference_bit_for_bit(level5_reports):
    reports, inputs = level5_reports
    observed = inputs["mask"].observed
    assert reports["masked"].value == _weighted_reference(inputs["masked"],
                                                          observed)
    assert reports["unfeasible"].value == _weighted_reference(inputs["gapfree"],
                                                              observed)
    regions = inputs["regions"]
    assert reports["asymmetry"].value == (
        _weighted_reference(inputs["gapfree"], regions.interior(1))
        - _weighted_reference(inputs["gapfree"], regions.interior(2)))
    for kind in ("ap", "cp"):
        assert reports[kind].value == fsum_reference(reports[kind].pixel_values)


def test_level5_hausman_identity_is_the_fsum_reference(level5_reports):
    # recomputed from the level's channel coefficients and noise models
    reports, inputs = level5_reports
    ap, cp = reports["ap"], reports["cp"]
    grid = inputs["channels"][0].grid
    beta = np.stack([c.values for c in inputs["channels"]])
    d = beta.shape[0]
    pair = sum(np.abs(beta[r1] - beta[r2]) ** 2
               for r1 in range(d) for r2 in range(r1 + 1, d))
    gamma_n = np.array([gamma_theoretical(grid.window, m, grid.j, S)
                        for m in inputs["noise"]])
    noise_bias = np.sum(grid.weights[None, :] * (gamma_n[:, None]
                                                 / (4.0 * math.pi)), axis=0)
    identity = fsum_reference(((d - 1) * noise_bias - pair) / (d * (d - 1)))
    value = cp.value - ap.value
    scale = max(abs(ap.value), abs(cp.value), abs(identity), 1e-300)
    assert reports["hausman"].value == value
    assert reports["hausman"].meta["identity_residual"] == (
        abs(value - identity) / scale)
