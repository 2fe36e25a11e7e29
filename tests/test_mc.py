"""Tests for the Monte Carlo harness, diagnostics, and determinism."""

import json
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from spinlets import (estimators, fit_variance_slope, grid, mc,
                      normality_diagnostics, run_experiment)
from spinlets.cli import plan_from_config
from spinlets.errors import (InvalidConfigError, TooFewLevelsError,
                             TooFewSamplesError)
from spinlets.mc import RAW_HEADER, ExperimentPlan, rows_to_csv


def test_normality_on_normal_draws():
    rng = np.random.default_rng(0)
    stats = normality_diagnostics(rng.standard_normal(100_000))
    assert stats.ks_distance < 0.01
    assert abs(stats.skewness) < 0.03
    assert abs(stats.mean) < 0.02
    assert abs(stats.variance - 1.0) < 0.02


def test_normal_cdf_within_an_ulp_of_scipy_ndtr():
    x = np.concatenate([np.random.default_rng(4).standard_normal(200_000) * 3,
                        np.linspace(-40.0, 40.0, 80_001)])
    assert np.max(np.abs(mc._normal_cdf(x) - ndtr(x))) <= 2.0 ** -52


def test_normality_constant_samples():
    stats = normality_diagnostics(np.zeros(200))
    assert stats.variance == 0.0
    assert stats.ks_distance == pytest.approx(0.5, abs=0.01)


def test_normality_detects_shift():
    rng = np.random.default_rng(1)
    stats = normality_diagnostics(rng.standard_normal(20_000) + 3.0)
    assert stats.mean == pytest.approx(3.0, abs=0.05)
    assert stats.ks_distance > 0.5


def test_normality_needs_samples():
    with pytest.raises(TooFewSamplesError):
        normality_diagnostics(np.zeros(50))


def test_slope_exact_table():
    B, alpha = 2.0, 3.0
    js = np.arange(3, 9)
    var = B ** (2 * (1 - alpha) * js)
    slope, se = fit_variance_slope(js, var)
    assert slope == pytest.approx(2 * (1 - alpha) * math.log(B), rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_slope_constant_table():
    slope, _ = fit_variance_slope([3, 4, 5, 6], [2.0, 2.0, 2.0, 2.0])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_slope_needs_levels():
    with pytest.raises(TooFewLevelsError):
        fit_variance_slope([3, 4, 5], [1.0, 0.5, 0.25])


def test_plan_validation_messages():
    with pytest.raises(InvalidConfigError, match="j_list"):
        ExperimentPlan(j_list=()).validate()
    with pytest.raises(InvalidConfigError, match="kinds"):
        ExperimentPlan(kinds=("nope",)).validate()
    with pytest.raises(InvalidConfigError, match="kinds"):
        ExperimentPlan(kinds=()).validate()
    with pytest.raises(InvalidConfigError, match="channels"):
        ExperimentPlan(kinds=("cp",), channels=1).validate()
    for name in ("B", "alpha", "gamma", "noise_level", "mask_fraction",
                 "epsilon_scale", "noise_bias_factor"):
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidConfigError,
                               match=f"^{name}: .* is not a finite number"):
                ExperimentPlan(**{name: value}).validate()
    with pytest.raises(InvalidConfigError, match="^epsilon_scale: must be >= 0"):
        ExperimentPlan(epsilon_scale=-1.0).validate()


def test_context_builds_only_the_inputs_its_kinds_read():
    configs = Path(mc.__file__).parent / "configs"
    for name, mask, regions in (("hausman.cfg", False, False),
                                ("asymmetry.cfg", False, True),
                                ("clt_masked.cfg", True, False),
                                ("demo_estimate.cfg", True, True)):
        plan = plan_from_config(configs / name)
        ctx = mc._PlanContext(plan)
        reads = estimators.inputs_read(plan.kinds)
        assert ctx.reads == reads
        assert ("mask" in reads, "regions" in reads) == (mask, regions), name
        for j in plan.j_list:
            _, got_mask, got_regions, _ = ctx.levels[j]
            assert (got_mask is not None, got_regions is not None) == \
                (mask, regions), name


def test_pickled_context_holds_warm_region_interiors(monkeypatch):
    # pool workers receive the context pickled, so they dilate nothing
    plan = plan_from_config(Path(mc.__file__).parent / "configs" / "asymmetry.cfg")
    ctx = pickle.loads(pickle.dumps(mc._PlanContext(plan)))

    def no_dilation(*args):
        raise AssertionError("a replicate must not dilate")

    monkeypatch.setattr(grid, "_within_distance", no_dilation)
    for j in plan.j_list:
        regions = ctx.levels[j][2]
        assert sorted(regions._interior_cache) == [1, 2]
    _, rows, err = ctx.rows(0)
    assert err is None and len(rows) == len(plan.j_list)


def test_inputs_read_collects_every_input_of_the_kinds():
    assert estimators.inputs_read(["cp"]) == {"channels", "signal"}
    assert estimators.inputs_read(["masked", "asymmetry"]) == \
        {"masked", "mask", "gapfree", "regions", "signal"}
    assert estimators.inputs_read(estimators.KNOWN_KINDS) == \
        {"masked", "gapfree", "channels", "mask", "regions", "noise", "signal"}
    assert estimators.inputs_read(["nope"]) == set()


SMALL = ExperimentPlan(B=2.0, s=2, j_list=(3,), alpha=3.0, replicates=12,
                       base_seed=5, kinds=("masked", "unfeasible"),
                       mask_fraction=0.08, epsilon_scale=2.0)


def test_rows_schema_and_order():
    _, rows = run_experiment(SMALL)
    assert len(rows) == 12 * 2
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    csv = rows_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == RAW_HEADER == \
        "replicate,j,kind,value,target,variance,standardized"
    assert len(lines) == 1 + len(rows)


def test_raw_table_fields_are_plain_numbers():
    plan = ExperimentPlan(B=2.0, s=2, j_list=(4,), alpha=3.0, replicates=4,
                          base_seed=3, channels=3, noise_level=1.0,
                          kinds=("masked", "ap", "cp", "hausman", "asymmetry"),
                          mask_fraction=0.1)
    _, rows = run_experiment(plan)
    lines = rows_to_csv(rows).strip().splitlines()[1:]
    assert len(lines) == 4 * 5
    for line in lines:
        r, j, kind, *numbers = line.split(",")
        int(r), int(j)
        assert kind in plan.kinds
        assert all(math.isfinite(float(x)) for x in numbers), line


def test_reproducible_and_thread_count_invariant():
    _, rows1 = run_experiment(SMALL, threads=1)
    _, rows2 = run_experiment(SMALL, threads=2)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    _, rows3 = run_experiment(SMALL, threads=1)
    assert rows_to_csv(rows1) == rows_to_csv(rows3)


@pytest.mark.parametrize("threads", [1, 2])
def test_failure_budget_same_for_serial_and_pool(threads, monkeypatch):
    # 12 replicates allow one failure: one is warned about and left out,
    # a second aborts the run; forked workers see the patched functions
    draw_alm = mc.draw_alm

    def failing_draw(*args):
        if args[-1][1] == 3:
            raise ValueError("boom")
        return draw_alm(*args)

    monkeypatch.setattr(mc, "draw_alm", failing_draw)
    with pytest.warns(RuntimeWarning, match=r"1 replicate\(s\) failed: "
                                            r"\[\(3, 'ValueError: boom'\)\]"):
        _, rows = run_experiment(SMALL, threads=threads)
    assert sorted({row[0] for row in rows}) == [r for r in range(12) if r != 3]

    def failing_estimate(*args):
        raise ValueError("bad")

    monkeypatch.setattr(estimators, "estimate_masked", failing_estimate)
    with pytest.raises(RuntimeError, match=r"aborting: 2 replicate failures, "
                                           r"first: r=0: ValueError: bad"):
        run_experiment(SMALL, threads=threads)


def test_failures_recorded_in_diagnostics(monkeypatch):
    # a failed replicate within the budget is named in diagnostics.json; the
    # raw table keeps the other replicates' rows as they are
    clean_report, clean = run_experiment(SMALL)
    assert clean_report.failures == []
    draw_alm = mc.draw_alm

    def failing_draw(*args):
        if args[-1][1] == 5:
            raise ValueError("boom")
        return draw_alm(*args)

    monkeypatch.setattr(mc, "draw_alm", failing_draw)
    with pytest.warns(RuntimeWarning):
        report, rows = run_experiment(SMALL)
    assert report.failures == [[5, "ValueError: boom"]]
    assert json.loads(report.to_json())["failures"] == [[5, "ValueError: boom"]]
    assert rows_to_csv(rows) == rows_to_csv([row for row in clean if row[0] != 5])


def test_replicate_independence_lag1():
    plan = ExperimentPlan(B=2.0, s=2, j_list=(3,), alpha=3.0, replicates=256,
                          base_seed=17, kinds=("unfeasible",))
    _, rows = run_experiment(plan)
    series = np.array([r[3] for r in rows])
    x = series - series.mean()
    lag1 = float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))
    assert abs(lag1) < 3.0 / math.sqrt(plan.replicates)


def test_full_sky_clt_ks():
    # band-power estimator on the full sky at j = 5: the standardized
    # statistic is close to standard normal (KS < 0.05 at R = 1000)
    plan = ExperimentPlan(B=2.0, s=2, j_list=(5,), alpha=3.0, replicates=1000,
                          base_seed=909, kinds=("masked",), mask_fraction=0.0)
    report, rows = run_experiment(plan, threads=2)
    stats = report.statistics[(5, "masked")]
    assert stats["ks_distance"] < 0.05
    assert abs(stats["mean"]) < 0.1
    assert abs(stats["variance"] - 1.0) < 0.25


def test_degenerate_level_flagged_not_crashed():
    # spin 3 at level 0 has empty window support: flagged rows, no crash
    plan = ExperimentPlan(B=2.0, s=3, j_list=(0,), alpha=3.0, replicates=5,
                          base_seed=3, kinds=("unfeasible",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, rows = run_experiment(plan)
    assert all(r[3] == 0.0 for r in rows)
    assert all(np.isfinite(r[6]) for r in rows)
    assert report.flags  # small-R normality skip is reported


def test_diagnostics_aggregation():
    plan = ExperimentPlan(B=2.0, s=2, j_list=(3,), alpha=3.0, replicates=120,
                          base_seed=29, kinds=("unfeasible",))
    report, rows = run_experiment(plan)
    stats = report.statistics[(3, "unfeasible")]
    assert stats["n"] == 120
    assert {"mean", "variance", "skewness", "excess_kurtosis",
            "ks_distance"} <= set(stats)
    assert 0.0 <= stats["ks_distance"] <= 1.0
    js = report.to_json()
    assert "unfeasible" in js and "statistics" in js
