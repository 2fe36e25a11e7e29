"""Monte Carlo experiment harness: replicate generation and diagnostics.

A plan is declarative (bandwidth, spin, levels, spectra, mask/region layout,
estimator kinds, replicate count, base seed).  Every replicate r derives its
randomness from the seed key (base_seed, r, channel), so results are
reproducible and independent of scheduling; the raw statistic table is
byte-identical at any worker count.

Per level j the signal is truncated to the window support's top degree
before synthesis, which keeps the level grid's quadrature exact (the
coefficients only see support degrees anyway).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import estimators
from .errors import (InvalidConfigError, TooFewLevelsError, TooFewSamplesError)
from .estimators import KINDS, KNOWN_KINDS
from .fields import SpinAlm, draw_alm, observe_channels, power_law
from .grid import build_cubature, empty_mask, hemispheres, polar_cap_mask
from .transform import masked_analyze, needlet_analyze, synthesize_on_grid
from .window import build_window, window_support

RAW_HEADER = "replicate,j,kind,value,target,variance,standardized"


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative Monte Carlo experiment."""

    B: float = 2.0
    s: int = 2
    j_list: tuple[int, ...] = (5,)
    L: int | None = None
    alpha: float = 3.0
    gamma: float = 2.5
    noise_level: float = 0.0
    channels: int = 0
    replicates: int = 100
    base_seed: int = 0
    kinds: tuple[str, ...] = ("masked",)
    mask_fraction: float = 0.0
    epsilon_scale: float = 3.0
    regions: str = "none"
    noise_bias_factor: float = 1.0

    def validate(self) -> None:
        if not self.B > 1.0:
            raise InvalidConfigError("B: bandwidth must be > 1")
        if self.replicates < 1:
            raise InvalidConfigError("replicates: must be >= 1")
        if not self.j_list or any(j < 0 for j in self.j_list):
            raise InvalidConfigError("j_list: needs levels j >= 0")
        if len(set(self.j_list)) != len(self.j_list):
            raise InvalidConfigError("j_list: duplicate levels")
        for kind in self.kinds:
            if kind not in KNOWN_KINDS:
                raise InvalidConfigError(f"kinds: unknown estimator kind {kind!r}")
        if "channels" in self.reads():
            if self.channels < 2:
                raise InvalidConfigError(
                    "channels: ap/cp/hausman need at least 2 channels")
            if self.noise_level < 0:
                raise InvalidConfigError("noise_level: must be >= 0")
        if self.regions not in ("none", "hemispheres"):
            raise InvalidConfigError(f"regions: unknown layout {self.regions!r}")
        if "asymmetry" in self.kinds and self.regions == "none":
            raise InvalidConfigError("regions: asymmetry estimator needs regions")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise InvalidConfigError("mask_fraction: must be in [0, 1)")
        if self.L is not None and self.L < self.required_band_limit():
            raise InvalidConfigError(
                f"L: band limit {self.L} below window support "
                f"{self.required_band_limit()} of the deepest level")

    def reads(self) -> set:
        """The coefficient sets its kinds read: masked, gapfree, channels."""
        return {KINDS[kind].args[0] for kind in self.kinds}

    def required_band_limit(self) -> int:
        window = build_window(self.B)
        tops = [window_support(window, j, self.s).stop - 1 for j in self.j_list]
        return max([t for t in tops if t >= abs(self.s)], default=abs(self.s))

    def band_limit(self) -> int:
        return self.L if self.L is not None else self.required_band_limit()

    def signal_model(self):
        return power_law(self.alpha, l_min=max(1, abs(self.s)), kind="signal")

    def noise_models(self) -> list:
        return [power_law(self.gamma, l_min=max(1, abs(self.s)), kind="noise",
                          amplitude=self.noise_level)
                for _ in range(self.channels)]


class _PlanContext:
    """Immutable per-process state shared by all replicates of one plan."""

    def __init__(self, plan: ExperimentPlan):
        plan.validate()
        self.plan = plan
        self.window = build_window(plan.B)
        self.signal_model = plan.signal_model()
        self.noise_models = plan.noise_models()
        self.adopted_noise = [m.scaled(plan.noise_bias_factor)
                              for m in self.noise_models]
        self.L = plan.band_limit()
        self.levels = {}
        for j in plan.j_list:
            grid = build_cubature(j, plan.B)
            eps = plan.epsilon_scale * plan.B ** (-j)
            if plan.mask_fraction > 0.0:
                mask = polar_cap_mask(grid, plan.mask_fraction, epsilon=eps)
            else:
                mask = empty_mask(grid, epsilon=eps)
            regions = hemispheres(grid, epsilon=eps) \
                if plan.regions == "hemispheres" else None
            support = window_support(self.window, j, plan.s)
            lj = min(self.L, support.stop - 1) if len(support) else abs(plan.s)
            self.levels[j] = (grid, mask, regions, max(lj, abs(plan.s)))


# The context of the running plan; forked pool workers inherit it.
_CTX = None


def _truncate_alm(alm: SpinAlm, L: int) -> SpinAlm:
    if L >= alm.L:
        return alm
    out = SpinAlm.zeros(alm.s, L)
    out.alm_e[:] = alm.alm_e[:L + 1, :L + 1]
    out.alm_b[:] = alm.alm_b[:L + 1, :L + 1]
    return out


def _replicate_reports(ctx: _PlanContext, r: int) -> list:
    """[(j, kind, EstimateReport)] of replicate r, in plan order."""
    plan = ctx.plan
    reads = plan.reads()
    half = ctx.signal_model.scaled(0.5)
    signal = draw_alm(half, half, plan.s, ctx.L, (plan.base_seed, r, 0))
    if "channels" in reads:
        channels = observe_channels(signal, ctx.noise_models, (plan.base_seed, r, 1))
    out = []
    for j in plan.j_list:
        grid, mask, regions, lj = ctx.levels[j]
        alm_j = _truncate_alm(signal, lj)
        inputs = {"mask": mask, "regions": regions, "noise": ctx.adopted_noise,
                  "signal": ctx.signal_model}
        if "gapfree" in reads:
            inputs["gapfree"] = needlet_analyze(alm_j, ctx.window, grid, j)
        if "masked" in reads:
            pix = synthesize_on_grid(alm_j.full_coeffs(), grid, plan.s)
            inputs["masked"] = masked_analyze(pix, mask, ctx.window, grid, j,
                                              plan.s)
        if "channels" in reads:
            inputs["channels"] = [
                needlet_analyze(_truncate_alm(channels.channel(c), lj),
                                ctx.window, grid, j)
                for c in range(plan.channels)]
        out.extend((j, kind, estimators.estimate(kind, inputs))
                   for kind in plan.kinds)
    return out


def replicate_reports(plan: ExperimentPlan, r: int) -> list:
    """[(j, kind, EstimateReport)] of replicate r of the plan."""
    return _replicate_reports(_PlanContext(plan), r)


def _run_replicate(r: int) -> tuple:
    try:
        return r, [(r, j, kind, rep.value, rep.theoretical_target,
                    rep.variance_estimate, rep.standardized)
                   for j, kind, rep in _replicate_reports(_CTX, r)], None
    except Exception as exc:  # counted against the failure budget
        return r, None, f"{type(exc).__name__}: {exc}"


@dataclass
class NormalityStats:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float

    def to_dict(self) -> dict:
        return {"mean": self.mean, "variance": self.variance,
                "skewness": self.skewness,
                "excess_kurtosis": self.excess_kurtosis,
                "ks_distance": self.ks_distance}


def normality_diagnostics(samples) -> NormalityStats:
    """Moments plus one-sample KS distance against the standard normal."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 100:
        raise TooFewSamplesError(f"need >= 100 samples, got {x.size}")
    mean = float(np.mean(x))
    m2 = float(np.mean((x - mean) ** 2))
    variance = float(np.var(x, ddof=1))
    if m2 > 0.0:
        skew = float(np.mean((x - mean) ** 3)) / m2 ** 1.5
        kurt = float(np.mean((x - mean) ** 4)) / m2 ** 2 - 3.0
    else:
        skew, kurt = 0.0, 0.0
    xs = np.sort(x)
    cdf = ndtr(xs)
    n = x.size
    up = np.arange(1, n + 1) / n - cdf
    dn = cdf - np.arange(0, n) / n
    ks = float(max(up.max(), dn.max()))
    return NormalityStats(mean=mean, variance=variance, skewness=skew,
                          excess_kurtosis=kurt, ks_distance=ks)


def fit_variance_slope(j_values, variances) -> tuple:
    """Least-squares slope of log(Var) vs j, with its standard error."""
    j = np.asarray(j_values, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    if j.size < 4:
        raise TooFewLevelsError(f"need >= 4 levels, got {j.size}")
    if np.any(v <= 0.0):
        raise ValueError("variances must be positive for the log fit")
    y = np.log(v)
    jbar = j.mean()
    sxx = float(np.sum((j - jbar) ** 2))
    slope = float(np.sum((j - jbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (j - jbar))
    dof = max(j.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return slope, stderr


@dataclass
class DiagnosticsReport:
    """Per-(j, kind) summary of the standardized statistics plus slope fits."""

    statistics: dict = field(default_factory=dict)   # (j, kind) -> dict
    variance_slopes: dict = field(default_factory=dict)  # kind -> dict
    flags: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "statistics": {f"j={j},kind={kind}": stats
                           for (j, kind), stats in sorted(self.statistics.items())},
            "variance_slopes": self.variance_slopes,
            "flags": self.flags,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _aggregate(plan: ExperimentPlan, rows: list) -> DiagnosticsReport:
    report = DiagnosticsReport()
    by_stat = {}
    for (r, j, kind, value, target, variance, standardized) in rows:
        by_stat.setdefault((j, kind), []).append((value, standardized))
    for (j, kind), pairs in by_stat.items():
        values = np.array([p[0] for p in pairs])
        std = np.array([p[1] for p in pairs])
        entry = {
            "n": int(values.size),
            "value_mean": float(values.mean()),
            "value_variance": float(values.var(ddof=1)) if values.size > 1 else 0.0,
        }
        if values.size >= 100:
            entry.update(normality_diagnostics(std).to_dict())
        else:
            report.flags.append(
                f"j={j} kind={kind}: {values.size} replicates < 100, "
                "normality diagnostics skipped")
        report.statistics[(j, kind)] = entry
    for kind in plan.kinds:
        js = sorted(j for (j, k) in by_stat if k == kind)
        if len(js) >= 4:
            variances = [report.statistics[(j, kind)]["value_variance"]
                         for j in js]
            if all(v > 0 for v in variances):
                slope, stderr = fit_variance_slope(js, variances)
                report.variance_slopes[kind] = {
                    "levels": js, "slope": slope, "stderr": stderr}
    return report


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> tuple:
    """Execute the plan; returns (DiagnosticsReport, raw rows).

    Rows are (replicate, j, kind, value, target, variance, standardized) in
    deterministic order.  Aborts when more than 1% of replicates fail.
    """
    global _CTX
    _CTX = _PlanContext(plan)  # validates; built once, inherited by workers
    # fork, not the platform default, so the workers inherit _CTX
    pool = None if threads <= 1 else ProcessPoolExecutor(
        threads, mp_context=multiprocessing.get_context("fork"))
    results, failures = {}, []
    try:
        outcomes = map(_run_replicate, range(plan.replicates)) if pool is None \
            else pool.map(_run_replicate, range(plan.replicates),
                          chunksize=max(1, plan.replicates // (4 * threads)))
        for r, rows, err in outcomes:
            if err is None:
                results[r] = rows
                continue
            failures.append((r, err))
            if len(failures) > max(1, 0.01 * plan.replicates):
                raise RuntimeError(
                    f"aborting: {len(failures)} replicate failures, "
                    f"first: r={failures[0][0]}: {failures[0][1]}")
    finally:
        _CTX = None
        if pool is not None:
            pool.shutdown()
    if failures:
        warnings.warn(f"{len(failures)} replicate(s) failed: {failures[:3]}",
                      RuntimeWarning, stacklevel=2)
    rows = [row for r in sorted(results) for row in results[r]]
    return _aggregate(plan, rows), rows


def rows_to_csv(rows) -> str:
    """Raw statistic table with full-precision, locale-free formatting."""
    lines = [RAW_HEADER]
    for (r, j, kind, value, target, variance, standardized) in rows:
        lines.append(f"{r},{j},{kind},{value!r},{target!r},{variance!r},"
                     f"{standardized!r}")
    return "\n".join(lines) + "\n"
