"""Monte Carlo experiment harness: replicate generation and diagnostics.

A plan is declarative (bandwidth, spin, levels, spectra, mask layout,
estimator kinds, replicate count, base seed).  Every replicate r derives its
randomness from the seed key (base_seed, r, channel), so results are
reproducible and independent of scheduling; the raw statistic table is
byte-identical at any worker count.

What a plan builds follows from its levels and kinds.  The band limit is the
top degree of the deepest level's window support, and a level's coefficients
see only its own support degrees.  A level gets a mask only when a kind reads
"mask" and hemispheres only when a kind reads "regions".  The masked map of
level j is synthesized from degrees up to its support top, which keeps the
level grid's quadrature exact.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .errors import (BandLimitExceededError, EmptyRegionError,
                     InvalidConfigError, ReplicateFailuresError,
                     TooFewLevelsError, TooFewSamplesError)
from .estimators import KNOWN_KINDS, inputs_read
from .fields import draw_alm, observe_channels, power_law
from .grid import build_cubature, hemispheres, polar_cap_mask
from .transform import (_check_table_size, _support_or_raise, masked_analyze,
                        needlet_analyze, synthesize_on_grid)

RAW_HEADER = "replicate,j,kind,value,target,variance,standardized"


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative Monte Carlo experiment."""

    B: float = 2.0
    s: int = 2
    j_list: tuple[int, ...] = (5,)
    alpha: float = 3.0
    gamma: float = 2.5
    noise_level: float = 0.0
    channels: int = 0
    replicates: int = 100
    base_seed: int = 0
    kinds: tuple[str, ...] = ("masked",)
    mask_fraction: float = 0.0
    epsilon_scale: float = 3.0
    noise_bias_factor: float = 1.0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{name}: {value} is not a finite number")
        if not self.B > 1.0:
            raise InvalidConfigError("B: bandwidth must be > 1")
        if self.replicates < 1:
            raise InvalidConfigError("replicates: must be >= 1")
        if not self.j_list or any(j < 0 for j in self.j_list):
            raise InvalidConfigError("j_list: needs levels j >= 0")
        if len(set(self.j_list)) != len(self.j_list):
            raise InvalidConfigError("j_list: duplicate levels")
        if not self.kinds:
            raise InvalidConfigError("kinds: needs at least one estimator kind")
        for kind in self.kinds:
            if kind not in KNOWN_KINDS:
                raise InvalidConfigError(f"kinds: unknown estimator kind {kind!r}")
        if "channels" in inputs_read(self.kinds):
            if self.channels < 2:
                raise InvalidConfigError(
                    "channels: ap/cp/hausman need at least 2 channels")
            if self.noise_level < 0:
                raise InvalidConfigError("noise_level: must be >= 0")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise InvalidConfigError("mask_fraction: must be in [0, 1)")
        if self.epsilon_scale < 0.0:
            raise InvalidConfigError("epsilon_scale: must be >= 0")

    def signal_model(self):
        return power_law(self.alpha, l_min=max(1, abs(self.s)), kind="signal")

    def noise_models(self) -> list:
        return [power_law(self.gamma, l_min=max(1, abs(self.s)), kind="noise",
                          amplitude=self.noise_level)
                for _ in range(self.channels)]


class _PlanContext:
    """Immutable state shared by all replicates of one plan, and the runner of
    each replicate; pool workers receive it pickled with each chunk."""

    def __init__(self, plan: ExperimentPlan):
        plan.validate()
        self.plan = plan
        self.reads = inputs_read(plan.kinds)
        # grids first: a level beyond the pixel cap is refused before any
        # window support is computed for it
        grids = {j: build_cubature(j, plan.B) for j in plan.j_list}
        # a level its grid cannot resolve exactly is refused here, not by
        # every replicate; an empty support passes
        try:
            supports = {j: _support_or_raise(grid, plan.s)
                        for j, grid in grids.items()}
        except BandLimitExceededError as exc:
            raise InvalidConfigError(
                f"j_list: {exc} (B={plan.B}, s={plan.s})") from None
        self.signal_model = plan.signal_model()
        self.noise_models = plan.noise_models()
        self.adopted_noise = [m.scaled(plan.noise_bias_factor)
                              for m in self.noise_models]
        # band limit: top degree of the deepest level's support (|s| if none)
        tops = [support.stop - 1 for support in supports.values()]
        self.L = max([t for t in tops if t >= abs(plan.s)], default=abs(plan.s))
        # every table a replicate builds is level j's at its support top (or
        # |s|); each is sized before any mask, region or table is built
        tables = {j: support.stop - 1 if len(support) else abs(plan.s)
                  for j, support in supports.items()}
        for j, grid in grids.items():
            _check_table_size(grid, plan.s, tables[j])
        self.levels = {}
        for j, grid in grids.items():
            eps = plan.epsilon_scale * plan.B ** (-j)
            mask = polar_cap_mask(grid, plan.mask_fraction, epsilon=eps) \
                if "mask" in self.reads else None
            regions = hemispheres(grid, epsilon=eps) \
                if "regions" in self.reads else None
            if regions is not None:  # pickled warm to the pool workers
                try:
                    for which in (1, 2):
                        regions.interior(which)
                except EmptyRegionError:  # left to fail each replicate
                    pass
            self.levels[j] = (grid, mask, regions, tables[j])

    def reports(self, r: int) -> list:
        """[(j, kind, EstimateReport)] of replicate r, in plan order."""
        plan, reads, L = self.plan, self.reads, self.L
        half = self.signal_model.scaled(0.5)
        signal = draw_alm(half, half, plan.s, L, (plan.base_seed, r, 0))
        if "channels" in reads:
            channels = observe_channels(signal, self.noise_models,
                                        (plan.base_seed, r, 1))
        if "masked" in reads:
            full = signal.full_coeffs()
        out = []
        for j in plan.j_list:
            grid, mask, regions, lj = self.levels[j]
            inputs = {"mask": mask, "regions": regions,
                      "noise": self.adopted_noise, "signal": self.signal_model}
            if "gapfree" in reads:
                inputs["gapfree"] = needlet_analyze(signal, grid)
            if "masked" in reads:
                pix = synthesize_on_grid(full[:lj + 1, L - lj:L + lj + 1], grid,
                                         plan.s)
                inputs["masked"] = masked_analyze(pix, mask, plan.s)
            if "channels" in reads:
                inputs["channels"] = [
                    needlet_analyze(channels.channel(c), grid)
                    for c in range(plan.channels)]
            out.extend((j, kind, estimators.estimate(kind, inputs))
                       for kind in plan.kinds)
        return out

    def rows(self, r: int) -> tuple:
        """(r, raw rows, None) of replicate r, or (r, None, reason) if it failed."""
        try:
            return r, [(r, j, kind, rep.value, rep.theoretical_target,
                        rep.variance_estimate, rep.standardized)
                       for j, kind, rep in self.reports(r)], None
        except Exception as exc:  # counted against the failure budget
            return r, None, f"{type(exc).__name__}: {exc}"


def replicate_reports(plan: ExperimentPlan, r: int) -> list:
    """[(j, kind, EstimateReport)] of replicate r of the plan."""
    return _PlanContext(plan).reports(r)


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


def _normal_cdf(x) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2) of a 1-d array; within
    2^-52 of scipy.special.ndtr."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


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
    cdf = _normal_cdf(xs)
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
    """Per-(j, kind) summary of the standardized statistics plus slope fits,
    and the replicates that failed within the budget."""

    statistics: dict = field(default_factory=dict)   # (j, kind) -> dict
    variance_slopes: dict = field(default_factory=dict)  # kind -> dict
    flags: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # [r, "Type: message"]

    def to_json(self) -> str:
        payload = {
            "statistics": {f"j={j},kind={kind}": stats
                           for (j, kind), stats in sorted(self.statistics.items())},
            "variance_slopes": self.variance_slopes,
            "flags": self.flags,
            "failures": self.failures,
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
    ctx = _PlanContext(plan)  # validates; built once per run
    # fork: workers start without re-importing, so they see the caller's
    # monkeypatches (test_failure_budget_same_for_serial_and_pool needs it)
    pool = None if threads <= 1 else ProcessPoolExecutor(
        threads, mp_context=multiprocessing.get_context("fork"))
    results, failures = {}, []
    try:
        outcomes = map(ctx.rows, range(plan.replicates)) if pool is None \
            else pool.map(ctx.rows, range(plan.replicates),
                          chunksize=max(1, plan.replicates // (4 * threads)))
        for r, rows, err in outcomes:
            if err is None:
                results[r] = rows
                continue
            failures.append((r, err))
            if len(failures) > max(1, 0.01 * plan.replicates):
                raise ReplicateFailuresError(
                    f"aborting: {len(failures)} replicate failures, "
                    f"first: r={failures[0][0]}: {failures[0][1]}")
    finally:
        if pool is not None:
            pool.shutdown()
    if failures:
        warnings.warn(f"{len(failures)} replicate(s) failed: {failures[:3]}",
                      RuntimeWarning, stacklevel=2)
    rows = [row for r in sorted(results) for row in results[r]]
    report = _aggregate(plan, rows)
    report.failures = [[r, err] for r, err in failures]
    return report, rows


def rows_to_csv(rows) -> str:
    """Raw statistic table with full-precision, locale-free formatting."""
    lines = [RAW_HEADER]
    for (r, j, kind, value, target, variance, standardized) in rows:
        lines.append(f"{r},{j},{kind},{value!r},{target!r},{variance!r},"
                     f"{standardized!r}")
    return "\n".join(lines) + "\n"
