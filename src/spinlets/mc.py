"""Monte Carlo experiment harness: replicate generation and diagnostics.

A plan is declarative (bandwidth, spin, levels, spectra, mask layout,
estimator kinds, replicate count, base seed).  Every replicate r derives its
randomness from the seed key (base_seed, r, channel), so results are
reproducible and independent of scheduling; the raw statistic table is
byte-identical at any worker count.

What a plan builds follows from its levels and kinds.  A level reads, and its
masked map is synthesized from, the degrees up to its support top
(transform.level_band), where its grid's quadrature is exact; the band limit
is the deepest level's.  A level gets a mask only when a kind reads "mask"
and hemispheres only when a kind reads "regions".
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimators
from .errors import (BandLimitExceededError, InvalidConfigError,
                     ReplicateFailuresError, ResourceLimitError,
                     TooFewLevelsError, TooFewSamplesError)
from .estimators import KNOWN_KINDS, inputs_read
from .fields import draw_alm, observe_channels, spin_power_law
from .grid import build_cubature, grid_size, hemispheres, polar_cap_mask
from .transform import (level_band, masked_analyze, needlet_analyze,
                        synthesize_on_grid)
from .window import check_bandwidth

RAW_HEADER = "replicate,j,kind,value,target,variance,standardized"


def levels_rule(value, B: float) -> tuple:
    """The levels of plan key j_list or `transform --levels`: a sequence, or
    text "lo..hi" or "a,b,c" of integers.  Every level j >= 0, none twice,
    none past the pixel cap of its grid at B; a range is bounded before it
    is expanded."""
    span = isinstance(value, str) and ".." in value
    if isinstance(value, str):
        text, value = value.strip(), []
        parts = text.split("..", 1) if span else \
            [t for t in text.split(",") if t.strip()]
        for t in parts:
            try:
                value.append(int(t))
            except ValueError:
                raise ValueError(
                    f"level {t.strip()!r} in {text!r} is not an integer") from None
        if not value:
            raise ValueError("no levels given")
    if not value or min(value) < 0:
        raise ValueError("needs levels j >= 0")
    if span and value[1] < value[0]:
        raise ValueError(f"range {text!r} is empty")
    if not span and len(set(value)) != len(value):
        raise ValueError("duplicate levels")
    grid_size(max(value), B)  # the deepest level's grid is the largest
    return tuple(range(value[0], value[1] + 1)) if span else tuple(value)


def kinds_rule(value, B=None) -> tuple:
    """The estimator kinds of plan key kinds or `estimate --kind`: a sequence
    or a comma list; at least one, each a KINDS entry, none twice."""
    if isinstance(value, str):
        value = [t.strip() for t in value.split(",") if t.strip()]
    if not value:
        raise ValueError("needs at least one estimator kind")
    for i, kind in enumerate(value):
        if kind not in KNOWN_KINDS:
            raise ValueError(f"unknown estimator {kind!r}")
        if kind in value[:i]:
            raise ValueError(f"duplicate estimator {kind!r}")
    return tuple(value)


class Field(NamedTuple):
    """An entry of FIELDS."""

    parse: type = str
    rule: object = ()
    default: object = None
    readers: frozenset = frozenset()

    def check(self, value, label: str, B: float = None):
        """`value` as the rule keeps it (levels at bandwidth B); a refused one
        raises InvalidConfigError naming `label`."""
        try:
            if callable(self.rule):
                return self.rule(value, B)
            for accepts, message in self.rule:
                if not accepts(value):
                    raise ValueError(message.format(value))
            return value
        except (ValueError, ResourceLimitError) as exc:
            raise InvalidConfigError(f"{label}: {exc}") from None


_FINITE = (math.isfinite, "{} is not a finite number")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
# Every ExperimentPlan key, in field order, then every value flag of
# `spinlets simulate` and `estimate` that is no plan key: how its text
# parses; its rule, (accepts, message) tests tried in order or a function
# (value, B) -> the value kept, raising ValueError(message); the flag's
# default, which is no plan default (those stay on ExperimentPlan: noise_level
# is 0.0 there, 1.0 as a flag); and the KINDS inputs without which a given
# flag has no effect (none: it always has one).  A flag that may be refused
# defaults to None in argparse, so that a given one can be told from a missing one.
FIELDS = {
    "B": Field(float, lambda value, B: check_bandwidth(value)),
    "s": Field(int),
    "j_list": Field(str, levels_rule),
    "alpha": Field(float, (_FINITE,), 3.0),
    "gamma": Field(float, (_FINITE,), 2.5, {"noise"}),
    "noise_level": Field(float, (_FINITE, _NONNEGATIVE), 1.0, {"noise"}),
    "channels": Field(int, ((lambda v: v == 0 or v >= 2, "must be 0 or >= 2"),), 0),
    "replicates": Field(int, ((lambda v: v >= 1, "must be >= 1"),)),
    "base_seed": Field(int),
    "kinds": Field(str, kinds_rule),
    "mask_fraction": Field(float, (_FINITE, (lambda v: 0.0 <= v < 1.0,
                                             "must be in [0, 1)"))),
    "epsilon_scale": Field(float, (_FINITE, _NONNEGATIVE)),
    "noise_bias_factor": Field(float, (_FINITE,)),
    "spin": Field(int, default=2),
    "lmax": Field(int),
    "seed": Field(int),
    "kind": Field(str, kinds_rule, "masked"),
    "coeffs": Field(str, ((bool, "need at least one SNBC file (or --demo)"),)),
    "epsilon": Field(float, ((lambda v: 0.0 <= v < math.inf,
                              "--epsilon={} must be >= 0 and finite"),),
                     0.0, {"mask", "regions"}),
    "mask": Field(readers={"mask"}),
}


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

    def __post_init__(self):  # so dataclasses.replace re-checks too
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():  # B, and so the level cap, first
            object.__setattr__(self, name, FIELDS[name].check(value, name, self.B))
        if "channels" in inputs_read(self.kinds) and self.channels < 2:
            raise InvalidConfigError(
                "channels: ap/cp/hausman need at least 2 channels")


class _PlanContext:
    """Immutable state shared by all replicates of one plan, and the runner of
    each replicate; pool workers receive it pickled with each chunk."""

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        self.reads = inputs_read(plan.kinds)
        # refused here, not by every replicate (the plan has refused a level
        # past the pixel cap): first every level its grid cannot resolve
        # exactly or whose table passes the cap (level_band), then an
        # empty mask and an empty hemisphere interior
        try:  # (grid, top degree it reads of an unbounded field) per level
            admitted = [(grid, level_band(grid, plan.s))
                        for grid in (build_cubature(j, plan.B) for j in plan.j_list)]
        except (BandLimitExceededError, ResourceLimitError) as exc:
            raise InvalidConfigError(
                f"j_list: {exc} (B={plan.B}, s={plan.s})") from None
        self.signal_model = spin_power_law(plan.alpha, plan.s)
        self.noise_models = [spin_power_law(plan.gamma, plan.s, "noise",
                                            plan.noise_level)] * plan.channels
        self.adopted_noise = [m.scaled(plan.noise_bias_factor)
                              for m in self.noise_models]
        self.L = max(top for _, top in admitted)  # the deepest level's top
        self.levels = {}
        for grid, top in admitted:
            eps = plan.epsilon_scale * plan.B ** (-grid.j)
            mask = polar_cap_mask(grid, plan.mask_fraction, epsilon=eps) \
                if "mask" in self.reads else None
            regions = hemispheres(grid, epsilon=eps) \
                if "regions" in self.reads else None
            if regions is not None:  # pickled warm to the pool workers
                for which in (1, 2):
                    regions.interior(which)
            self.levels[grid.j] = (grid, mask, regions, top)

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


@dataclass
class NormalityStats:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float


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
            entry.update(asdict(normality_diagnostics(std)))
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
    deterministic order.  Aborts when more than 1% of replicates fail.  The
    pool has min(threads, replicates) workers, all forked at the first submit.
    """
    if threads < 1:
        raise InvalidConfigError(f"threads: {threads} must be >= 1")
    ctx = _PlanContext(plan)  # built once per run
    workers = min(threads, plan.replicates)
    # fork: workers start without re-importing, so they see the caller's
    # monkeypatches (test_failure_budget_same_for_serial_and_pool needs it)
    pool = None if workers == 1 else ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"))
    results, failures = {}, []
    try:
        outcomes = map(ctx.rows, range(plan.replicates)) if pool is None \
            else pool.map(ctx.rows, range(plan.replicates),
                          chunksize=max(1, plan.replicates // (4 * workers)))
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
