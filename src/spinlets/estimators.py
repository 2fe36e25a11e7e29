"""Spectral estimators and test statistics: masked, two-region, AP, CP, Hausman.

The level-j band power is Gamma_{j;s} = sum_l b^2(sqrt(e_ls)/B^j) C_l (2l+1).
The masked estimator is normalized so that its expectation is Gamma exactly:

    (4pi / sum_{k in obs} lambda_k) * sum_{k in obs} |beta*_{jk;s}|^2

with obs the pixels outside the dilated region G^eps (the written form of
the estimator divides by sum lambda only; the extra 4pi makes the full-sky
expectation match the band power, since sum_k lambda_k = 4pi).  The noise
bias of the auto-power estimator carries the same per-pixel lambda factor,
E|beta_{jk;sN}|^2 = lambda_k GammaN_{j;s} / 4pi.

Variance normalizers come from block subsampling: observed pixels are split
into latitude-band x longitude-sector blocks, the statistic is recomputed on
each block (weight-normalized), and

    Var(S) = [sum_b w_b^2 (S_b - S)^2 / (1 - sum_b w_b^2)] * nu/(nu - 2)

with w_b = W_b / W and nu = N_blocks - 1; the trailing factor keeps the
*standardized* statistic at unit variance (the block spread enters a
denominator, as in a t statistic).  Block correlations are negligible
because coefficient correlations decay like (1 + B^j d)^(-M) while the
blocks are much wider than B^-j.

Final scalar reductions are exact sums, correctly rounded: `_exact_sum`
gives math.fsum's bits in numpy, so estimator values do not depend on pixel
ordering or parallel scheduling.

What depends only on the grid and a pixel selection is computed once: the
grid owns a memo (`CubatureGrid._selections`, keyed by the selection's
packed bits and block count) holding the block partition as runs of labels,
the block weights and sum lambda.  `block_labels` expands the runs into a
fresh array on each call.  Gamma_{j;s} is memoized per (j, s, model) on the
window.  Per call only the replicate's work remains: |beta|^2, the block
sums and the variance.

KINDS gives each estimator kind's inputs, function and paper name; `estimate`
dispatches on it for the Monte Carlo harness and the CLI alike.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (EmptyObservedRegionError, InvalidChannelCountError,
                     InvalidConfigError, MaskedFlagMismatchError,
                     MissingNoiseModelError, NonpositiveVarianceError,
                     SelfCheckError, SpinletsError, TooFewBlocksError)
from .fields import PowerSpectrumModel, cl_profile
from .grid import CubatureGrid, RegionPair, SkyMask
from .transform import NeedletCoefficients
from .window import NeedletWindow, band_profile, window_support

FOUR_PI = 4.0 * math.pi


class Kind(NamedTuple):
    """`function` (a name in this module) called with the inputs named by
    `args`; the first is the coefficients read: masked, gapfree or channels."""

    args: tuple
    function: str
    paper_name: str


KINDS = {
    "masked": Kind(("masked", "mask", "signal"), "estimate_masked", "masked_spectral"),
    "unfeasible": Kind(("gapfree", "mask", "signal"), "estimate_masked",
                       "gapfree_spectral"),
    "asymmetry": Kind(("gapfree", "regions", "signal"), "estimate_asymmetry",
                      "two_region_difference"),
    "ap": Kind(("channels", "noise", "signal"), "estimate_ap", "auto_power"),
    "cp": Kind(("channels", "signal"), "estimate_cp", "cross_power"),
    "hausman": Kind(("channels", "noise", "signal"), "estimate_hausman",
                    "hausman_difference"),
}
KNOWN_KINDS = tuple(KINDS)
PAPER_KIND = {kind: spec.paper_name for kind, spec in KINDS.items()}


def inputs_read(kinds) -> set:
    """Every input name the KINDS entries of `kinds` read (unknown kinds: none)."""
    return {name for kind in kinds if kind in KINDS for name in KINDS[kind].args}


@dataclass(eq=False)
class EstimateReport:
    """One estimator evaluation: value, target, variance, standardized form."""

    j: int
    s: int
    kind: str
    value: float
    theoretical_target: float
    variance_estimate: float
    meta: dict = field(default_factory=dict)
    # AP's and CP's per-pixel contributions, whose difference Hausman
    # subsamples; not serialized
    pixel_values: np.ndarray | None = field(default=None, repr=False)

    @property
    def standardized(self) -> float:
        """(value - target) / sqrt(variance), or 0 when variance <= 0."""
        if self.variance_estimate > 0.0:
            return ((self.value - self.theoretical_target)
                    / math.sqrt(self.variance_estimate))
        return 0.0

    def to_dict(self) -> dict:
        return {
            "j": self.j, "s": self.s, "kind": self.kind,
            "paper_kind": PAPER_KIND.get(self.kind, self.kind),
            "value": self.value,
            "theoretical_target": self.theoretical_target,
            "variance_estimate": self.variance_estimate,
            "standardized": self.standardized,
            "meta": self.meta,
        }


def gamma_theoretical(window: NeedletWindow, model: PowerSpectrumModel,
                      j: int, s: int) -> float:
    """Band power Gamma_{j;s} = sum_l b^2 C_l (2l+1) over the window support.

    Computed once per (j, s, model) and kept by the window; an empty support
    warns on every call.
    """
    support = window_support(window, j, s)
    if len(support) == 0:
        warnings.warn(f"empty window support at level j={j}, spin s={s}",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    key = (j, s, model)
    gamma = window._band_powers.get(key)
    if gamma is None:
        ells = np.asarray(support)
        b2 = band_profile(window, j, s, ells) ** 2
        cl = cl_profile(model, ells)
        gamma = window._band_powers[key] = float(np.sum(b2 * cl * (2 * ells + 1)))
    return gamma


def _grid_meta(grid: CubatureGrid) -> dict:
    return {"grid": f"j={grid.j} B={grid.B!r} npix={grid.n_pixels}",
            "window": f"B={grid.B!r}"}


def block_labels(grid: CubatureGrid, observed: np.ndarray,
                 n_blocks: int | None = None) -> np.ndarray:
    """Latitude-band x longitude-sector partition of the observed pixels.

    Returns an int array over all pixels: block id for observed pixels, -1
    elsewhere.  Bands are weight-quantiles (pixel order is already
    theta-major), sectors are equal phi intervals; undersized blocks merge
    into their band neighbour.  The partition is computed once per grid,
    selection and n_blocks; each call returns a fresh array.
    """
    sel = _selection(grid, observed, n_blocks)
    return np.repeat(sel.values, sel.lengths)


class _Selection(NamedTuple):
    """What the estimators read of one pixel selection on one grid."""

    values: np.ndarray   # block labels as runs: the label of each run
    lengths: np.ndarray  # and its pixel count
    n_b: int             # blocks (0 if none is admissible)
    w_b: np.ndarray      # block weight sums W_b
    W: float             # sum_b W_b
    shares2: np.ndarray  # w_b^2 = (W_b / W)^2
    denom: float         # 1 - sum_b w_b^2
    weight_sum: float    # sum of lambda over the selection, exact


def _selection(grid: CubatureGrid, selection: np.ndarray,
               n_blocks: int | None = None) -> _Selection:
    """The selection's entry in the grid's memo, computed on first use."""
    selection = np.asarray(selection, dtype=bool)
    key = (np.packbits(selection).tobytes(), n_blocks)
    sel = grid._selections.get(key)
    if sel is None:
        labels = _partition(grid, selection, n_blocks)
        starts = np.concatenate(([0], np.flatnonzero(np.diff(labels)) + 1))
        n_b = int(labels.max()) + 1  # 0 when no block is admissible
        w_b = np.bincount(labels + 1, weights=grid.weights,
                          minlength=n_b + 1)[1:]
        W = w_b.sum()
        shares2 = (w_b / W) ** 2
        sel = grid._selections[key] = _Selection(
            values=_mapped_copy(labels[starts]),
            lengths=_mapped_copy(np.diff(starts, append=labels.size)),
            n_b=n_b, w_b=w_b, W=W, shares2=shares2,
            denom=1.0 - float(np.sum(shares2)),
            weight_sum=_exact_sum(grid.weights[selection]))
    return sel


def _mapped_copy(a: np.ndarray) -> np.ndarray:
    """`a` copied into an anonymous memory map of its own, off the malloc heap.

    Memo entries are made mid-replicate, above that replicate's temporaries;
    kept on the heap, the runs of a j = 7 selection would stop the freed
    temporaries below them from going back to the system (3 MB of heap).
    """
    out = np.frombuffer(mmap.mmap(-1, a.nbytes), dtype=a.dtype)
    out[:] = a
    return out


def _partition(grid: CubatureGrid, observed: np.ndarray,
               n_blocks: int | None) -> np.ndarray:
    """The labels block_labels returns, computed from the grid's pixels."""
    labels = np.full(grid.n_pixels, -1, dtype=np.int64)
    obs_idx = np.flatnonzero(observed)
    n_obs = obs_idx.size
    if n_obs == 0:
        return labels
    if n_blocks is None:
        n_blocks = max(8, math.ceil(math.sqrt(n_obs) / 4.0))
    n_lat = max(2, int(round(math.sqrt(n_blocks / 2.0))))
    n_lon = max(2, math.ceil(n_blocks / n_lat))

    w = grid.weights[obs_idx]
    cum = np.cumsum(w) - 0.5 * w
    band = np.minimum((cum / cum[-1] * n_lat).astype(int)
                      if cum[-1] > 0 else np.zeros(n_obs, int), n_lat - 1)
    sector = np.minimum((grid.phi_pixels[obs_idx] / (2.0 * math.pi)
                         * n_lon).astype(int), n_lon - 1)
    raw = band * n_lon + sector

    # Runt merges act on the n_lat*n_lon cells: dest[c] is the block that
    # raw cell c's pixels end in, counts[c] the pixels block c holds.
    counts = np.bincount(raw, minlength=n_lat * n_lon).tolist()
    dest = np.arange(n_lat * n_lon)
    for b in range(n_lat):
        ids = range(b * n_lon, (b + 1) * n_lon)
        carry = None
        for i in ids:
            if counts[i] == 0 and carry is None:
                continue
            if carry is not None:  # merge the runt into the next sector
                dest[dest == carry] = i
                counts[i] += counts[carry]
                counts[carry] = 0
                carry = None
            if counts[i] < 16:
                carry = i
        if carry is not None:  # fold a trailing runt into the previous block
            others = [i for i in ids if counts[i] >= 16]
            if others:
                dest[dest == carry] = others[-1]
    kept = np.array(counts) >= 16
    final = np.where(kept, np.cumsum(kept) - 1, -1)
    labels[obs_idx] = final[dest[raw]]
    return labels


def subsampling_variance(pixel_values: np.ndarray, grid: CubatureGrid,
                         observed: np.ndarray | None = None) -> float:
    """Block-subsampling estimate of Var of S = 4pi sum(v) / sum(lambda).

    pixel_values are the per-pixel contributions of the statistic being
    normalized (|beta|^2 terms, bias-corrected channel averages, or
    differences of such).
    """
    if observed is None:
        observed = np.ones(grid.n_pixels, dtype=bool)
    labels = block_labels(grid, observed)  # the entry benchmarks/spans.py traces
    sel = _selection(grid, observed)
    n_b = sel.n_b
    if n_b == 0:
        raise TooFewBlocksError("no admissible subsampling blocks")
    if n_b < 8:
        raise TooFewBlocksError(f"only {n_b} blocks of >= 16 pixels (need 8)")
    if sel.denom <= 0.0:
        raise TooFewBlocksError("degenerate block weights")

    vals = np.asarray(pixel_values, dtype=np.float64)
    # bin 0 collects the pixels in no block (label -1)
    v_b = np.bincount(labels + 1, weights=vals, minlength=n_b + 1)[1:]
    s_b = FOUR_PI * v_b / sel.w_b
    s_full = FOUR_PI * v_b.sum() / sel.W
    var = float(np.sum(sel.shares2 * (s_b - s_full) ** 2) / sel.denom)
    # small-sample correction: the spread over ~N_b blocks enters a
    # denominator, so scale by nu/(nu-2) (t-statistic variance) to keep the
    # standardized statistic at unit variance
    nu = n_b - 1
    if nu > 2:
        var *= nu / (nu - 2.0)
    return float(var)


def _exact_sum(a: np.ndarray) -> float:
    """math.fsum(a.tolist()) of a 1-D float64 array, bit for bit, without the list.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008): for sigma = 2^e >= 2(n+2) max|r|, q = (sigma + r) - sigma and
    r - q are exact, and np.sum(q) is exact in any order.  Each pass keeps
    that sum and the nonzero remainders, at most 2^-53 sigma each; math.fsum
    rounds the few partial sums once.  Non-finite input, or a sigma that
    would overflow, goes to math.fsum itself (its nan, inf or exception).
    """
    r = a
    partials = []
    while r.size:
        bound = 2.0 * (r.size + 2) * float(np.max(np.abs(r)))
        if not bound < 2.0 ** 1023:
            return math.fsum(a.tolist())
        sigma = math.ldexp(1.0, math.frexp(bound)[1])
        q = (sigma + r) - sigma
        partials.append(float(np.sum(q)))
        r = r - q
        r = r[r != 0.0]
    return math.fsum(partials)


def _weighted_estimate(pixel_values: np.ndarray, grid: CubatureGrid,
                       selection: np.ndarray) -> float:
    """S = 4pi sum_sel(v) / sum_sel(lambda), exact (correctly rounded) sums."""
    idx = np.flatnonzero(selection)
    if idx.size == 0:
        raise EmptyObservedRegionError("estimator selection is empty")
    num = _exact_sum(pixel_values[idx])
    return FOUR_PI * num / _selection(grid, selection).weight_sum


def estimate_masked(coeffs: NeedletCoefficients, mask: SkyMask,
                    model: PowerSpectrumModel) -> EstimateReport:
    """Band power over the pixels outside the dilated region: kind "masked"
    for masked coefficients, "unfeasible" (the gap-free benchmark) otherwise."""
    if mask.grid != coeffs.grid:
        raise ValueError("mask and coefficients use different grids")
    grid = coeffs.grid
    x = np.abs(coeffs.values) ** 2
    value = _weighted_estimate(x, grid, mask.observed)
    target = gamma_theoretical(grid.window, model, grid.j, coeffs.s)
    meta = _grid_meta(grid)
    if len(window_support(grid.window, grid.j, coeffs.s)) == 0:
        meta["empty_support"] = True
        variance = 0.0
    else:
        variance = subsampling_variance(x, grid, observed=mask.observed)
    meta["mask"] = f"excluded={int(mask.excluded.sum())} eps={mask.epsilon:g}"
    return EstimateReport(
        j=grid.j, s=coeffs.s, kind="masked" if coeffs.masked else "unfeasible",
        value=value, theoretical_target=target, variance_estimate=variance,
        meta=meta)


def estimate_asymmetry(coeffs: NeedletCoefficients, regions: RegionPair,
                       model: PowerSpectrumModel) -> EstimateReport:
    """Difference of per-region band-power estimates over eps-interiors."""
    if regions.grid != coeffs.grid:
        raise ValueError("regions and coefficients use different grids")
    grid = coeffs.grid
    x = np.abs(coeffs.values) ** 2
    gamma = gamma_theoretical(grid.window, model, grid.j, coeffs.s)
    vals, variances = [], []
    for which in (1, 2):
        sel = regions.interior(which)
        vals.append(_weighted_estimate(x, grid, sel))
        variances.append(subsampling_variance(x, grid, observed=sel))
    value = vals[0] - vals[1]
    variance = variances[0] + variances[1]
    meta = _grid_meta(grid)
    meta.update({
        "regions": f"|A1|={int(regions.a1.sum())} |A2|={int(regions.a2.sum())} "
                   f"eps={regions.epsilon:g}",
        "region1_value": vals[0], "region2_value": vals[1],
        "region1_variance": variances[0], "region2_variance": variances[1],
        "gamma_target": gamma,
    })
    return EstimateReport(
        j=grid.j, s=coeffs.s, kind="asymmetry", value=value,
        theoretical_target=0.0, variance_estimate=variance, meta=meta)


def _channel_beta(channel_coeffs) -> tuple:
    coeffs = list(channel_coeffs)
    if not coeffs:
        raise InvalidChannelCountError("no channels provided")
    if any(c.s != coeffs[0].s or c.grid != coeffs[0].grid for c in coeffs):
        raise ValueError("channel coefficients must share (s, grid)")
    return coeffs, np.stack([c.values for c in coeffs])


def _noise_bias(coeffs: list, noise_models) -> np.ndarray:
    """Per-pixel noise bias sum_r E|beta_{jk;sN_r}|^2 = lambda_k sum_r
    GammaN_{j;s,r} / 4pi of the channels `coeffs`, one noise model each."""
    noise_models = list(noise_models)
    if len(noise_models) != len(coeffs):
        raise MissingNoiseModelError(
            f"got {len(noise_models)} noise spectra for {len(coeffs)} channels")
    grid, s = coeffs[0].grid, coeffs[0].s
    gamma_n = np.array([gamma_theoretical(grid.window, nm, grid.j, s)
                        for nm in noise_models])
    return np.sum(grid.weights[None, :] * (gamma_n[:, None] / FOUR_PI), axis=0)


def _channel_report(kind: str, coeffs: list, x: np.ndarray, value: float,
                    signal_model: PowerSpectrumModel) -> EstimateReport:
    """The AP or CP report of per-pixel contributions x summing to value."""
    grid, s = coeffs[0].grid, coeffs[0].s
    target = gamma_theoretical(grid.window, signal_model, grid.j, s)
    variance = subsampling_variance(x, grid)
    return EstimateReport(
        j=grid.j, s=s, kind=kind, value=value, theoretical_target=target,
        variance_estimate=variance,
        meta=dict(_grid_meta(grid), channels=len(coeffs)), pixel_values=x)


def estimate_ap(channel_coeffs, noise_models, signal_model: PowerSpectrumModel
                ) -> EstimateReport:
    """Auto-power estimator: channel-averaged |beta|^2 minus the known noise bias."""
    coeffs, beta = _channel_beta(channel_coeffs)
    noise_bias = _noise_bias(coeffs, noise_models)
    x = (np.sum(np.abs(beta) ** 2, axis=0) - noise_bias) / len(coeffs)
    return _channel_report("ap", coeffs, x, _exact_sum(x), signal_model)


def estimate_cp(channel_coeffs, signal_model: PowerSpectrumModel) -> EstimateReport:
    """Cross-power estimator over ordered channel pairs; needs no noise model."""
    coeffs, beta = _channel_beta(channel_coeffs)
    d = len(coeffs)
    if d < 2:
        raise InvalidChannelCountError("cross-power needs at least 2 channels")
    acc = np.zeros(beta.shape[1], dtype=np.complex128)
    for r1 in range(d):
        for r2 in range(d):
            if r1 != r2:
                acc += beta[r1] * np.conj(beta[r2])
    acc /= d * (d - 1)
    total = complex(_exact_sum(acc.real), _exact_sum(acc.imag))
    if abs(total.imag) > 1e-10 * max(abs(total.real), 1e-300):
        raise SelfCheckError(f"cross-power came out non-real: {total!r}")
    return _channel_report("cp", coeffs, acc.real, total.real, signal_model)


def hausman_statistic(ap: EstimateReport, cp: EstimateReport, variance: float,
                      channel_coeffs, noise_models) -> EstimateReport:
    """Standardized CP - AP difference, with the algebraic identity verified
    on the channel coefficients and noise models the reports were computed from:

    CP - AP = (1/(D(D-1))) sum_k { (D-1) sum_r E|beta_{jk;sN_r}|^2
              - sum_{r1<r2} |beta_{jk;sr1} - beta_{jk;sr2}|^2 }
    must hold per realization to machine precision (the pair sum runs over
    unordered pairs; over ordered pairs it carries a factor 1/2).
    """
    if (ap.j, ap.s) != (cp.j, cp.s):
        raise ValueError("AP and CP reports are for different (j, s)")
    if ap.kind != "ap" or cp.kind != "cp":
        raise ValueError("hausman_statistic needs one AP and one CP report")
    if not variance > 0.0:
        raise NonpositiveVarianceError(f"variance={variance} must be > 0")
    coeffs, beta = _channel_beta(channel_coeffs)
    if (coeffs[0].grid.j, coeffs[0].s) != (ap.j, ap.s):
        raise ValueError(f"channels are for (j, s) = ({coeffs[0].grid.j}, "
                         f"{coeffs[0].s}), the reports for ({ap.j}, {ap.s})")
    value = cp.value - ap.value
    d = beta.shape[0]
    pair = np.zeros(beta.shape[1])
    for r1 in range(d):
        for r2 in range(r1 + 1, d):
            pair += np.abs(beta[r1] - beta[r2]) ** 2
    per_pixel = ((d - 1) * _noise_bias(coeffs, noise_models) - pair) / (d * (d - 1))
    identity = _exact_sum(per_pixel)
    scale = max(abs(ap.value), abs(cp.value), abs(identity), 1e-300)
    residual = abs(value - identity) / scale
    if residual > 1e-10:
        raise SelfCheckError(
            f"hausman identity violated: relative residual {residual:.3e}")
    meta = dict(ap.meta, identity_residual=residual)

    return EstimateReport(
        j=ap.j, s=ap.s, kind="hausman", value=value,
        theoretical_target=0.0, variance_estimate=variance, meta=meta)


def estimate_hausman(channel_coeffs, noise_models,
                     signal_model: PowerSpectrumModel) -> EstimateReport:
    """AP, CP, subsampled variance of their difference, then the test statistic."""
    channel_coeffs, noise_models = list(channel_coeffs), list(noise_models)
    ap = estimate_ap(channel_coeffs, noise_models, signal_model)
    cp = estimate_cp(channel_coeffs, signal_model)
    variance = subsampling_variance(cp.pixel_values - ap.pixel_values,
                                    channel_coeffs[0].grid)
    return hausman_statistic(ap, cp, variance, channel_coeffs, noise_models)


def check_masked_flags(kind: str, coeffs: list, names=None) -> None:
    """Refuse what `kind` reads of `coeffs` (all for "channels", else the first)
    unless masked for "masked", unmasked for "gapfree" and "channels"; the
    error names coefficients i by names[i], if given."""
    name = KINDS[kind].args[0]
    for i, c in enumerate(coeffs if name == "channels" else coeffs[:1]):
        if c.masked != (name == "masked"):
            raise MaskedFlagMismatchError(
                f"{names[i] if names else f'{name} input {i}'} has masked="
                f"{c.masked}; kind {kind!r} needs masked={name == 'masked'}")


def estimate(kind: str, inputs: dict) -> EstimateReport:
    """Run estimator `kind` on the inputs its KINDS entry names: "masked",
    "gapfree", "channels", "mask", "regions", "noise" or "signal"."""
    spec = KINDS.get(kind)
    if spec is None:
        raise InvalidConfigError(f"kind: unknown estimator {kind!r}")
    try:
        first = inputs[spec.args[0]]
        check_masked_flags(kind, first if spec.args[0] == "channels" else [first])
        # by name on each call, so wrappers installed on this module see it
        rep = globals()[spec.function](*(inputs[name] for name in spec.args))
    except SpinletsError as exc:
        raise type(exc)(f"[kind={kind}] {exc}") from exc
    return rep
