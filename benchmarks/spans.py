"""Span tracing of the spinlets layers from outside the package.

``Tracer.install()`` replaces public functions with timing wrappers in every
loaded ``spinlets`` module that binds them, i.e. where their callers look
them up (``spinlets.mc.draw_alm``, ``spinlets.transform.d_table``,
``spinlets.estimators.block_labels``, ...), plus the ``RegionPair.interior``
method.  ``uninstall()`` puts the originals back, so untraced runs execute
the unmodified package.  Spans stay in memory; ``summary()`` reduces them.

A span's self time is its duration minus the durations of its direct
children.  Each root span (one ``mc.run_experiment`` call) is one request.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import Counter
from time import perf_counter

# (span name, home module, attribute).  Span names are "<layer>.<function>";
# grid.dilation covers every public entry that dilates a pixel set.
TRACED = (
    ("mc.run_experiment", "spinlets.mc", "run_experiment"),
    ("wigner.d_table", "spinlets.wigner", "d_table"),
    ("window.band_profile", "spinlets.window", "band_profile"),
    ("window.window_support", "spinlets.window", "window_support"),
    ("grid.build_cubature", "spinlets.grid", "build_cubature"),
    ("grid.dilation", "spinlets.grid", "polar_cap_mask"),
    ("grid.dilation", "spinlets.grid", "empty_mask"),
    ("fields.draw_alm", "spinlets.fields", "draw_alm"),
    ("fields.observe_channels", "spinlets.fields", "observe_channels"),
    ("transform.synthesize_on_grid", "spinlets.transform", "synthesize_on_grid"),
    ("transform.analyze_on_grid", "spinlets.transform", "analyze_on_grid"),
    ("transform.needlet_analyze", "spinlets.transform", "needlet_analyze"),
    ("transform.masked_analyze", "spinlets.transform", "masked_analyze"),
    ("estimators.block_labels", "spinlets.estimators", "block_labels"),
    ("estimators.subsampling_variance", "spinlets.estimators",
     "subsampling_variance"),
    ("estimators.estimate_masked", "spinlets.estimators", "estimate_masked"),
    ("estimators.estimate_asymmetry", "spinlets.estimators",
     "estimate_asymmetry"),
    ("estimators.estimate_ap", "spinlets.estimators", "estimate_ap"),
    ("estimators.estimate_cp", "spinlets.estimators", "estimate_cp"),
    ("estimators.estimate_hausman", "spinlets.estimators", "estimate_hausman"),
)
LAYERS = ("mc", "wigner", "window", "grid", "fields", "transform", "estimators")


def _dilated_pairs(n_targets: int, n_pixels: int, epsilon: float) -> int:
    """|targets| * |rest| of one dilation; 0 when it short-circuits."""
    if epsilon <= 0.0 or n_targets in (0, n_pixels):
        return 0
    return n_targets * (n_pixels - n_targets)


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, root index]
        self._open = []      # indices of spans not yet ended
        self.counters = Counter()
        self._label_inputs = set()   # (root, grid, selection) of block_labels
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, root])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                count(self.spans[idx][4], out, *args, **kwargs)
            return out
        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_d_table(self, root, out, L, n, theta):
        self.counters["wigner.d_table.bytes_computed"] += \
            (L + 1) * (2 * L + 1) * len(theta) * 8

    def _count_block_labels(self, root, out, grid, observed, n_blocks=None):
        digest = hashlib.blake2b(observed.tobytes(), digest_size=16).digest()
        self._label_inputs.add((root, grid.fingerprint, digest, n_blocks))

    def _count_mask(self, root, out, grid, *args, **kwargs):
        self.counters["grid.dilation.pair_count"] += _dilated_pairs(
            int(out.excluded.sum()), grid.n_pixels, out.epsilon)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        counters = {"wigner.d_table": self._count_d_table,
                    "estimators.block_labels": self._count_block_labels,
                    "grid.dilation": self._count_mask}
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "spinlets" or k.startswith("spinlets.")]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, counters.get(name))
            for module in loaded:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        region_pair = sys.modules["spinlets.grid"].RegionPair
        original = region_pair.interior
        tracer = self

        def interior(pair, which):
            cache = getattr(pair, "_interior_cache", {})
            if which not in cache:
                region = pair.a1 if which == 1 else pair.a2
                tracer.counters["grid.dilation.pair_count"] += _dilated_pairs(
                    int((~region).sum()), pair.grid.n_pixels, pair.epsilon)
            idx = tracer._enter("grid.dilation")
            try:
                return original(pair, which)
            finally:
                tracer._exit(idx)

        functools.update_wrapper(interior, original)
        self._undo.append((region_pair, "interior", original))
        region_pair.interior = interior

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds; plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, root in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            st = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child[i]
            st["total_s"] += end - start
        return {
            "spans": out,
            "roots": sum(1 for s in self.spans if s[3] < 0),
            "wall_s": sum(s[2] - s[1] for s in self.spans if s[3] < 0),
            "counters": dict(self.counters),
            "block_labels_distinct": len(self._label_inputs),
        }


def span_calls(summary: dict, name: str) -> int:
    return summary["spans"].get(name, {}).get("calls", 0)


def span_self(summary: dict, name: str) -> float:
    return summary["spans"].get(name, {}).get("self_s", 0.0)


def layer_self(summary: dict, layer: str) -> float:
    return sum(st["self_s"] for name, st in summary["spans"].items()
               if name.split(".", 1)[0] == layer)
