"""Host-speed calibration for a shared machine.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, in CPU time as much as in wall time, because
other tenants load the same caches and cores.  A run's median cannot average
out a drift slower than the run, so the timed metrics are scaled by a fixed
calibration kernel timed in the same process, between the program's calls:

    scaled time = measured time * REFERENCE_KERNEL_S / measured kernel time

that is, the time the call would take on a host where the kernel takes
REFERENCE_KERNEL_S.  The kernel mixes what the program does: large
elementwise numpy passes, small dense products, FFTs and sorts, and plain
interpreter work.  It does not use the package, so a change to the package
moves the scaled metrics exactly as it moves the raw ones; the raw figures
are kept beside the scaled ones in every result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel wall time on the 2-core host where the benchmark was defined
# (Intel Xeon, KVM guest, OpenBLAS pinned to one thread).  It only fixes the
# scale of the scaled metrics; changing it would rescale every one of them.
REFERENCE_KERNEL_S = 0.2

_DATA = {}


def _data() -> dict:
    if not _DATA:
        rng = np.random.default_rng(0)
        _DATA["a"] = rng.standard_normal(200_000)
        _DATA["b"] = rng.standard_normal(200_000)
        _DATA["m"] = rng.standard_normal((96, 96)) / 96.0
        _DATA["s"] = rng.standard_normal(60_000)
    return _DATA


def _kernel(d: dict) -> float:
    a, b, m, s = d["a"], d["b"], d["m"], d["s"]
    acc = 0.0
    for _ in range(8):
        acc += float(np.cumsum(np.sin(a) * b + np.sqrt(np.abs(a)))[-1])
    for _ in range(30):
        x = m
        for _ in range(25):
            x = np.tanh(x @ m + 0.1)
        acc += float(x[0, 0])
    for _ in range(20):
        acc += float(np.abs(np.fft.rfft(a[:65536])).sum())
        acc += float(s[np.argsort(s)][0])
    counts = {}
    for i in range(150_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


def kernel_time() -> tuple:
    """Wall and process-CPU seconds of one pass of the calibration kernel."""
    d = _data()
    c0, t0 = time.process_time(), time.perf_counter()
    _kernel(d)
    return time.perf_counter() - t0, time.process_time() - c0


def scaled(seconds: float, kernels: list) -> float:
    """A time taken while the kernel took `kernels`, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / statistics.median(kernels)


def scaled_median(times: list, kernels: list) -> float:
    """Median of times[i] scaled by the kernel passes just before and after it.

    kernels[i] ran just before times[i] and kernels[i + 1] just after, so the
    pair tracks the host's speed over the call better than the run's median.
    """
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel pass before and after every call")
    return REFERENCE_KERNEL_S * statistics.median(
        t / ((before + after) / 2.0)
        for t, before, after in zip(times, kernels, kernels[1:]))


if __name__ == "__main__":
    kernel_time()
    for _ in range(5):
        wall, cpu = kernel_time()
        print(f"kernel {wall:.4f} s wall, {cpu:.4f} s cpu")
