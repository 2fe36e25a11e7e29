"""Spinlets Monte Carlo benchmark.

Usage (from the repository root):

    python3 benchmarks/run.py --workload masked_j5 --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10

One workload runs in this process, single-threaded, with BLAS pinned to one
thread.  It loads a bundled config with ``cli.plan_from_config``, replaces
``replicates`` and ``base_seed`` (the seed is ``--seed``), and calls
``mc.run_experiment(plan, threads=1)`` then ``mc.rows_to_csv``.  The
process-pool path (threads > 1) is not measured: on a 2-core machine it
would measure the scheduler.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
replicates_per_s and cpu_ms_per_replicate (medians over repeated R-replicate
calls until ``--seconds`` have passed), peak_rss_mb (ru_maxrss of this
process) and setup_s (median over fresh processes of importing the package
and making a one-replicate call).  The timed ones are scaled to a reference
host speed by a calibration kernel timed between the calls (calibrate.py),
because the shared host's speed drifts more between runs than a bound could
allow; the unscaled figures go to stderr and out/.
``--trace 1`` alternates untraced and traced calls at the same seed and
reports the per-layer metrics from the traced ones (see spans.py).

Every run checks its outputs: every value finite, R x |levels| x |kinds|
rows, identical tables from every call (traced or not), and the table at the
config's own seed equal to reference/<workload>.csv at 1e-12 relative.  A
failed check prints ``"correct": false`` and exits 1.  The last line of
stdout is the JSON result; the environment, the full span table and the
exact-count check go to stderr and to out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Pinned before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_CALLS = 3           # timed calls per run, whatever --seconds says
SETUP_REPEATS = 5       # fresh processes timed per run for setup_s
REFERENCE_RTOL = 1e-12  # ROADMAP aim 2 tolerance for changed arithmetic
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken probe)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def import_spinlets():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import spinlets
        from spinlets import cli, mc
    except ImportError as exc:
        raise BenchError(f"cannot import spinlets from {SRC}: {exc}") from exc
    if Path(spinlets.__file__).resolve().parent != SRC / "spinlets":
        raise BenchError(f"spinlets imported from {spinlets.__file__}, "
                         f"not from {SRC}")
    return cli, mc


def load_plan(cli, workload, replicates: int, seed: int | None):
    """Bundled plan with only replicates and base_seed replaced."""
    plan = cli.plan_from_config(SRC / "spinlets" / "configs" / workload.config)
    seed = plan.base_seed if seed is None else seed
    return dataclasses.replace(plan, replicates=replicates, base_seed=seed)


# -- environment ------------------------------------------------------------

def _blas_threads_in_use():
    """Live OpenBLAS thread count, or None when it cannot be queried."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _last_level_cache_bytes():
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        value = out.stdout.strip()
        if out.returncode == 0 and value.isdigit() and int(value) > 0:
            return {"level": name, "bytes": int(value)}
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "last_level_cache": _last_level_cache_bytes(),
        "machine": platform.machine(),
    }


# -- output checks ----------------------------------------------------------

def table_problems(plan, rows, csv: str, first_csv: str | None) -> list:
    """Row count, finiteness and equality with the first table of the run."""
    problems = []
    expected = plan.replicates * len(plan.j_list) * len(plan.kinds)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if not all(math.isfinite(v) for row in rows for v in row[3:]):
        problems.append("non-finite value in the raw table")
    if first_csv is not None and csv != first_csv:
        problems.append("raw table differs from the run's first table "
                        "at the same seed")
    return problems


def _number(field: str) -> float:
    """A raw-table value; numpy 2 scalars are written as ``np.float64(x)``."""
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def reference_problems(csv: str, reference: str) -> list:
    """Compare the leading rows of csv with a reference table at 1e-12 rel."""
    ref_lines = reference.splitlines()
    got_lines = csv.splitlines()[:len(ref_lines)]
    if len(got_lines) != len(ref_lines) or got_lines[:1] != ref_lines[:1]:
        return ["raw table shape differs from the reference"]
    for got, ref in zip(got_lines[1:], ref_lines[1:]):
        g, r = got.split(","), ref.split(",")
        if g[:3] != r[:3]:
            return [f"row key {g[:3]} != reference {r[:3]}"]
        for a, b in zip(map(_number, g[3:]), map(_number, r[3:])):
            if not abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)):
                return [f"row {r[:3]}: {a!r} != reference {b!r}"]
    return []


def reference_path(workload) -> Path:
    return HERE / "reference" / f"{workload.name}.csv"


def missing_replicates(plan, rows) -> int:
    return plan.replicates - len({row[0] for row in rows})


# -- measurement ------------------------------------------------------------

def timed_call(mc, plan) -> dict:
    """One run_experiment call: wall and process CPU seconds, rows, table."""
    c0, t0 = time.process_time(), time.perf_counter()
    _, rows = mc.run_experiment(plan, threads=1)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall": wall, "cpu": cpu, "rows": rows, "csv": mc.rows_to_csv(rows)}


def measure_setup(workload, seed: int) -> list:
    """(import, call) wall seconds of a one-replicate run in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload.config,
                 str(seed)], capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe timed out after {exc.timeout} s") \
                from exc
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        samples.append(tuple(map(float,
                                 out.stdout.strip().splitlines()[-1].split())))
    return samples


class Run:
    """One benchmark run: the warm-up reference check, then timed calls.

    Construction runs the config's own seed and compares it with the
    committed reference; that also fills the package's caches.  Every call
    after it is checked against the first call's table, and at the config's
    own seed also against the reference (replicate r depends only on the
    seed and r, so the reference is a prefix of any run at that seed).
    """

    def __init__(self, cli, mc, workload, seed: int):
        self.mc = mc
        self.plan = load_plan(cli, workload, workload.replicates, seed)
        warmup = load_plan(cli, workload, workload.reference_replicates, None)
        self.reference = reference_path(workload).read_text()
        res = timed_call(mc, warmup)
        self.problems = table_problems(warmup, res["rows"], res["csv"], None)
        self.problems += reference_problems(res["csv"], self.reference)
        self.at_reference_seed = seed == warmup.base_seed
        self.first_csv = None
        self.attempted = 0
        self.failed = 0

    def call(self) -> dict:
        res = timed_call(self.mc, self.plan)
        self.attempted += self.plan.replicates
        self.failed += missing_replicates(self.plan, res["rows"])
        self.problems += table_problems(self.plan, res["rows"], res["csv"],
                                        self.first_csv)
        if self.first_csv is None:
            self.first_csv = res["csv"]
            if self.at_reference_seed:
                self.problems += reference_problems(res["csv"], self.reference)
        return res

    def repeat(self, seconds: float, step) -> None:
        """Call step() until `seconds` have passed, at least MIN_CALLS times."""
        deadline = time.perf_counter() + seconds
        for _ in range(MIN_CALLS):
            step()
        while time.perf_counter() < deadline:
            step()


def run_untraced(cli, mc, workload, seed: int, seconds: float):
    setup = measure_setup(workload, seed)
    run = Run(cli, mc, workload, seed)
    calls, kernels = [], [calibrate.kernel_time()]

    def step():
        calls.append(run.call())
        kernels.append(calibrate.kernel_time())

    run.repeat(seconds, step)
    R = workload.replicates
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls, cpus = [c["wall"] for c in calls], [c["cpu"] for c in calls]
    kernel_walls, kernel_cpus = [k[0] for k in kernels], [k[1] for k in kernels]
    setup_s = statistics.median(i + c for i, c in setup)
    metrics = {
        "replicates_per_s": R / calibrate.scaled_median(walls, kernel_walls),
        "cpu_ms_per_replicate":
            1e3 * calibrate.scaled_median(cpus, kernel_cpus) / R,
        "peak_rss_mb": rss_kb / 1024.0,
        # The probes run just before the calls, so the run's kernel passes
        # measure the host's speed during them too.
        "setup_s": calibrate.scaled(setup_s, kernel_walls),
    }
    detail = {"calls": len(calls), "replicates_per_call": R,
              "call_wall_s": walls, "call_cpu_s": cpus,
              "setup_samples_s": [{"import": i, "call": c} for i, c in setup],
              "kernel_wall_s": kernel_walls, "kernel_cpu_s": kernel_cpus,
              "reference_kernel_s": calibrate.REFERENCE_KERNEL_S,
              "raw": {"replicates_per_s": R / statistics.median(walls),
                      "cpu_ms_per_replicate": 1e3 * statistics.median(cpus) / R,
                      "setup_s": setup_s,
                      "setup_call_s": statistics.median(c for _, c in setup)},
              "failed_frac": run.failed / run.attempted}
    return run, metrics, detail


def run_traced(cli, mc, workload, seed: int, seconds: float):
    # A traced one-replicate call in the fresh process shows the cold set-up
    # spans (grids, dilation, harmonic tables) before any cache is warm.
    cold, cold_plan = spans.Tracer(), load_plan(cli, workload, 1, seed)
    cold.install()
    try:
        cold_call = timed_call(mc, cold_plan)
    finally:
        cold.uninstall()
    run = Run(cli, mc, workload, seed)
    run.problems += table_problems(cold_plan, cold_call["rows"],
                                   cold_call["csv"], None)
    warm = spans.Tracer()
    untraced, traced = [], []

    def pair():
        untraced.append(run.call())
        warm.install()
        try:
            traced.append(run.call())
        finally:
            warm.uninstall()

    run.repeat(seconds, pair)
    R = workload.replicates
    rate = {name: statistics.median(R / c["wall"] for c in calls)
            for name, calls in (("untraced", untraced), ("traced", traced))}
    metrics, detail = per_layer(workload, cold.summary(), warm.summary(), rate)
    detail["failed_frac"] = run.failed / run.attempted
    return run, metrics, detail


def per_layer(workload, cold: dict, warm: dict, rate: dict):
    """Per-layer metrics (per replicate / per run_experiment call) and detail."""
    n_rep = warm["roots"] * workload.replicates
    n_run = warm["roots"]
    calls = lambda name: spans.span_calls(warm, name)  # noqa: E731
    d_calls = calls("wigner.d_table") + spans.span_calls(cold, "wigner.d_table")
    d_self = (spans.span_self(warm, "wigner.d_table")
              + spans.span_self(cold, "wigner.d_table"))
    grid_calls = (calls("transform.synthesize_on_grid")
                  + calls("transform.analyze_on_grid"))
    labels = calls("estimators.block_labels")
    per_rep = lambda name: spans.span_self(warm, name) / n_rep  # noqa: E731
    per_run = lambda name: spans.span_self(warm, name) / n_run  # noqa: E731
    metrics = {
        "wigner.d_table.calls": calls("wigner.d_table") / n_rep,
        "wigner.d_table.bytes_computed": warm["counters"].get(
            "wigner.d_table.bytes_computed", 0) / 1e6 / n_rep,
        "wigner.d_table.self_s_per_call": d_self / d_calls if d_calls else 0.0,
        "transform.harmonic_cache.miss_ratio":
            calls("wigner.d_table") / grid_calls if grid_calls else 0.0,
        "transform.synthesize_on_grid.self_s":
            per_rep("transform.synthesize_on_grid"),
        "transform.self_s": spans.layer_self(warm, "transform") / n_rep,
        "estimators.block_labels.calls": labels / n_rep,
        "estimators.block_labels.self_s": per_rep("estimators.block_labels"),
        "estimators.block_labels.distinct_ratio":
            warm["block_labels_distinct"] / labels if labels else 0.0,
        "estimators.subsampling_variance.self_s":
            per_rep("estimators.subsampling_variance"),
        "estimators.self_s": spans.layer_self(warm, "estimators") / n_rep,
        "grid.build_cubature.self_s": per_run("grid.build_cubature"),
        "grid.dilation.self_s": per_run("grid.dilation"),
        "grid.dilation.pair_count":
            warm["counters"].get("grid.dilation.pair_count", 0) / n_run,
        "fields.draw_alm.self_s": per_rep("fields.draw_alm"),
        "fields.self_s": spans.layer_self(warm, "fields") / n_rep,
        "window.band_profile.calls": calls("window.band_profile") / n_rep,
        "window.window_support.calls": calls("window.window_support") / n_rep,
        "window.self_s": spans.layer_self(warm, "window") / n_rep,
        "mc.run_experiment.self_s": per_rep("mc.run_experiment"),
        "trace.overhead_replicates_per_s": rate["traced"] - rate["untraced"],
    }
    wall = warm["wall_s"]
    table = {name: {"calls_per_rep": st["calls"] / n_rep,
                    "self_s_per_rep": st["self_s"] / n_rep,
                    "share_of_traced_wall": st["self_s"] / wall}
             for name, st in sorted(warm["spans"].items())}
    layers = {layer: spans.layer_self(warm, layer) / wall
              for layer in spans.LAYERS}
    counts = {name: {"expected_per_rep": expected,
                     "measured_per_rep": calls(name) / n_rep,
                     "same": calls(name) == expected * n_rep}
              for name, expected in workload.counts.items()}
    detail = {
        "traced_calls": n_run, "replicates_per_call": workload.replicates,
        "replicates_per_s": rate,
        "tracing_overhead_frac": rate["traced"] / rate["untraced"] - 1.0,
        "spans": table, "layer_share_of_traced_wall": layers,
        "largest_self_span": max(table,
                                 key=lambda n: table[n]["self_s_per_rep"]),
        "count_check": counts,
        "setup_call_spans": cold["spans"],
    }
    return metrics, detail


# -- reporting --------------------------------------------------------------

def report(workload, args, metrics: dict, spec_metrics: list, detail: dict,
           run, env: dict) -> dict:
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    sidecar = {"workload": workload.name, "config": workload.config,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "environment": env, "problems": run.problems, "detail": detail,
               "result": result}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")

    log = lambda *a: print(*a, file=sys.stderr)  # noqa: E731
    log(f"[{workload.name}] environment: {json.dumps(env, sort_keys=True)}")
    for m in spec_metrics:
        log(f"[{workload.name}] {m['name']} = {metrics[m['name']]:.6g} "
            f"{m['unit']}")
    log(f"[{workload.name}] failed_frac = {detail['failed_frac']:.6g}")
    if not args.trace:
        log(f"[{workload.name}] calibration kernel: median "
            f"{statistics.median(detail['kernel_wall_s']):.4f} s, reference "
            f"{detail['reference_kernel_s']} s; unscaled: " + ", ".join(
                f"{k} = {v:.6g}" for k, v in detail["raw"].items()))
    if args.trace:
        log(f"[{workload.name}] tracing overhead: "
            f"{100 * detail['tracing_overhead_frac']:+.1f}% replicates/s")
        log(f"[{workload.name}] {'span':36s} {'calls/rep':>10s} "
            f"{'self ms/rep':>12s} {'share':>7s}")
        for name, st in detail["spans"].items():
            log(f"[{workload.name}] {name:36s} {st['calls_per_rep']:10.3f} "
                f"{1e3 * st['self_s_per_rep']:12.4f} "
                f"{100 * st['share_of_traced_wall']:6.1f}%")
        for name, c in detail["count_check"].items():
            verdict = ("same" if c["same"]
                       else "CHANGED since the benchmark was defined")
            log(f"[{workload.name}] count check {name}.calls: "
                f"{c['measured_per_rep']:g}/rep, expected "
                f"{c['expected_per_rep']}/rep: {verdict}")
    for p in run.problems:
        log(f"[{workload.name}] OUTPUT CHECK FAILED: {p}")
    return result


def run_one(args) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    cli, mc = import_spinlets()
    if not reference_path(workload).is_file():
        raise BenchError(f"missing reference table {reference_path(workload)}")
    env = environment()
    runner = run_traced if args.trace else run_untraced
    run, metrics, detail = runner(cli, mc, workload, args.seed, args.seconds)
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    result = report(workload, args, metrics, spec_metrics, detail, run, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    for name, res in results.items():
        if res is None:
            print(f"{name:16s} no result")
            continue
        print(f"{name:16s} {'correct' if res['correct'] else 'INCORRECT':9s} "
              f"failed_frac = {res['failed'] / res['attempted']:g} "
              f"({res['failed']}/{res['attempted']} replicates)")
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
