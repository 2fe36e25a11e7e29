"""Fast smoke test of the benchmark itself: every workload at tiny R.

Run from the repository root with:  python3 -m pytest -q benchmarks
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import spans
from workloads import WORKLOADS

SPEC = run.load_spec()
CLI, MC = run.import_spinlets()


def tiny(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, replicates=min(2, workload.replicates))


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_counts(name):
    original = MC.run_experiment
    bench_run, metrics, detail = run.run_traced(CLI, MC, tiny(name), seed=3,
                                                seconds=0)
    assert MC.run_experiment is original, "tracer left a wrapper installed"
    assert bench_run.problems == []
    assert bench_run.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # The exact counts pinned when the benchmark was defined.
    for span, check in detail["count_check"].items():
        assert check["same"], (span, check)


def test_untraced_run_reports_end_to_end_metrics(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    bench_run, metrics, detail = run.run_untraced(CLI, MC, tiny("masked_j5"),
                                                  seed=3, seconds=0)
    assert bench_run.problems == []
    assert detail["failed_frac"] == 0.0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_calibration_scales_to_the_reference_speed():
    ref = calibrate.REFERENCE_KERNEL_S
    approx = pytest.approx
    # A host twice as slow as the reference doubles both call and kernel.
    assert calibrate.scaled_median([2.0, 4.0, 6.0], [2 * ref] * 4) == approx(2)
    assert calibrate.scaled(3.0, [ref, 3 * ref, 3 * ref]) == approx(1)
    # Each call is scaled by the passes just before and after it.
    assert calibrate.scaled_median([1.0], [ref, 3 * ref]) == approx(0.5)
    with pytest.raises(ValueError):
        calibrate.scaled_median([1.0, 1.0], [ref, ref])


def test_reference_check_rejects_a_changed_value():
    workload = WORKLOADS["masked_j5"]
    reference = run.reference_path(workload).read_text()
    header, first, *rest = reference.splitlines()
    fields = first.split(",")
    fields[3] = repr(run._number(fields[3]) * (1.0 + 1e-9))
    changed = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert run.reference_problems(reference, reference) == []
    assert run.reference_problems(changed, reference) != []


def test_fails_without_the_program(tmp_path):
    """A checkout holding only BENCHMARK.json and benchmarks/ must fail."""
    here = Path(run.__file__).resolve().parent
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / here.name / "run.py"), "--workload",
         "masked_j5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
