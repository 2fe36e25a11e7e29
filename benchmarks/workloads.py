"""The benchmark's workloads: bundled Monte Carlo plans with R and seed overridden.

Each workload is a config from ``src/spinlets/configs/`` run through the
public API exactly as ``spinlets mc`` runs it, with only ``replicates`` and
``base_seed`` replaced.  The four plans stress different layers, so an
optimisation of one layer has a workload that exercises it and one that
bypasses it (the bypass should show no change).  Why each workload was
chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # file name under src/spinlets/configs/
    replicates: int             # R of one timed run_experiment call (~0.8 s)
    reference_replicates: int   # replicates checked against reference/<name>.csv
    # Exact span calls per replicate in warm traced calls at the commit that
    # defined the benchmark.  Optimisations are meant to change them.
    counts: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="masked_j5", config="clt_masked.cfg", replicates=100,
        reference_replicates=20,
        counts={"wigner.d_table": 0, "estimators.block_labels": 1}),
    Workload(
        name="asymmetry_j5", config="asymmetry.cfg", replicates=150,
        reference_replicates=20,
        counts={"wigner.d_table": 0, "estimators.block_labels": 2}),
    Workload(
        name="channels_j5", config="hausman.cfg", replicates=25,
        reference_replicates=10,
        counts={"wigner.d_table": 0, "estimators.block_labels": 5}),
    Workload(
        name="multilevel_j3_7", config="variance_slope.cfg", replicates=1,
        reference_replicates=1,
        counts={"wigner.d_table": 5, "estimators.block_labels": 5}),
)}
