"""Regenerate reference/<workload>.csv: each plan at its config's own seed.

Usage: python3 benchmarks/make_reference.py

Only for a change that is meant to alter the raw tables; say so in
CHANGES.md.  run.py compares every run against these files at 1e-12 relative.
"""

import run


def main() -> None:
    cli, mc = run.import_spinlets()
    for workload in run.WORKLOADS.values():
        plan = run.load_plan(cli, workload, workload.reference_replicates, None)
        _, rows = mc.run_experiment(plan, threads=1)
        path = run.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(mc.rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows, seed {plan.base_seed})")


if __name__ == "__main__":
    main()
