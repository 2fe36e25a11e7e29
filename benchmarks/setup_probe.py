"""Time what a fresh ``spinlets mc`` process pays before its replicates.

Usage: python3 benchmarks/setup_probe.py <config file name> <seed>

Prints two numbers on its last line: the wall seconds of importing the
package, and of a one-replicate ``run_experiment`` call after it.  The call
covers plan validation, grids, mask and region dilation, the cold harmonic
tables and one replicate.  The import is timed too, so that work moved from
the call to import time still counts as set-up.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from spinlets import cli, mc  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def main(config: str, seed: int) -> None:
    plan = cli.plan_from_config(SRC / "spinlets" / "configs" / config)
    plan = dataclasses.replace(plan, replicates=1, base_seed=seed)
    t0 = time.perf_counter()
    mc.run_experiment(plan, threads=1)
    print(repr(IMPORT_S), repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
