#!/usr/bin/env python
"""CI check: original Store Sets drains every workload at 8000 instructions.

Runs ``associative-original-storesets`` on the default machine over all 47
workloads x seeds 1-3 at 8000 instructions (141 cells) and fails if any
cell fires the core's deadlock guard (nothing committed for
``OutOfOrderCore.DEADLOCK_LIMIT`` cycles).  Until a squashed store's LFST
entry was undone, 95 of these cells deadlocked: the re-renamed store
waited on its own SSN.  ``tests/integration/test_policy_coverage.py``
covers every configuration at 2000 instructions, seed 1; this sweep is
the longer, multi-seed run for the one configuration that deadlocked.
Any other exception fails the run as it is.

    PYTHONPATH=src python benchmarks/ci_storesets_sweep.py

Prints one line per stuck cell and a summary; exits nonzero when a cell
is stuck.
"""

import sys
import time

from repro.harness.runner import ExperimentSettings, make_policy
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload, workload_names

CONFIG = "associative-original-storesets"
SEEDS = (1, 2, 3)
INSTRUCTIONS = 8000

#: Prefix of the deadlock guard's ``RuntimeError`` message.
DEADLOCK = "simulation deadlock"


def main() -> int:
    core = ExperimentSettings().core
    start = time.perf_counter()
    cells = 0
    stuck = []
    for seed in SEEDS:
        for workload in workload_names():
            trace = build_workload(workload, instructions=INSTRUCTIONS,
                                   seed=seed)
            cells += 1
            try:
                result = OutOfOrderCore(core, make_policy(CONFIG)).run(
                    trace, stats_warmup_fraction=0.25)
            except RuntimeError as error:
                if not str(error).startswith(DEADLOCK):
                    raise
                stuck.append(f"{workload}/{seed}: {error}")
                continue
            assert result.stats.committed > 0, (workload, seed)
    for line in stuck:
        print(f"stuck {line}")
    print(f"original Store Sets sweep: {cells} cells ({len(SEEDS)} seeds x "
          f"{cells // len(SEEDS)} workloads, {INSTRUCTIONS} instructions), "
          f"{len(stuck)} stuck, {time.perf_counter() - start:.1f}s")
    return 1 if stuck else 0


if __name__ == "__main__":
    sys.exit(main())
