"""Coverage sweep: every store-queue configuration drains every workload.

Runs each :func:`~repro.harness.runner.make_policy` name over all 47
workloads on the default machine (2000 instructions, seed 1) and requires
every cell to commit its whole trace.  The core's deadlock guard raises
when nothing commits for too long, so a stuck cell fails here by name.
Until a squashed store's LFST entry was undone, original Store Sets stuck
on 14 of these 47 cells (and on 95 of 141 at 8000 instructions over seeds
1-3).
"""

from repro.harness.runner import ExperimentSettings, make_policy
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload, workload_names

NAMES = ("oracle-associative-3", "associative-3", "associative-5-optimistic",
         "associative-5-predictive", "associative-original-storesets",
         "indexed-3-fwd", "indexed-3-fwd+dly")
INSTRUCTIONS = 2000


def test_every_configuration_drains_every_workload():
    core = ExperimentSettings().core
    stuck = []
    for workload in workload_names():
        trace = build_workload(workload, instructions=INSTRUCTIONS, seed=1)
        for name in NAMES:
            try:
                result = OutOfOrderCore(core, make_policy(name)).run(
                    trace, stats_warmup_fraction=0.25)
            except RuntimeError as error:
                stuck.append((workload, name, str(error).split(":")[0]))
                continue
            assert result.stats.committed > 0, (workload, name)
    assert stuck == []
