#!/usr/bin/env python
"""CI smoke test: checkpointed sampled sweep with warm-store reuse.

Runs a small sampled Figure-4 grid through the engine **twice**, each time
against a *fresh* result cache (so every interval really simulates) but the
same persistent checkpoint store:

* phase A may generate checkpoints (cold store) or reuse them (store
  restored by ``actions/cache``) — both are correct;
* phase B must serve every (workload, configuration) pair from the warm
  store: ``checkpoint_generated == 0``, everything reused, and the merged
  results bit-identical to phase A.

The configurations hold two warm classes with two members each
(``associative-3`` with ``associative-5-predictive``, ``indexed-3-fwd``
with ``indexed-3-fwd+dly``), so both phases run snapshots that generation
derives from a class representative rather than folds itself.

Designed for the GitHub Actions job (see ``.github/workflows/ci.yml``),
where ``.repro-checkpoints/`` is shared across runs via ``actions/cache``;
snapshot keys cover source fingerprints and the plan, so restoring a stale
store is always safe (changed sources simply miss and regenerate).  Exits
nonzero on any failure.
"""

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.exec import ExperimentEngine, JobSpec, ResultCache  # noqa: E402
from repro.harness.runner import ExperimentSettings  # noqa: E402
from repro.sampling import SamplingPlan  # noqa: E402

WORKLOADS = ("gzip", "swim")
CONFIGS = ("associative-3", "associative-5-predictive", "indexed-3-fwd",
           "indexed-3-fwd+dly")

PLAN = SamplingPlan(interval_length=800, detailed_warmup=800, period=8_000, seed=0)
SETTINGS = ExperimentSettings(instructions=32_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)


def _signature(records):
    return [(record.workload, record.config_name,
             tuple(sorted(record.result.stats.as_dict().items())))
            for record in records]


def _sweep(result_cache_dir) -> tuple:
    engine = ExperimentEngine.from_settings(
        SETTINGS, cache=ResultCache(result_cache_dir))
    specs = [JobSpec(workload, config, SETTINGS)
             for workload in WORKLOADS for config in CONFIGS]
    start = time.perf_counter()
    records = engine.run(specs)
    return records, dict(engine.last_run_stats), time.perf_counter() - start


def main() -> int:
    identities = len(WORKLOADS) * len(CONFIGS)
    with tempfile.TemporaryDirectory(prefix="repro-ck-smoke-") as root:
        records_a, stats_a, wall_a = _sweep(os.path.join(root, "results-a"))
        records_b, stats_b, wall_b = _sweep(os.path.join(root, "results-b"))

    for stats in (stats_a, stats_b):
        # Fresh result caches: reuse must come from the checkpoint store.
        assert stats["cache_hits"] == 0, stats
        assert stats["checkpoint_identities"] == identities, stats
    # No generation passes at all in phase B (checkpoint_passes also covers
    # shared-only regeneration, which reports zero generated identities).
    assert stats_b["checkpoint_passes"] == 0, stats_b
    assert stats_b["checkpoint_generated"] == 0, stats_b
    assert stats_b["checkpoint_reused"] == identities, stats_b
    assert _signature(records_a) == _signature(records_b), \
        "warm-store re-run diverged"
    for record in records_a:
        assert record.result.sampled.cpi_mean > 0.0, record

    print(f"checkpointed smoke: {len(WORKLOADS)} workloads x "
          f"{len(CONFIGS)} configs, "
          f"{PLAN.num_intervals(SETTINGS.instructions)} intervals each; "
          f"phase A {wall_a:.1f}s "
          f"({stats_a['checkpoint_generated']} generated, "
          f"{stats_a['checkpoint_reused']} reused), "
          f"phase B {wall_b:.1f}s (all {stats_b['checkpoint_reused']} "
          f"reused, bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
