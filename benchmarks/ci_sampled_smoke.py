#!/usr/bin/env python
"""CI smoke test: a tiny sampled Figure-4 sweep through the cached engine.

Runs a 2-workload x 2-configuration (plus baseline) Figure-4 grid with a
tiny sampling plan, twice against the same result cache, and asserts:

* the sampled sweep completes and produces confidence intervals,
* the second run is served entirely from the cache, and
* both runs merge to bit-identical results.

Designed for the GitHub Actions job (see ``.github/workflows/ci.yml``),
where ``.repro-cache/`` is shared across the job via ``actions/cache`` so
re-runs on an unchanged simulator skip the simulation entirely.  Exits
nonzero on any failure.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.exec import ExperimentEngine  # noqa: E402
from repro.harness.figure4 import run_figure4  # noqa: E402
from repro.harness.runner import ExperimentSettings  # noqa: E402
from repro.sampling import SamplingPlan  # noqa: E402

WORKLOADS = ("gzip", "swim")
CONFIGS = ("associative-5-predictive", "indexed-3-fwd+dly")

PLAN = SamplingPlan(interval_length=800, detailed_warmup=800, period=8_000, seed=0)
SETTINGS = ExperimentSettings(instructions=32_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)


def _signature(result):
    return [(row.name, row.baseline_cycles, tuple(sorted(row.relative_time.items())))
            for row in result.rows]


def main() -> int:
    engine = ExperimentEngine(cache=True)

    start = time.perf_counter()
    cold = run_figure4(workloads=list(WORKLOADS), settings=SETTINGS,
                       configs=CONFIGS, engine=engine)
    cold_s = time.perf_counter() - start
    cold_stats = dict(engine.last_run_stats)

    start = time.perf_counter()
    warm = run_figure4(workloads=list(WORKLOADS), settings=SETTINGS,
                       configs=CONFIGS, engine=engine)
    warm_s = time.perf_counter() - start
    warm_stats = dict(engine.last_run_stats)

    assert _signature(cold) == _signature(warm), "cached re-run diverged"
    assert warm_stats["cache_hits"] == warm_stats["total"], warm_stats
    assert warm_stats["sampled_specs"] == len(WORKLOADS) * (len(CONFIGS) + 1)

    intervals = PLAN.num_intervals(SETTINGS.instructions)
    for row in cold.rows:
        for config in CONFIGS:
            assert row.relative_time[config] > 0.0, row
    print(f"sampled Figure-4 smoke: {len(cold.rows)} workloads x "
          f"{len(CONFIGS)} configs, {intervals} intervals each; "
          f"cold {cold_s:.1f}s ({cold_stats['simulated']} simulated), "
          f"warm {warm_s:.1f}s ({warm_stats['cache_hits']} cache hits)")
    for row in cold.rows:
        rel = ", ".join(f"{c}={row.relative_time[c]:.3f}" for c in CONFIGS)
        print(f"  {row.name}: {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
