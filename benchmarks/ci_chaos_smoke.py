#!/usr/bin/env python
"""CI chaos smoke: the sampled Figure-4 smoke under a fixed fault plan.

Runs the same tiny sampled Figure-4 grid as ``ci_sampled_smoke.py`` twice:
once clean, then cold + warm under a deterministic ``REPRO_FAULT_PLAN``
that crashes a worker, hangs a job past its deadline, and corrupts /
truncates cache blobs on write.  Asserts:

* the faulted sweep merges to results bit-identical to the clean one,
* the injected crash and hang were actually detected and recovered
  (``worker_crashes`` / ``job_timeouts`` counters in the run stats),
* every blob the plan damaged was quarantined and recomputed on re-read,
* teardown leaves no orphan worker processes and no ``*.tmp`` files.

A second, MLP-enabled leg then repeats the clean / cold / warm comparison
with the non-blocking memory hierarchy on, so the fault plan's blob
corruption also lands on checkpoint-store payloads carrying the v4
schema's new classes
(:class:`~repro.memory.mlp.NonBlockingHierarchy`, its MSHR file and
prefetcher) — damaged snapshots must quarantine and regenerate, never
deserialize into wrong warm state.

Both legs run against private temporary cache directories — deliberately
not the shared ``actions/cache`` store, so injected damage can never
poison a cache other CI steps reuse.  Exits nonzero on any failure.
"""

import dataclasses
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.exec import ExperimentEngine, ResultCache  # noqa: E402
from repro.harness.figure4 import run_figure4  # noqa: E402
from repro.harness.runner import ExperimentSettings  # noqa: E402
from repro.memory.hierarchy import MemoryHierarchyConfig  # noqa: E402
from repro.memory.mshr import MLPConfig, PrefetchConfig  # noqa: E402
from repro.pipeline.config import CoreConfig  # noqa: E402
from repro.sampling import SamplingPlan  # noqa: E402

WORKLOADS = ("gzip", "swim")
CONFIGS = ("associative-5-predictive", "indexed-3-fwd+dly")

PLAN = SamplingPlan(interval_length=800, detailed_warmup=800, period=8_000, seed=0)
SETTINGS = ExperimentSettings(instructions=32_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)

#: The MLP leg: same plan, non-blocking hierarchy with prefetching, warmed
#: through the checkpoint store (full-history snapshots hold the new
#: classes, so blob faults exercise the v4 checkpoint schema).
MLP_WORKLOADS = ("swim",)
MLP_SETTINGS = dataclasses.replace(
    SETTINGS,
    core=CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=8,
                      prefetch=PrefetchConfig(enabled=True)))))

#: The 2x(2+1) grid has job indices 0..5: crash job 1 once, hang job 5 once
#: (killed at the REPRO_JOB_TIMEOUT deadline below), and damage ~20% of
#: cache writes under a fixed seed so the run is reproducible.
FAULT_PLAN = ("worker_crash@job:1,hang@job:5,"
              "corrupt_blob@p=0.1,truncate_blob@p=0.1,seed=13")
JOB_TIMEOUT_S = "15"


def _signature(result):
    return [(row.name, row.baseline_cycles, tuple(sorted(row.relative_time.items())))
            for row in result.rows]


def _run(cache_dir, settings=SETTINGS, workloads=WORKLOADS,
         checkpoint_dir=None):
    engine = ExperimentEngine(jobs=2, cache=ResultCache(cache_dir),
                              checkpoint_dir=checkpoint_dir)
    start = time.perf_counter()
    result = run_figure4(workloads=list(workloads), settings=settings,
                         configs=CONFIGS, engine=engine)
    return result, dict(engine.last_run_stats), time.perf_counter() - start


def _assert_clean_teardown(*dirs):
    for child in multiprocessing.active_children():
        child.join(5.0)
    assert multiprocessing.active_children() == [], "orphan worker processes"
    leftovers = [p for d in dirs for p in Path(d).rglob("*.tmp")]
    assert not leftovers, f"leaked temp files: {leftovers}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-clean-") as clean_dir, \
            tempfile.TemporaryDirectory(prefix="repro-chaos-faulted-") as chaos_dir:
        os.environ.pop("REPRO_FAULT_PLAN", None)
        clean, _clean_stats, clean_s = _run(clean_dir)

        os.environ["REPRO_FAULT_PLAN"] = FAULT_PLAN
        os.environ["REPRO_JOB_TIMEOUT"] = JOB_TIMEOUT_S
        try:
            cold, cold_stats, cold_s = _run(chaos_dir)
            # The warm pass re-reads every blob the cold pass wrote, so
            # injected corruption surfaces here as quarantine + recompute.
            warm, warm_stats, warm_s = _run(chaos_dir)
        finally:
            os.environ.pop("REPRO_FAULT_PLAN", None)
            os.environ.pop("REPRO_JOB_TIMEOUT", None)

        reference = _signature(clean)
        assert _signature(cold) == reference, "faulted run diverged from clean"
        assert _signature(warm) == reference, "faulted warm re-run diverged"

        assert cold_stats.get("worker_crashes", 0) >= 1, cold_stats
        assert cold_stats.get("job_timeouts", 0) >= 1, cold_stats
        assert cold_stats.get("pool_respawns", 0) >= 1, cold_stats

        injected = (cold_stats.get("injected_corrupt_blobs", 0)
                    + cold_stats.get("injected_truncated_blobs", 0))
        quarantined = warm_stats.get("blobs_quarantined", 0)
        if injected:
            assert quarantined >= 1, (cold_stats, warm_stats)

        _assert_clean_teardown(clean_dir, chaos_dir)

        print(f"chaos smoke: clean {clean_s:.1f}s, faulted cold {cold_s:.1f}s "
              f"(crashes={cold_stats.get('worker_crashes', 0)}, "
              f"timeouts={cold_stats.get('job_timeouts', 0)}, "
              f"retries={cold_stats.get('job_retries', 0)}, "
              f"damaged blobs={injected}), warm {warm_s:.1f}s "
              f"(quarantined+recomputed={quarantined}); "
              f"all legs bit-identical, teardown clean")

    # ---- MLP-enabled checkpointed leg (v4 checkpoint schema under faults) --
    with tempfile.TemporaryDirectory(prefix="repro-chaos-mlp-clean-") as clean_dir, \
            tempfile.TemporaryDirectory(prefix="repro-chaos-mlp-faulted-") as chaos_dir:
        clean, _stats, clean_s = _run(
            clean_dir, settings=MLP_SETTINGS, workloads=MLP_WORKLOADS,
            checkpoint_dir=os.path.join(clean_dir, "ckpt"))
        os.environ["REPRO_FAULT_PLAN"] = FAULT_PLAN
        os.environ["REPRO_JOB_TIMEOUT"] = JOB_TIMEOUT_S
        try:
            cold, cold_stats, cold_s = _run(
                chaos_dir, settings=MLP_SETTINGS, workloads=MLP_WORKLOADS,
                checkpoint_dir=os.path.join(chaos_dir, "ckpt"))
            warm, warm_stats, warm_s = _run(
                chaos_dir, settings=MLP_SETTINGS, workloads=MLP_WORKLOADS,
                checkpoint_dir=os.path.join(chaos_dir, "ckpt"))
        finally:
            os.environ.pop("REPRO_FAULT_PLAN", None)
            os.environ.pop("REPRO_JOB_TIMEOUT", None)

        reference = _signature(clean)
        assert _signature(cold) == reference, "MLP faulted run diverged"
        assert _signature(warm) == reference, "MLP faulted warm re-run diverged"
        assert cold_stats.get("mshr_jobs", 0) > 0, cold_stats
        assert cold_stats.get("worker_crashes", 0) >= 1, cold_stats

        _assert_clean_teardown(clean_dir, chaos_dir)

        print(f"chaos smoke (MLP+checkpoints): clean {clean_s:.1f}s, "
              f"faulted cold {cold_s:.1f}s, warm {warm_s:.1f}s "
              f"(mshr jobs={cold_stats.get('mshr_jobs', 0)}, "
              f"crashes={cold_stats.get('worker_crashes', 0)}, "
              f"quarantined={warm_stats.get('blobs_quarantined', 0)}); "
              f"bit-identical under the v4 checkpoint schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
