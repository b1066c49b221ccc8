"""Benchmark: statistical sampling vs full-detail simulation.

Four measurements, all recorded in ``BENCH_sampling.json``.  Every sampled
run warms from the checkpoint store (one continuous functional pass per
workload, snapshotted at every interval start):

* **Matched-count speedup** — one workload/configuration simulated at the
  *same* instruction count (default 1M;
  ``REPRO_BENCH_SAMPLING_INSTRUCTIONS``) in full detail and through
  checkpointed sampling against a cold private store, so the sampled wall
  time includes checkpoint generation.  Records the speedup, the signed
  CPI error against full detail and the relative confidence interval.
  Asserts only that sampling is no slower than full detail from 200k
  instructions up; the error is recorded without a bar, because the
  plan's ~10 intervals leave a sample variance larger than any useful
  bound.
* **Checkpointed sweep** — a multi-configuration sweep over one workload
  (default 400k instructions; ``REPRO_BENCH_CHECKPOINT_INSTRUCTIONS``)
  timed cold against a private store: one generation pass warms every
  configuration.  Serial, parallel, and cached runs are asserted
  bit-identical.
* **Paper-scale sampled artifact** — a 10M-instruction
  (``REPRO_BENCH_SAMPLED_INSTRUCTIONS``) Figure-4 cell: the ideal-baseline
  and indexed-SQ configurations simulated *sampled only* (full detail at
  10M is exactly what sampling exists to avoid), reporting the relative
  execution time with its confidence interval.  Both configurations share
  one warming pass.
* **Policy-group generation** — the checkpoint-generation stage of the
  same sweep run twice against cold private stores: one serial pass per
  workload group (every configuration warmed together) vs the engine's
  policy-group fan-out (one job per group of configurations, over at
  least two workers).  Every snapshot is asserted bit-identical between
  the two stores (shared signatures and policy signatures, per interval),
  the merged sweep results are asserted bit-identical too, and the
  wall-time ratio is recorded without a bar.
"""

import os
import tempfile
import time

from _common import clear_process_memos

from repro.exec import ExperimentEngine, JobSpec, ResultCache, available_cpus
from repro.harness.runner import BASELINE_CONFIG, ExperimentSettings
from repro.sampling import SamplingPlan
from repro.sampling.driver import run_sampled_workload
from repro.workloads.suites import build_workload

SPEEDUP_WORKLOAD = "vortex"
SPEEDUP_CONFIG = "indexed-3-fwd+dly"

#: Instruction count for the matched-count comparison (full detail at this
#: length is simulated, so it must stay laptop-feasible).
MATCHED_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_SAMPLING_INSTRUCTIONS", str(1_000_000)))

#: Instruction count for the sampled-only paper-scale artifact.
ARTIFACT_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_SAMPLED_INSTRUCTIONS", str(10_000_000)))

#: Instruction count for the checkpointed sweep (simulated end
#: to end, so it stays below the paper scale by default).
CHECKPOINT_SWEEP_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_CHECKPOINT_INSTRUCTIONS", str(400_000)))

#: The sweep configurations sharing one workload's checkpoints (a Figure-4
#: mini-column: ideal baseline, realistic associative, both indexed modes).
CHECKPOINT_SWEEP_CONFIGS = (BASELINE_CONFIG, "associative-5-predictive",
                            "indexed-3-fwd", "indexed-3-fwd+dly")


def _matched_plan(instructions: int) -> SamplingPlan:
    """A ~10-interval plan for the given trace length."""
    period = max(instructions // 10, 4_000)
    return SamplingPlan(interval_length=1_000, detailed_warmup=1_000,
                        period=period, seed=0)


def _sweep_plan(instructions: int) -> SamplingPlan:
    """The ~20-interval plan of the sweep and policy-group legs."""
    return SamplingPlan(interval_length=1_000, detailed_warmup=1_000,
                        period=max(instructions // 20, 4_000), seed=0)


def artifact_plan(instructions: int) -> SamplingPlan:
    """The paper-scale plan: ~25 intervals of 2k instructions."""
    period = max(instructions // 25, 8_000)
    return SamplingPlan(interval_length=2_000, detailed_warmup=2_000,
                        period=period, seed=0)


def measure_sampling_speedup(instructions: int = None,
                             workload: str = SPEEDUP_WORKLOAD,
                             config: str = SPEEDUP_CONFIG) -> dict:
    """Time full-detail vs checkpointed sampled simulation at one count.

    Each sampled run starts from a cold private checkpoint store and cold
    process memos, so its wall time includes the O(N) generation pass.
    """
    instructions = instructions or MATCHED_INSTRUCTIONS
    plan = _matched_plan(instructions)
    full_settings = ExperimentSettings(instructions=instructions,
                                       stats_warmup_fraction=0.0)
    sampled_settings = ExperimentSettings(instructions=instructions,
                                          stats_warmup_fraction=0.0,
                                          sampling=plan)

    # Full detail: trace materialisation + cycle-accurate simulation (the
    # trace build is part of the cost a sampled run avoids re-paying).
    from repro.harness.runner import run_workload

    clear_process_memos()
    start = time.perf_counter()
    trace = build_workload(workload, instructions, seed=full_settings.seed)
    full_record = run_workload(trace, config, full_settings)
    full_s = time.perf_counter() - start
    full_stats = full_record.result.stats
    full_cpi = full_stats.cycles / full_stats.committed
    del trace, full_record

    # Best of two cold runs: a single one swings by tens of percent with
    # allocator and scheduler noise after the trace build above.  Both are
    # asserted bit-identical.
    sampled_runs_s = []
    sampled_record = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-matched-") as root:
        for run in range(2):
            clear_process_memos()
            start = time.perf_counter()
            record = run_sampled_workload(
                workload, config, sampled_settings,
                checkpoint_dir=os.path.join(root, f"store-{run}"))
            sampled_runs_s.append(time.perf_counter() - start)
            if sampled_record is not None:
                assert (record.result.stats.as_dict()
                        == sampled_record.result.stats.as_dict()), \
                    "sampled repeat diverged"
            sampled_record = record
    sampled = sampled_record.result.sampled
    sampled_s = min(sampled_runs_s)

    return {
        "workload": workload,
        "config": config,
        "matched_instructions": instructions,
        "full_detail_s": round(full_s, 3),
        "sampled_s": round(sampled_s, 3),
        "sampled_runs_s": [round(value, 3) for value in sampled_runs_s],
        "speedup": round(full_s / sampled_s, 2) if sampled_s else 0.0,
        "full_cpi": round(full_cpi, 5),
        "sampled_cpi": round(sampled.cpi_mean, 5),
        "cpi_error": round((sampled.cpi_mean - full_cpi) / full_cpi, 4),
        "relative_ci": round(sampled.relative_ci, 4),
        "sampling": {key: round(value, 6) if isinstance(value, float) else value
                     for key, value in sampled.summary().items()},
    }


def _sweep_signature(records) -> list:
    """Everything that must be identical across execution strategies."""
    return [(record.workload, record.config_name,
             tuple(sorted(record.result.stats.as_dict().items())))
            for record in records]


def measure_checkpointed_sweep(instructions: int = None,
                               workload: str = SPEEDUP_WORKLOAD,
                               configs=CHECKPOINT_SWEEP_CONFIGS) -> dict:
    """One multi-configuration sweep, timed cold against a private store.

    One generation pass warms every configuration; the result is then
    verified bit-identical across serial, parallel, and cached execution
    (reusing the store populated by the timed run).
    """
    instructions = instructions or CHECKPOINT_SWEEP_INSTRUCTIONS
    settings = ExperimentSettings(instructions=instructions,
                                  stats_warmup_fraction=0.0,
                                  sampling=_sweep_plan(instructions))
    specs = [JobSpec(workload, config, settings) for config in configs]

    # The whole measurement runs against a private store, so it neither
    # reads from nor writes into the user's (environment-located) store.
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as root:
        store = os.path.join(root, "store")
        clear_process_memos()
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=store)
        start = time.perf_counter()
        records = engine.run(specs)
        sweep_s = time.perf_counter() - start
        cold_stats = dict(engine.last_run_stats)

        # Bit-identity across execution strategies (the warm store makes
        # these re-runs cheap).
        reference = _sweep_signature(records)
        parallel = ExperimentEngine(jobs=2, cache=False,
                                    checkpoint_dir=store).run(specs)
        assert _sweep_signature(parallel) == reference, \
            "parallel checkpointed sweep diverged"
        cached_engine = ExperimentEngine(
            jobs=1, cache=ResultCache(os.path.join(root, "results")),
            checkpoint_dir=store)
        cold = cached_engine.run(specs)
        warm = cached_engine.run(specs)
        warm_stats = dict(cached_engine.last_run_stats)
        assert _sweep_signature(cold) == reference, \
            "cache-populating checkpointed sweep diverged"
        assert _sweep_signature(warm) == reference, \
            "cache-hit checkpointed sweep diverged"
        assert warm_stats["cache_hits"] == warm_stats["total"], warm_stats

    return {
        "workload": workload,
        "configs": list(configs),
        "sweep_instructions": instructions,
        "intervals": records[0].result.sampled.num_intervals,
        "checkpointed_sweep_s": round(sweep_s, 3),
        "checkpoint_stats": cold_stats,
        "checkpointed_cpi": {r.config_name: round(r.result.sampled.cpi_mean, 5)
                             for r in records},
    }


def assert_checkpointed_sweep(data: dict) -> None:
    """>= 2 configurations share one workload, and one generation pass
    warms them all."""
    assert len(data["configs"]) >= 2, data
    assert data["checkpoint_stats"]["checkpoint_passes"] == 1, data


def measure_policy_group_generation(instructions: int = None,
                                    workload: str = SPEEDUP_WORKLOAD,
                                    configs=CHECKPOINT_SWEEP_CONFIGS) -> dict:
    """Serial single pass vs policy-group generation on cold private stores.

    Times only the generation stage, asserts the policy-group store's
    snapshots are bit-identical to the single pass's (shared and policy
    signatures, per interval), and asserts the sweeps simulated from the
    two stores merge bit-identically.  Both arms start from cold
    in-process segment caches and write only into private stores.
    """
    from repro.sampling.checkpoints import (
        CheckpointStore,
        execute_generation,
        plan_generation,
        policy_key,
        run_checkpoint_job,
        shared_key,
        shared_signature,
    )
    from repro.sampling.driver import expand_sampled_spec

    instructions = instructions or CHECKPOINT_SWEEP_INSTRUCTIONS
    plan = _sweep_plan(instructions)
    settings = ExperimentSettings(instructions=instructions,
                                  stats_warmup_fraction=0.0, sampling=plan)
    cpus = available_cpus()
    workers = max(2, cpus)
    windows = plan.intervals(instructions)
    identities = [(config, settings.sq_size, None) for config in configs]

    def requests_for(store):
        specs = []
        for config in configs:
            specs.extend(expand_sampled_spec(
                JobSpec(workload, config, settings),
                checkpoint_dir=str(store.directory)))
        return plan_generation(store, specs)[0]

    with tempfile.TemporaryDirectory(prefix="repro-bench-groups-") as root:
        single_store = CheckpointStore(os.path.join(root, "single"))
        group_store = CheckpointStore(os.path.join(root, "groups"))

        # Baseline: one in-process pass per workload group, every
        # configuration warmed together.
        clear_process_memos()
        requests = requests_for(single_store)
        start = time.perf_counter()
        for request in requests:
            run_checkpoint_job(request)
        single_s = time.perf_counter() - start
        single_passes = len(requests)

        clear_process_memos()
        requests = requests_for(group_store)
        start = time.perf_counter()
        group_jobs = execute_generation(requests, jobs=workers)
        group_s = time.perf_counter() - start

        # Snapshot-level bit-identity, every interval of every configuration.
        for window in windows:
            single_shared = single_store.get(
                shared_key(workload, settings, window.index))
            group_shared = group_store.get(
                shared_key(workload, settings, window.index))
            assert single_shared is not None and group_shared is not None, \
                f"missing shared snapshot at interval {window.index}"
            assert (shared_signature(single_shared)
                    == shared_signature(group_shared)), \
                f"shared snapshot diverged at interval {window.index}"
            for identity in identities:
                single_policy = single_store.get(
                    policy_key(workload, settings, identity, window.index))
                group_policy = group_store.get(
                    policy_key(workload, settings, identity, window.index))
                assert single_policy is not None and group_policy is not None, \
                    f"missing policy snapshot {identity[0]}/{window.index}"
                assert (single_policy.state_signature()
                        == group_policy.state_signature()), \
                    f"policy snapshot diverged {identity[0]}/{window.index}"

        # Merged-result bit-identity: the sweep simulated from either store
        # is the same sweep.
        def sweep(store):
            engine = ExperimentEngine(jobs=1, cache=False,
                                      checkpoint_dir=store.directory)
            return engine.run([JobSpec(workload, config, settings)
                               for config in configs])

        assert (_sweep_signature(sweep(single_store))
                == _sweep_signature(sweep(group_store))), \
            "sweep from policy-group store diverged from single-pass store"

    return {
        "workload": workload,
        "configs": list(configs),
        "sweep_instructions": instructions,
        "intervals": len(windows),
        "cpus": cpus,
        "workers": workers,
        "single_pass_s": round(single_s, 3),
        "single_passes": single_passes,
        "policy_group_s": round(group_s, 3),
        "policy_group_jobs": group_jobs,
        "generation_speedup": round(single_s / group_s, 3) if group_s else 0.0,
        "snapshots_identical": True,
        "merged_identical": True,
    }


def assert_policy_group_generation(data: dict) -> None:
    """Bit-identity, and a real split into more jobs than passes.  The
    wall-time ratio is recorded without a bar: no measurement on four or
    more CPUs exists to set one."""
    assert data["snapshots_identical"] and data["merged_identical"], data
    assert data["policy_group_jobs"] > data["single_passes"], data


def measure_sampled_artifact(instructions: int = None,
                             workload: str = SPEEDUP_WORKLOAD) -> dict:
    """A paper-scale Figure-4 cell (relative time + CI), sampled only."""
    instructions = instructions or ARTIFACT_INSTRUCTIONS
    plan = artifact_plan(instructions)
    settings = ExperimentSettings(instructions=instructions,
                                  stats_warmup_fraction=0.0, sampling=plan,
                                  jobs=None)
    engine = ExperimentEngine.from_settings(settings, cache=False)
    start = time.perf_counter()
    baseline_rec, indexed_rec = engine.run([
        JobSpec(workload, BASELINE_CONFIG, settings),
        JobSpec(workload, SPEEDUP_CONFIG, settings),
    ])
    wall_s = time.perf_counter() - start
    baseline = baseline_rec.result.sampled
    indexed = indexed_rec.result.sampled
    relative_time = indexed.cpi_mean / baseline.cpi_mean
    # First-order CI of the ratio: relative half-widths add in quadrature.
    ratio_ci = relative_time * (
        (baseline.relative_ci ** 2 + indexed.relative_ci ** 2) ** 0.5)
    return {
        "workload": workload,
        "artifact_instructions": instructions,
        "wall_s": round(wall_s, 3),
        "baseline_config": BASELINE_CONFIG,
        "config": SPEEDUP_CONFIG,
        "baseline_cpi": round(baseline.cpi_mean, 5),
        "baseline_ci_halfwidth": round(baseline.cpi_ci_halfwidth, 5),
        "indexed_cpi": round(indexed.cpi_mean, 5),
        "indexed_ci_halfwidth": round(indexed.cpi_ci_halfwidth, 5),
        "relative_time": round(relative_time, 4),
        "relative_time_ci_halfwidth": round(ratio_ci, 4),
        "intervals": indexed.num_intervals,
        "sampling": {key: round(value, 6) if isinstance(value, float) else value
                     for key, value in indexed.summary().items()},
    }


def assert_speedup(data: dict) -> None:
    """Checkpointed sampling, generation included, must not be slower
    than full detail once there is enough trace to amortise over."""
    if data["matched_instructions"] >= 200_000:
        assert data["speedup"] >= 1.0, data


def test_sampling_speedup():
    # Measures and asserts only; BENCH_sampling.json has a single producer
    # (run_all.py's bench_sampling, which adds the paper-scale artifact) so
    # the trajectory file keeps one schema regardless of which entry ran.
    data = measure_sampling_speedup()
    print(f"\nsampling speedup: full {data['full_detail_s']}s vs sampled "
          f"{data['sampled_s']}s = x{data['speedup']} at "
          f"{data['matched_instructions']} instructions "
          f"(CPI err {data['cpi_error']:+.2%}, CI "
          f"+/-{data['relative_ci']:.2%})")
    assert_speedup(data)
