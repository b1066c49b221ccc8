"""Backend equivalence: serial ≡ supervised-pool, vs goldens.

The worker count picks the execution backend (``jobs=1`` runs serial,
``jobs=2`` and ``jobs=3`` the supervised pool), a pure scheduling choice,
so both must
reproduce the **frozen** golden counters (``tests/golden/hotpath_golden.json``)
bit for bit — not merely agree with each other — across:

* cold-cache engine runs (every spec simulated through the backend),
* warm-cache engine runs (every spec served from the store),
* checkpointed sampled runs (generation split into policy-group jobs
  through the same dispatcher), and
* a chaos leg (``REPRO_FAULT_PLAN`` crash + blob corruption through the
  pool's own workers and stores).

A scheduling bug that reorders, drops, duplicates, or cross-wires a single
record fails here against numbers no backend can influence.
"""

import json
from pathlib import Path

import pytest

from repro.exec import ExperimentEngine, JobSpec
from repro.harness.runner import ExperimentSettings
from repro.sampling.plan import SamplingPlan

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "hotpath_golden.json")

#: Worker count -> the backend it selects.  Three workers against two
#: generation jobs leaves a worker idle, a different schedule from two
#: workers running one job each.
BACKENDS = ((1, "serial"), (2, "supervised-pool"), (3, "supervised-pool"))

FULL_DETAIL_WORKLOADS = ("vortex", "mesa.m")
FULL_DETAIL_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                       "indexed-3-fwd+dly")
FULL_DETAIL_INSTRUCTIONS = 20_000

SAMPLED_WORKLOAD = "vortex"
SAMPLED_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")
SAMPLED_INSTRUCTIONS = 60_000

#: Deterministic chaos through the dispatcher: job 1's first attempt dies in a
#: worker, and ~30% of store blobs are corrupted on write (caught by the
#: checksum frame, quarantined, recomputed).
CHAOS_PLAN = "worker_crash@job:1,corrupt_blob@p=0.3,seed=7"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _full_detail_specs():
    settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
    return [JobSpec(workload, config, settings)
            for workload in FULL_DETAIL_WORKLOADS
            for config in FULL_DETAIL_CONFIGS]


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


def _assert_full_detail_matches_golden(records, golden):
    for spec_record in records:
        want = golden["full_detail"][
            f"{spec_record.workload}/{spec_record.config_name}"]
        key = f"{spec_record.workload}/{spec_record.config_name}"
        assert _stats_dict(spec_record.result.stats) == want["stats"], key
        assert dict(sorted(spec_record.result.extra.items())) \
            == want["extra"], key


@pytest.mark.parametrize("jobs,backend", BACKENDS)
class TestColdWarmEquivalence:
    def test_cold_then_warm_match_frozen_counters(self, golden, tmp_path,
                                                  jobs, backend):
        engine = ExperimentEngine(jobs=jobs, cache_dir=tmp_path / "cache")

        cold = engine.run(_full_detail_specs())
        assert engine.last_run_stats["backend"] == backend
        assert engine.last_run_stats["simulated"] == len(cold)
        _assert_full_detail_matches_golden(cold, golden)

        warm = engine.run(_full_detail_specs())
        assert engine.last_run_stats["cache_hits"] == len(warm)
        assert engine.last_run_stats["simulated"] == 0
        _assert_full_detail_matches_golden(warm, golden)


@pytest.mark.parametrize("jobs,backend", BACKENDS)
class TestCheckpointedSampledEquivalence:
    def test_policy_group_generation_matches_frozen_counters(
            self, golden, tmp_path, jobs, backend):
        """Checkpoint generation *and* the interval fan-out both run
        through the selected backend (one generation job per policy group
        on the pool); the merged records must equal the frozen
        single-pass numbers."""
        plan = SamplingPlan(interval_length=500, detailed_warmup=300,
                            period=10_000, seed=3)
        settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                      sampling=plan)
        engine = ExperimentEngine(jobs=jobs, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        records = engine.run([JobSpec(SAMPLED_WORKLOAD, config, settings)
                              for config in SAMPLED_CONFIGS])
        stats = engine.last_run_stats
        assert stats["backend"] == backend
        assert stats["checkpoint_generated"] == len(SAMPLED_CONFIGS)
        assert stats["checkpoint_passes"] == 1
        if jobs >= 2:
            assert stats["checkpoint_jobs"] > stats["checkpoint_passes"]
        for config, record in zip(SAMPLED_CONFIGS, records):
            want = golden["sampled_checkpointed"][
                f"{SAMPLED_WORKLOAD}/{config}"]
            sampled = record.result.sampled
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert sampled.cpi_mean == want["cpi_mean"], config
            assert ([m.cycles for m in sampled.intervals]
                    == want["interval_cycles"]), config


class TestChaosEquivalence:
    def test_faulted_run_matches_frozen_counters(self, golden, tmp_path,
                                                 monkeypatch):
        """Crash-and-corruption chaos through the pool stays bit-identical:
        retries and quarantine-and-recompute are invisible in the records,
        visible only in the resilience counters."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", CHAOS_PLAN)
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path / "cache")
        records = engine.run(_full_detail_specs())
        _assert_full_detail_matches_golden(records, golden)
        stats = engine.last_run_stats
        assert stats["backend"] == "supervised-pool"
        assert stats.get("worker_crashes", 0) >= 1  # the chaos actually bit
        assert stats.get("job_retries", 0) >= 1
