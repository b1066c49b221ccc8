"""Unit tests for the checkpoint store (`repro.sampling.checkpoints`).

Covers the multi-policy functional warmer (one pass, many configurations),
the export/import round trip (exact for every warmed structure), store
invalidation (source fingerprints, plan changes), corruption robustness
(truncated snapshots repair in place, never crash and never change the
result), the engine's generation/reuse accounting, the on-disk trace-segment
memo, and the result-cache key semantics of checkpointed interval specs.
"""

import dataclasses
import pickle

import pytest

from repro.core.fsp import ForwardingStorePredictor
from repro.exec import ExperimentEngine, IntervalJobSpec, JobSpec, job_key
from repro.exec import fingerprint as fingerprint_module
from repro.harness.runner import (
    BASELINE_CONFIG,
    FIGURE4_CONFIGS,
    ExperimentSettings,
    make_policy,
)
from repro.memory.last_writer import per_byte
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.sampling import SamplingPlan
from repro.sampling.checkpoints import (
    BoundaryState,
    CheckpointStore,
    boundary_key,
    checkpoints_enabled,
    execute_generation,
    generate_checkpoints,
    load_interval_state,
    plan_generation,
    plan_shard_jobs,
    policy_key,
    resolve_checkpoint_shards,
    resolve_checkpointed,
    run_shard_job,
    segment_key,
    shared_key,
    shared_signature,
)
from repro.sampling.driver import (
    expand_sampled_spec,
    run_interval_job,
    run_sampled_workload,
)
from repro.sampling.functional import FunctionalWarmer
from repro.workloads.suites import build_workload, build_workload_window

WORKLOAD = "vortex"
PLAN = SamplingPlan(interval_length=500, detailed_warmup=500, period=5_000,
                    functional_warmup=1_000, seed=0)
SETTINGS = ExperimentSettings(instructions=20_000, stats_warmup_fraction=0.0,
                              sampling=PLAN, checkpoints=True)

CONFIG = "indexed-3-fwd+dly"
IDENTITY = (CONFIG, SETTINGS.sq_size, None)


def _checkpointed_specs(store, settings=SETTINGS, config=CONFIG):
    spec = JobSpec(WORKLOAD, config, settings)
    return expand_sampled_spec(spec, checkpointed=True,
                               checkpoint_dir=str(store.directory))


class TestResolution:
    def test_settings_override_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        assert not checkpoints_enabled()
        assert resolve_checkpointed(SETTINGS)  # explicit True wins
        assert not resolve_checkpointed(
            dataclasses.replace(SETTINGS, checkpoints=False))
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        assert resolve_checkpointed(
            dataclasses.replace(SETTINGS, checkpoints=None))

    def test_never_checkpointed_without_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        plain = dataclasses.replace(SETTINGS, sampling=None, checkpoints=None)
        assert not resolve_checkpointed(plain)


class TestMultiPolicyWarming:
    """One shared pass must warm each policy exactly as its own pass would."""

    PREFIX = 4_000

    def test_policy_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        configs = ("indexed-3-fwd+dly", "associative-5-predictive")
        multi_policies = [make_policy(name) for name in configs]
        multi = FunctionalWarmer(CoreConfig(), policies=multi_policies)
        multi.warm(trace.uops)
        for name, warmed in zip(configs, multi_policies):
            single_policy = make_policy(name)
            single = FunctionalWarmer(CoreConfig(), single_policy)
            single.warm(trace.uops)
            assert warmed.state_signature() == single_policy.state_signature(), name

    def test_shared_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        multi = FunctionalWarmer(CoreConfig(), policies=[
            make_policy("indexed-3-fwd+dly"), make_policy("associative-3")])
        multi.warm(trace.uops)
        single = FunctionalWarmer(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        single.warm(trace.uops)
        a, b = multi.state, single.state
        assert a.branch_unit.state_signature() == b.branch_unit.state_signature()
        assert a.hierarchy.state_signature() == b.hierarchy.state_signature()
        assert a.memory.state_signature() == b.memory.state_signature()
        assert a.ssn_alloc == b.ssn_alloc
        assert per_byte(a.last_writer) == per_byte(b.last_writer)

    def test_export_state_carries_first_policy(self):
        policies = [make_policy("indexed-3-fwd"), make_policy("associative-3")]
        warmer = FunctionalWarmer(CoreConfig(), policies=policies)
        assert warmer.export_state().policy is policies[0]
        assert warmer.policies == policies


class TestExportImportRoundTrip:
    """export_state -> (pickle) -> import_state is exact for every warmed
    structure — the checkpoint analogue of the PR 2 functional-replay
    exactness test."""

    PREFIX = 6_000

    @pytest.fixture(scope="class")
    def warmed_blob(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        warmer = FunctionalWarmer(CoreConfig(), make_policy(CONFIG))
        warmer.warm(trace.uops)
        return pickle.dumps(warmer.export_state())

    def test_every_structure_survives_the_round_trip(self, warmed_blob):
        original = pickle.loads(warmed_blob)
        core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
        core.import_state(pickle.loads(warmed_blob))
        exported = core.export_state()
        assert (exported.branch_unit.state_signature()
                == original.branch_unit.state_signature())
        assert (exported.hierarchy.state_signature()
                == original.hierarchy.state_signature())
        assert (exported.memory.state_signature()
                == original.memory.state_signature())
        assert exported.ssn_alloc.ssn_rename == original.ssn_alloc.ssn_rename
        assert exported.ssn_alloc.ssn_commit == original.ssn_alloc.ssn_commit
        assert (exported.policy.state_signature()
                == original.policy.state_signature())
        # The exported last-writer map keeps every byte's writer SSN (the
        # only component import_state consumes).
        assert ({a: e[0] for a, e in per_byte(exported.last_writer).items()}
                == {a: e[0] for a, e in per_byte(original.last_writer).items()})

    def test_round_tripped_state_simulates_identically(self, warmed_blob):
        window = build_workload_window(WORKLOAD, self.PREFIX + 4_000, 1,
                                       self.PREFIX, self.PREFIX + 4_000)
        results = []
        for _ in range(2):
            core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
            core.import_state(pickle.loads(warmed_blob))
            from repro.isa.trace import DynamicTrace

            result = core.run(DynamicTrace(name=WORKLOAD, uops=list(window)),
                              warm_memory=False)
            results.append(result.stats.as_dict())
        assert results[0] == results[1]


class TestStoreInvalidation:
    def test_simulator_source_change_misses(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        before_shared = shared_key(WORKLOAD, SETTINGS, 0)
        before_policy = policy_key(WORKLOAD, SETTINGS, IDENTITY, 0)
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        assert shared_key(WORKLOAD, SETTINGS, 0) != before_shared
        assert policy_key(WORKLOAD, SETTINGS, IDENTITY, 0) != before_policy
        # A populated store therefore misses end to end.
        monkeypatch.undo()
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        requests, total = plan_generation(store, _checkpointed_specs(store))
        assert total == 1 and not requests  # warm before the "edit"
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        requests, total = plan_generation(store, _checkpointed_specs(store))
        assert total == 1 and len(requests) == 1
        assert requests[0].identities == (IDENTITY,)
        assert requests[0].write_shared

    def test_workload_source_change_misses(self, monkeypatch):
        before = segment_key(WORKLOAD, 1, 0, 4_096)
        before_shared = shared_key(WORKLOAD, SETTINGS, 0)
        monkeypatch.setattr(fingerprint_module, "workload_fingerprint",
                            lambda: "edited-workload-source")
        assert segment_key(WORKLOAD, 1, 0, 4_096) != before
        assert shared_key(WORKLOAD, SETTINGS, 0) != before_shared

    def test_functional_warmup_does_not_invalidate(self, tmp_path):
        # Snapshots and windows do not depend on the bounded-warming
        # horizon; toggling it must keep the store warm.
        other = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, functional_warmup=9))
        assert shared_key(WORKLOAD, SETTINGS, 0) == shared_key(WORKLOAD, other, 0)
        assert (policy_key(WORKLOAD, SETTINGS, IDENTITY, 0)
                == policy_key(WORKLOAD, other, IDENTITY, 0))
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        requests, total = plan_generation(
            store, _checkpointed_specs(store, settings=other))
        assert total == 1 and not requests

    def test_plan_change_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        changed = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, detailed_warmup=600))
        requests, _total = plan_generation(
            store, _checkpointed_specs(store, settings=changed))
        assert len(requests) == 1 and requests[0].write_shared

    def test_new_configuration_reuses_shared_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        other = ("associative-5-predictive", SETTINGS.sq_size, None)
        requests, total = plan_generation(
            store, _checkpointed_specs(store, config=other[0]))
        assert total == 1 and len(requests) == 1
        assert requests[0].identities == (other,)
        assert not requests[0].write_shared  # shared snapshots stay valid


class TestCorruptSnapshots:
    def test_truncated_snapshots_repair_in_place(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _checkpointed_specs(store)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        intact = run_interval_job(specs[1]).result.stats.as_dict()
        # Truncate every snapshot blob in the store.
        damaged = 0
        for path in store.directory.glob("*.pkl"):
            path.write_bytes(path.read_bytes()[:16])
            damaged += 1
        assert damaged > 0
        repaired = run_interval_job(specs[1])
        # No crash, and no silent accuracy loss: the exact full-history
        # state is recomputed, so the record is bit-identical.
        assert repaired.result.stats.as_dict() == intact
        # The store was repaired for subsequent jobs.
        again = run_interval_job(specs[1])
        assert again.result.stats.as_dict() == intact

    def test_cold_store_direct_interval_job_works(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _checkpointed_specs(store)
        record = run_interval_job(specs[0])  # nothing generated yet
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        assert (run_interval_job(specs[0]).result.stats.as_dict()
                == record.result.stats.as_dict())


class TestEngineGeneration:
    def test_generates_once_then_reuses_across_engines(self, tmp_path):
        spec = JobSpec(WORKLOAD, CONFIG, SETTINGS)
        cold = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        cold_record, = cold.run([spec])
        assert cold.last_run_stats["checkpoint_generated"] == 1
        assert cold.last_run_stats["checkpoint_passes"] == 1
        warm = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        warm_record, = warm.run([spec])
        assert warm.last_run_stats["checkpoint_generated"] == 0
        assert warm.last_run_stats["checkpoint_reused"] == 1
        assert (warm_record.result.stats.as_dict()
                == cold_record.result.stats.as_dict())

    def test_one_pass_warms_every_configuration_of_a_sweep(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        engine.run([JobSpec(WORKLOAD, CONFIG, SETTINGS),
                    JobSpec(WORKLOAD, "associative-5-predictive", SETTINGS)])
        stats = engine.last_run_stats
        assert stats["checkpoint_identities"] == 2
        assert stats["checkpoint_generated"] == 2
        assert stats["checkpoint_passes"] == 1  # a single shared O(N) pass

    def test_engine_matches_serial_driver(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        record, = engine.run([JobSpec(WORKLOAD, CONFIG, SETTINGS)])
        serial = run_sampled_workload(WORKLOAD, CONFIG, SETTINGS,
                                      checkpoint_dir=str(tmp_path))
        assert record.result.stats.as_dict() == serial.result.stats.as_dict()


class TestSegmentMemo:
    def test_disk_memo_round_trips_segments(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        fresh = build_workload_window(WORKLOAD, 8_000, 7, 0, 8_000,
                                      disk_memo=True)
        assert len(CheckpointStore()) > 0  # segment blob written
        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        from_disk = build_workload_window(WORKLOAD, 8_000, 7, 0, 8_000,
                                          disk_memo=True)
        assert from_disk == fresh

    def test_default_call_writes_nothing(self, tmp_path, monkeypatch):
        # The disk memo is an explicit opt-in: a plain library call must
        # not create a store in the caller's working directory, whatever
        # the environment says.
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        build_workload_window(WORKLOAD, 8_000, 8, 0, 8_000)
        assert len(CheckpointStore()) == 0

    def test_disabled_environment_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        build_workload_window(WORKLOAD, 8_000, 8, 0, 8_000, disk_memo=True)
        assert len(CheckpointStore()) == 0


class TestCacheKeys:
    def test_checkpointed_flag_is_part_of_the_key(self):
        bounded = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0)
        checkpointed = dataclasses.replace(bounded, checkpointed=True)
        assert job_key(bounded) != job_key(checkpointed)

    def test_store_location_is_not(self):
        a = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0, checkpointed=True,
                            checkpoint_dir="/somewhere")
        b = dataclasses.replace(a, checkpoint_dir="/elsewhere")
        assert job_key(a) == job_key(b)

    def test_checkpoints_field_resolution_does_not_split_keys(self):
        # None (resolved from the environment) and an explicit flag produce
        # the same key: only the *resolved* checkpointed flag matters.
        explicit = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0,
                                   checkpointed=True)
        from_env = dataclasses.replace(
            explicit,
            settings=dataclasses.replace(SETTINGS, checkpoints=None))
        assert job_key(explicit) == job_key(from_env)


class TestStateLoading:
    def test_loaded_state_is_fresh_per_job(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        specs = _checkpointed_specs(store)
        window = PLAN.intervals(SETTINGS.instructions)[0]
        first = load_interval_state(specs[0], window)
        second = load_interval_state(specs[0], window)
        assert first.policy is not second.policy
        assert first.hierarchy is not second.hierarchy
        assert (first.policy.state_signature()
                == second.policy.state_signature())


class TestSnapshotSize:
    """Policy snapshots carry only the predictor sets a run has written."""

    @pytest.mark.parametrize("config", (BASELINE_CONFIG,) + FIGURE4_CONFIGS)
    def test_fresh_policy_snapshot_is_small(self, config):
        blob = pickle.dumps(make_policy(config), pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 20 * 1024

    def test_fsp_snapshot_grows_with_touched_sets(self):
        fsp = ForwardingStorePredictor()
        for i in range(16):
            fsp.insert(0x1000 + 4 * i, 0x2000)
        assert len(fsp._sets) == 16
        assert len(pickle.dumps(fsp, pickle.HIGHEST_PROTOCOL)) < 4 * 1024


# ---------------------------------------------------------------------------
# Sharded generation (stitched boundary handoffs)
# ---------------------------------------------------------------------------

from repro.sampling import checkpoints as checkpoints_module  # noqa: E402
from repro.workloads.suites import TRACE_SEGMENT_UOPS  # noqa: E402

#: A multi-segment sampled run (5 segments) so shard counts 1/2/4 cut real
#: segment-aligned chunks; detailed_warmup is sized so at least one chunk
#: boundary lands strictly inside a warm-up window (asserted below).
SHARD_PLAN = SamplingPlan(interval_length=600, detailed_warmup=4_000,
                          period=16_384, functional_warmup=1_000, seed=1)
SHARD_SETTINGS = ExperimentSettings(instructions=5 * TRACE_SEGMENT_UOPS,
                                    stats_warmup_fraction=0.0,
                                    sampling=SHARD_PLAN, checkpoints=True)
SHARD_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")


def _generation_requests(store, settings, configs=SHARD_CONFIGS):
    specs = []
    for config in configs:
        specs.extend(expand_sampled_spec(
            JobSpec(WORKLOAD, config, settings), checkpointed=True,
            checkpoint_dir=str(store.directory)))
    requests, _total = plan_generation(store, specs)
    return requests


def _store_signatures(store, settings, configs=SHARD_CONFIGS):
    """(shared, per-policy) signatures of every interval snapshot."""
    windows = settings.sampling.intervals(settings.instructions)
    out = []
    for window in windows:
        shared = store.get(shared_key(WORKLOAD, settings, window.index))
        assert shared is not None, f"missing shared snapshot {window.index}"
        policies = []
        for config in configs:
            policy = store.get(policy_key(
                WORKLOAD, settings, (config, settings.sq_size, None),
                window.index))
            assert policy is not None, f"missing policy {config}/{window.index}"
            policies.append(policy.state_signature())
        out.append((shared_signature(shared), tuple(policies)))
    return out


class TestResolveShards:
    def test_settings_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_SHARDS", "8")
        assert resolve_checkpoint_shards() == 8
        explicit = dataclasses.replace(SETTINGS, checkpoint_shards=2)
        assert resolve_checkpoint_shards(explicit) == 2

    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_SHARDS", raising=False)
        assert resolve_checkpoint_shards() == 0
        assert resolve_checkpoint_shards(SETTINGS) == 0

    def test_nonpositive_settings_mean_auto(self, monkeypatch):
        """A settings value <= 0 is programmatic "auto"; a *negative
        environment value* is a typo and fails fast (PR 6)."""
        monkeypatch.delenv("REPRO_CHECKPOINT_SHARDS", raising=False)
        explicit = dataclasses.replace(SETTINGS, checkpoint_shards=-3)
        assert resolve_checkpoint_shards(explicit) == 0

    @pytest.mark.parametrize("bad", ["many", "-3"])
    def test_invalid_environment_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_CHECKPOINT_SHARDS", bad)
        with pytest.raises(ValueError, match="REPRO_CHECKPOINT_SHARDS"):
            resolve_checkpoint_shards()

    def test_execution_only_never_in_cache_keys(self):
        base = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0, checkpointed=True)
        sharded = dataclasses.replace(
            base, settings=dataclasses.replace(SETTINGS, checkpoint_shards=7))
        assert job_key(base) == job_key(sharded)


class TestShardPlanning:
    def test_chunks_are_segment_aligned_and_chunk_major(self, tmp_path):
        store = CheckpointStore(tmp_path)
        settings = dataclasses.replace(SHARD_SETTINGS, checkpoint_shards=4)
        jobs, stats = plan_shard_jobs(
            store, _generation_requests(store, settings), workers=4)
        assert stats["checkpoint_shards"] == 4
        assert stats["checkpoint_chains"] == 2  # two configs, two chains
        assert stats["checkpoint_shard_jobs"] == 8
        span = settings.sampling.intervals(
            settings.instructions)[-1].detailed_start
        for job in jobs:
            if not job.last:
                assert job.chunk_end % TRACE_SEGMENT_UOPS == 0
            else:
                assert job.chunk_end == span
        # Chunk-major dispatch order: a job's handoff producer always
        # precedes it (the pool deadlock-freedom invariant).
        indices = [job.chunk_index for job in jobs]
        assert indices == sorted(indices)
        # Exactly one chain carries the shared-emission duty.
        assert sum(1 for job in jobs if job.write_shared and job.chunk_index == 0) == 1

    def test_explicit_shards_clamped_to_segments(self, tmp_path):
        store = CheckpointStore(tmp_path)
        settings = dataclasses.replace(SETTINGS, checkpoint_shards=64)
        spec = JobSpec(WORKLOAD, CONFIG, settings)
        specs = expand_sampled_spec(spec, checkpointed=True,
                                    checkpoint_dir=str(store.directory))
        requests, _ = plan_generation(store, specs)
        jobs, stats = plan_shard_jobs(store, requests, workers=4)
        # 20k instructions -> a 2-segment trace cannot take 64 chunks.
        assert stats["checkpoint_shards"] <= 2

    def test_auto_soaks_up_idle_workers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        requests = _generation_requests(store, SHARD_SETTINGS,
                                        configs=(CONFIG,))
        jobs, stats = plan_shard_jobs(store, requests, workers=4)
        # One chain (one config): auto-sharding cuts ~one chunk per worker.
        assert stats["checkpoint_chains"] == 1
        assert stats["checkpoint_shards"] == 4

    def test_serial_auto_is_the_single_pass(self, tmp_path):
        store = CheckpointStore(tmp_path)
        requests = _generation_requests(store, SHARD_SETTINGS)
        jobs, stats = plan_shard_jobs(store, requests, workers=1)
        assert stats == {"checkpoint_chains": 1, "checkpoint_shards": 1,
                         "checkpoint_shard_jobs": 1}
        assert jobs[0].identities == requests[0].identities
        assert jobs[0].last and jobs[0].chunk_start == 0


class TestStitchedBitIdentity:
    """Stitched sharded generation == the single pass, snapshot for
    snapshot, across shard counts 1/2/4 — including a chunk boundary
    landing strictly inside a detailed warm-up window."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        stores = {}
        for shards in (1, 2, 4):
            store = CheckpointStore(
                tmp_path_factory.mktemp(f"shards-{shards}"))
            settings = dataclasses.replace(SHARD_SETTINGS,
                                           checkpoint_shards=shards)
            requests = _generation_requests(store, settings)
            stats = execute_generation(store, requests, jobs=1)
            assert stats["checkpoint_shards"] == min(shards, 5)
            stores[shards] = (store, settings)
        return stores

    def test_a_boundary_lands_mid_warmup_window(self, stores, tmp_path):
        _, settings = stores[4]
        cold = CheckpointStore(tmp_path)  # planning needs unmet requests
        jobs, _ = plan_shard_jobs(
            cold, _generation_requests(cold, settings), workers=1)
        bounds = {job.chunk_end for job in jobs if not job.last}
        windows = settings.sampling.intervals(settings.instructions)
        assert any(w.detailed_start < bound < w.measure_end
                   for bound in bounds for w in windows), \
            "layout regression: no chunk boundary inside a warm-up window"

    def test_snapshots_identical_across_shard_counts(self, stores):
        reference = _store_signatures(*stores[1])
        assert _store_signatures(*stores[2]) == reference
        assert _store_signatures(*stores[4]) == reference

    def test_no_boundary_strays_left_in_store(self, stores):
        assert len(stores[4][0]) == len(stores[1][0])

    def test_resumed_warmer_equals_straight_replay(self):
        from repro.pipeline.config import CoreConfig as _CoreConfig

        uops = build_workload(WORKLOAD, 6_000, seed=1).uops
        straight = FunctionalWarmer(_CoreConfig(), make_policy(CONFIG))
        straight.warm(uops)
        first = FunctionalWarmer(_CoreConfig(), make_policy(CONFIG))
        first.warm(uops[:2_500])
        handoff = pickle.loads(pickle.dumps(first.export_state()))
        resumed = FunctionalWarmer(_CoreConfig(), policies=[handoff.policy],
                                   state=handoff, start_index=2_500)
        resumed.warm(uops[2_500:])
        a, b = straight.state, resumed.state
        assert a.branch_unit.state_signature() == b.branch_unit.state_signature()
        assert a.hierarchy.state_signature() == b.hierarchy.state_signature()
        assert a.memory.state_signature() == b.memory.state_signature()
        assert a.policy.state_signature() == b.policy.state_signature()
        assert per_byte(a.last_writer) == per_byte(b.last_writer)
        assert a.instructions_warmed == b.instructions_warmed


class TestStitchFallback:
    """A handoff that never arrives (or is damaged) must degrade to an
    exact in-process recompute — never a hang, never a different state."""

    @pytest.fixture()
    def fast_timeout(self, monkeypatch):
        monkeypatch.setattr(checkpoints_module, "_BOUNDARY_WAIT_SECONDS", 0.05)
        monkeypatch.setattr(checkpoints_module, "_BOUNDARY_POLL_SECONDS", 0.001)

    def _shard_jobs(self, store, shards=2):
        settings = dataclasses.replace(SHARD_SETTINGS, checkpoint_shards=shards)
        jobs, _ = plan_shard_jobs(
            store, _generation_requests(store, settings, configs=(CONFIG,)),
            workers=1)
        return jobs, settings

    def test_missing_handoff_recomputes_exactly(self, tmp_path, fast_timeout):
        reference = CheckpointStore(tmp_path / "reference")
        settings = dataclasses.replace(SHARD_SETTINGS, checkpoint_shards=1)
        execute_generation(
            reference, _generation_requests(reference, settings,
                                            configs=(CONFIG,)), jobs=1)

        store = CheckpointStore(tmp_path / "orphaned")
        jobs, sharded_settings = self._shard_jobs(store)
        # Run only the *second* chunk: its producer never ran, so the
        # handoff never appears and the job must recompute the prefix.
        run_shard_job(jobs[1])
        windows = sharded_settings.sampling.intervals(
            sharded_settings.instructions)
        emitted = [w for w in windows
                   if w.detailed_start > jobs[1].chunk_start]
        assert emitted, "second chunk owns no interval - bad layout"
        for window in emitted:
            ours = store.get(shared_key(WORKLOAD, sharded_settings,
                                        window.index))
            theirs = reference.get(shared_key(WORKLOAD, settings,
                                              window.index))
            assert shared_signature(ours) == shared_signature(theirs)

    def test_corrupt_handoff_is_rejected_and_recomputed(self, tmp_path,
                                                        fast_timeout):
        store = CheckpointStore(tmp_path)
        jobs, settings = self._shard_jobs(store)
        run_shard_job(jobs[0])
        key = boundary_key(WORKLOAD, settings, jobs[0].identities,
                           jobs[0].chunk_end)
        assert store.contains(key)
        good = store.get(key)
        assert isinstance(good, BoundaryState)
        # Truncate the handoff mid-blob: stitch validation must reject it.
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:40])
        run_shard_job(jobs[1])  # falls back, still emits every snapshot
        windows = settings.sampling.intervals(settings.instructions)
        for window in windows:
            assert store.contains(shared_key(WORKLOAD, settings, window.index))


class TestShardedEngineStats:
    def test_engine_reports_shard_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        settings = dataclasses.replace(SETTINGS, checkpoint_shards=2)
        engine = ExperimentEngine(jobs=1, cache=False,
                                  checkpoint_dir=tmp_path)
        engine.run([JobSpec(WORKLOAD, CONFIG, settings)])
        stats = engine.last_run_stats
        assert stats["checkpoint_passes"] == 1
        assert stats["checkpoint_shards"] == 2
        assert stats["checkpoint_shard_jobs"] == 2
        assert stats["checkpoint_chains"] == 1
