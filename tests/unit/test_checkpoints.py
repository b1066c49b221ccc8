"""Unit tests for the checkpoint store (`repro.sampling.checkpoints`).

Covers the multi-policy functional warmer (one pass, many configurations,
one fold per warm class, every policy independent of the others) and its
policies-only mode, the export/import round trip (exact for every
warmed structure), store invalidation (source fingerprints, plan changes),
corruption robustness (truncated snapshots repair in place, window
included, never crash and never change the result), the engine's
generation/reuse accounting, policy-group generation (one job per workload
and policy group, bit-identical to the single pass, leaving only snapshot
blobs, each job's snapshots recomputed exactly when lost), the
result-cache key semantics of interval specs, and the memo of canonical
settings forms behind every key.
"""

import dataclasses
import pickle

import pytest

from repro.core.fsp import ForwardingStorePredictor
from repro.exec import ExperimentEngine, IntervalJobSpec, JobSpec, job_key
from repro.exec import cache as cache_module
from repro.exec import fingerprint as fingerprint_module
from repro.harness.runner import (
    BASELINE_CONFIG,
    FIGURE4_CONFIGS,
    ExperimentSettings,
    make_policy,
)
from repro.isa.plane import encode_uops
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.sampling import SamplingPlan
from repro.sampling.checkpoints import (
    CheckpointJobSpec,
    CheckpointStore,
    _shared_payload,
    execute_generation,
    generate_checkpoints,
    interval_window_uops,
    load_interval_state,
    plan_generation,
    policy_key,
    run_checkpoint_job,
    shared_key,
    shared_signature,
    split_policy_groups,
)
from repro.sampling.driver import (
    _overrun,
    expand_sampled_spec,
    run_interval_job,
    run_sampled_workload,
)
from repro.sampling.functional import FunctionalWarmer
from repro.workloads.suites import build_workload, build_workload_window

WORKLOAD = "vortex"
PLAN = SamplingPlan(interval_length=500, detailed_warmup=500, period=5_000,
                    seed=0)
SETTINGS = ExperimentSettings(instructions=20_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)

CONFIG = "indexed-3-fwd+dly"
IDENTITY = (CONFIG, SETTINGS.sq_size, None)

#: Every make_policy name: four warm classes (oracle, the three
#: reformulated associative configurations, original Store Sets, and the
#: two indexed configurations).
ALL_NAMES = ("oracle-associative-3", "associative-3",
             "associative-5-optimistic", "associative-5-predictive",
             "associative-original-storesets", "indexed-3-fwd",
             "indexed-3-fwd+dly")


def _interval_specs(store, settings=SETTINGS, config=CONFIG):
    spec = JobSpec(WORKLOAD, config, settings)
    return expand_sampled_spec(spec, checkpoint_dir=str(store.directory))


class TestMultiPolicyWarming:
    """One shared pass must warm each policy exactly as its own pass would."""

    PREFIX = 4_000

    def test_policy_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        configs = ("indexed-3-fwd+dly", "associative-5-predictive")
        multi_policies = [make_policy(name) for name in configs]
        multi = FunctionalWarmer(CoreConfig(), policies=multi_policies)
        multi.warm(trace)
        for name, warmed in zip(configs, multi_policies):
            single_policy = make_policy(name)
            single = FunctionalWarmer(CoreConfig(), single_policy)
            single.warm(trace)
            assert warmed.state_signature() == single_policy.state_signature(), name

    def test_shared_state_matches_single_policy_pass(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        multi = FunctionalWarmer(CoreConfig(), policies=[
            make_policy("indexed-3-fwd+dly"), make_policy("associative-3")])
        multi.warm(trace)
        single = FunctionalWarmer(CoreConfig(), make_policy("indexed-3-fwd+dly"))
        single.warm(trace)
        a, b = multi.state, single.state
        assert a.branch_unit.state_signature() == b.branch_unit.state_signature()
        assert a.hierarchy.state_signature() == b.hierarchy.state_signature()
        assert a.memory.state_signature() == b.memory.state_signature()
        assert a.ssn_alloc == b.ssn_alloc

    def test_export_state_carries_first_policy(self):
        policies = [make_policy("indexed-3-fwd"), make_policy("associative-3")]
        warmer = FunctionalWarmer(CoreConfig(), policies=policies)
        assert warmer.export_state().policy is policies[0]
        assert warmer.policies == policies


class TestWarmClassIndependence:
    """Policies warmed through one class fold share no table: a detailed
    run on each, adopting the warmed policy object itself, equals a run on
    a policy warmed by a warmer of its own."""

    PREFIX = 6_000
    CONFIGS = ("indexed-3-fwd", "indexed-3-fwd+dly", "associative-3",
               "associative-5-predictive")

    def _run(self, state, window):
        core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
        core.import_state(state)
        return core.run(window, warm_memory=False).stats.as_dict()

    def test_detailed_runs_match_separately_warmed_policies(self):
        prefix = build_workload_window(WORKLOAD, self.PREFIX + 3_000, 1, 0,
                                       self.PREFIX)
        window = build_workload_window(WORKLOAD, self.PREFIX + 3_000, 1,
                                       self.PREFIX, self.PREFIX + 3_000)
        policies = [make_policy(name) for name in self.CONFIGS]
        warmer = FunctionalWarmer(CoreConfig(), policies=policies)
        warmer.warm(prefix)
        shared = pickle.dumps(warmer.state)
        together = {}
        for name, policy in zip(self.CONFIGS, policies):
            state = pickle.loads(shared)
            state.policy = policy
            together[name] = self._run(state, window)
        for name in self.CONFIGS:
            alone = FunctionalWarmer(CoreConfig(), make_policy(name))
            alone.warm(prefix)
            assert self._run(alone.export_state(), window) == together[name], name

    def test_generation_over_every_name_matches_single_passes(self, tmp_path):
        """Snapshot for snapshot, a pass over all seven configurations
        pickles each policy exactly as a pass over that one alone."""
        identities = [(name, SETTINGS.sq_size, None) for name in ALL_NAMES]
        together = CheckpointStore(tmp_path / "all")
        generate_checkpoints(together, WORKLOAD, SETTINGS, identities)
        count = PLAN.num_intervals(SETTINGS.instructions)
        for identity in identities:
            alone = CheckpointStore(tmp_path / identity[0])
            generate_checkpoints(alone, WORKLOAD, SETTINGS, [identity],
                                 write_shared=False)
            for index in range(count):
                key = policy_key(WORKLOAD, SETTINGS, identity, index)
                assert (pickle.dumps(together.get(key))
                        == pickle.dumps(alone.get(key))), (identity, index)


class TestPoliciesOnlyWarming:
    """A policies-only replay (what a generation job that writes no shared
    snapshot runs) warms the policies and SSN counters exactly as a full
    replay does, and leaves every other structure cold."""

    PREFIX = 4_000
    CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive",
               "associative-original-storesets")

    def _warm(self, workload, policies_only):
        trace = build_workload(workload, self.PREFIX, seed=1)
        warmer = FunctionalWarmer(
            CoreConfig(), policies=[make_policy(name) for name in self.CONFIGS],
            policies_only=policies_only)
        warmer.warm(trace)
        return warmer

    @pytest.mark.parametrize("workload", (WORKLOAD, "mcf"))
    def test_policies_and_store_tracking_match_full_replay(self, workload):
        full = self._warm(workload, policies_only=False)
        lean = self._warm(workload, policies_only=True)
        for name, mine, theirs in zip(self.CONFIGS, lean.policies,
                                      full.policies):
            assert mine.state_signature() == theirs.state_signature(), name
        assert lean.state.ssn_alloc == full.state.ssn_alloc
        assert (lean.state.instructions_warmed
                == full.state.instructions_warmed == self.PREFIX)

    def test_shared_structures_stay_cold(self):
        lean = self._warm(WORKLOAD, policies_only=True).state
        cold = FunctionalWarmer(CoreConfig(), make_policy(CONFIG)).state
        assert (lean.branch_unit.state_signature()
                == cold.branch_unit.state_signature())
        assert (lean.hierarchy.state_signature()
                == cold.hierarchy.state_signature())
        assert lean.memory.state_signature() == cold.memory.state_signature()


class TestExportImportRoundTrip:
    """export_state -> (pickle) -> import_state is exact for every warmed
    structure — the checkpoint analogue of the PR 2 functional-replay
    exactness test."""

    PREFIX = 6_000

    @pytest.fixture(scope="class")
    def warmed_blob(self):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        warmer = FunctionalWarmer(CoreConfig(), make_policy(CONFIG))
        warmer.warm(trace)
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

    def test_round_tripped_state_simulates_identically(self, warmed_blob):
        window = build_workload_window(WORKLOAD, self.PREFIX + 4_000, 1,
                                       self.PREFIX, self.PREFIX + 4_000)
        results = []
        for _ in range(2):
            core = OutOfOrderCore(CoreConfig(), make_policy(CONFIG))
            core.import_state(pickle.loads(warmed_blob))
            result = core.run(encode_uops(window, name=WORKLOAD),
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
        requests, total = plan_generation(store, _interval_specs(store))
        assert total == 1 and not requests  # warm before the "edit"
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        requests, total = plan_generation(store, _interval_specs(store))
        assert total == 1 and len(requests) == 1
        assert requests[0].identities == (IDENTITY,)
        assert requests[0].write_shared

    def test_workload_source_change_misses(self, monkeypatch):
        before_shared = shared_key(WORKLOAD, SETTINGS, 0)
        monkeypatch.setattr(fingerprint_module, "workload_fingerprint",
                            lambda: "edited-workload-source")
        assert shared_key(WORKLOAD, SETTINGS, 0) != before_shared

    def test_plan_change_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        changed = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, detailed_warmup=600))
        requests, _total = plan_generation(
            store, _interval_specs(store, settings=changed))
        assert len(requests) == 1 and requests[0].write_shared

    def test_new_configuration_reuses_shared_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        other = ("associative-5-predictive", SETTINGS.sq_size, None)
        requests, total = plan_generation(
            store, _interval_specs(store, config=other[0]))
        assert total == 1 and len(requests) == 1
        assert requests[0].identities == (other,)
        assert not requests[0].write_shared  # shared snapshots stay valid


class TestKeyMemo:
    """The canonical settings forms are memoised per settings object; the
    source fingerprints are still read on every call."""

    def _keys(self):
        spec = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0)
        return (job_key(spec), shared_key(WORKLOAD, SETTINGS, 0),
                policy_key(WORKLOAD, SETTINGS, IDENTITY, 0))

    def test_job_key_follows_source_fingerprints(self, monkeypatch):
        spec = JobSpec(WORKLOAD, CONFIG, SETTINGS)
        before = job_key(spec)
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited-simulator-source")
        simulator_edited = job_key(spec)
        assert simulator_edited != before
        monkeypatch.setattr(fingerprint_module, "workload_fingerprint",
                            lambda: "edited-workload-source")
        assert job_key(spec) not in (before, simulator_edited)
        monkeypatch.undo()
        assert job_key(spec) == before

    def test_mutating_a_payload_changes_no_key(self):
        before = self._keys()
        payload = _shared_payload(WORKLOAD, SETTINGS)
        payload["core"].clear()
        payload["plan"]["seed"] = 99
        payload["workload"] = "swim"
        assert self._keys() == before
        assert _shared_payload(WORKLOAD, SETTINGS) != payload

    def test_unhashable_settings_take_the_uncached_path(self):
        @dataclasses.dataclass
        class MutableSettings:      # eq without frozen: unhashable
            instructions: int
            seed: int

        settings = MutableSettings(instructions=1_000, seed=1)
        spec = JobSpec(WORKLOAD, CONFIG, settings)
        entries = cache_module._canonical_pickle.cache_info().currsize
        first = job_key(spec)
        settings.seed = 2
        assert job_key(spec) != first
        settings.seed = 1
        assert job_key(spec) == first
        assert cache_module._canonical_pickle.cache_info().currsize == entries


class TestCorruptSnapshots:
    def test_truncated_snapshots_repair_in_place(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _interval_specs(store)
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
        specs = _interval_specs(store)
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
    def test_default_call_writes_nothing(self, tmp_path, monkeypatch):
        # Composing a window is a pure library call: it must not create a
        # store in the caller's working directory, whatever the
        # environment says.
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.workloads import suites

        monkeypatch.setattr(suites, "_SEGMENT_CACHE", {})
        build_workload_window(WORKLOAD, 8_000, 8, 0, 8_000)
        assert len(CheckpointStore()) == 0


class TestWindowMemo:
    """Each interval's detailed window is held in its shared snapshot: an
    interval job reads that snapshot and its policy snapshot and nothing
    else, and a lost shared snapshot brings its window back with it."""

    def test_every_shared_snapshot_holds_its_window(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        trace = build_workload(WORKLOAD, SETTINGS.instructions,
                               seed=SETTINGS.seed)
        for window in PLAN.intervals(SETTINGS.instructions):
            stop = min(SETTINGS.instructions,
                       window.measure_end + _overrun(SETTINGS.core))
            shared = store.get(shared_key(WORKLOAD, SETTINGS, window.index))
            assert shared.window == trace[window.detailed_start:stop]

    def test_missing_window_is_recomposed_and_repaired(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        spec = _interval_specs(store)[1]
        window = PLAN.intervals(SETTINGS.instructions)[1]
        key = shared_key(WORKLOAD, SETTINGS, window.index)
        state, memo = load_interval_state(spec, window)
        store._path(key).unlink()
        assert not store.contains(key)
        again, recomposed = load_interval_state(spec, window)
        assert recomposed == memo
        assert shared_signature(again) == shared_signature(state)
        assert store.contains(key)
        assert store.get(key).window == memo

    def test_interval_job_reads_two_blobs(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        spec = _interval_specs(store)[1]
        reads = []
        load = CheckpointStore.get

        def counting_get(self, key):
            reads.append(key)
            return load(self, key)

        monkeypatch.setattr(CheckpointStore, "get", counting_get)
        run_interval_job(spec)
        assert reads == [shared_key(WORKLOAD, SETTINGS, 1),
                         policy_key(WORKLOAD, SETTINGS, IDENTITY, 1)]

    def test_snapshots_without_a_window_are_keyed_away(self, monkeypatch):
        # A v8 shared snapshot has no window; the schema version in every
        # key keeps this reader from ever loading one.
        from repro.sampling import checkpoints

        current = (shared_key(WORKLOAD, SETTINGS, 0),
                   policy_key(WORKLOAD, SETTINGS, IDENTITY, 0))
        monkeypatch.setattr(checkpoints, "CHECKPOINT_SCHEMA_VERSION", 8)
        assert shared_key(WORKLOAD, SETTINGS, 0) != current[0]
        assert policy_key(WORKLOAD, SETTINGS, IDENTITY, 0) != current[1]


class TestCacheKeys:
    def test_store_location_is_not_part_of_the_key(self):
        a = IntervalJobSpec(WORKLOAD, CONFIG, SETTINGS, 0,
                            checkpoint_dir="/somewhere")
        b = dataclasses.replace(a, checkpoint_dir="/elsewhere")
        assert job_key(a) == job_key(b)


class TestStateLoading:
    def test_loaded_state_is_fresh_per_job(self, tmp_path):
        store = CheckpointStore(tmp_path)
        generate_checkpoints(store, WORKLOAD, SETTINGS, [IDENTITY])
        specs = _interval_specs(store)
        window = PLAN.intervals(SETTINGS.instructions)[0]
        first, first_window = load_interval_state(specs[0], window)
        second, second_window = load_interval_state(specs[0], window)
        assert first.policy is not second.policy
        assert first.hierarchy is not second.hierarchy
        assert first_window is not second_window
        assert (first.policy.state_signature()
                == second.policy.state_signature())
        assert first_window == second_window == interval_window_uops(
            WORKLOAD, SETTINGS, window)

    def test_every_interval_starts_from_full_history(self, tmp_path):
        store = CheckpointStore(tmp_path)
        specs = _interval_specs(store)
        windows = PLAN.intervals(SETTINGS.instructions)
        assert windows[-1].detailed_start > 0
        for spec, window in zip(specs, windows):
            state, _uops = load_interval_state(spec, window)
            assert state.instructions_warmed == window.detailed_start


class TestSingleWarmingMode:
    """Bounded warming is retired: ``checkpoints`` stays an accepted
    settings field for existing call shapes, ``True`` and ``None`` mean
    the one mode, and ``False`` fails loudly."""

    @pytest.mark.parametrize("value", [False, 0])
    def test_checkpoints_false_raises(self, value):
        with pytest.raises(ValueError, match="retired"):
            dataclasses.replace(SETTINGS, checkpoints=value)

    def test_true_and_none_share_every_key(self):
        explicit = dataclasses.replace(SETTINGS, checkpoints=True)
        unset = dataclasses.replace(SETTINGS, checkpoints=None)
        assert (job_key(IntervalJobSpec(WORKLOAD, CONFIG, explicit, 1))
                == job_key(IntervalJobSpec(WORKLOAD, CONFIG, unset, 1)))
        assert shared_key(WORKLOAD, explicit, 1) == shared_key(WORKLOAD, unset, 1)
        assert (policy_key(WORKLOAD, explicit, IDENTITY, 1)
                == policy_key(WORKLOAD, unset, IDENTITY, 1))

    def test_true_and_none_give_identical_records(self, tmp_path):
        explicit = dataclasses.replace(SETTINGS, checkpoints=True)
        unset = dataclasses.replace(SETTINGS, checkpoints=None)
        serial = run_sampled_workload(WORKLOAD, CONFIG, explicit,
                                      checkpoint_dir=str(tmp_path / "a"))
        engine = ExperimentEngine(jobs=1, cache=False,
                                  checkpoint_dir=tmp_path / "b")
        record, = engine.run([JobSpec(WORKLOAD, CONFIG, unset)])
        assert engine.last_run_stats["checkpoint_passes"] == 1
        assert record.result.stats.as_dict() == serial.result.stats.as_dict()
        assert (record.result.sampled.cpi_values
                == serial.result.sampled.cpi_values)

    def test_engine_writes_only_the_environment_store(self, tmp_path,
                                                      monkeypatch):
        """With no explicit directory, sampled runs use
        ``REPRO_CHECKPOINT_DIR`` and leave nothing in the working
        directory."""
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "store"))
        ExperimentEngine(jobs=1, cache=False).run(
            [JobSpec(WORKLOAD, CONFIG, SETTINGS)])
        assert list(workdir.iterdir()) == []
        assert len(CheckpointStore()) > 0


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
# Policy-group generation
# ---------------------------------------------------------------------------

from repro.workloads.suites import TRACE_SEGMENT_UOPS  # noqa: E402

#: A multi-segment sampled run (3 segments), so every generation pass warms
#: across segment boundaries.
GROUP_PLAN = SamplingPlan(interval_length=600, detailed_warmup=1_000,
                          period=16_384, seed=1)
GROUP_SETTINGS = ExperimentSettings(instructions=3 * TRACE_SEGMENT_UOPS,
                                    stats_warmup_fraction=0.0,
                                    sampling=GROUP_PLAN)
GROUP_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                 "indexed-3-fwd", "indexed-3-fwd+dly")
#: GROUP_CONFIGS' warm classes: the two indexed configurations share one.
GROUP_CLASSES = 3


def _generation_requests(store, settings, configs=GROUP_CONFIGS,
                         workloads=(WORKLOAD,)):
    specs = []
    for workload in workloads:
        for config in configs:
            specs.extend(expand_sampled_spec(
                JobSpec(workload, config, settings),
                checkpoint_dir=str(store.directory)))
    requests, _total = plan_generation(store, specs)
    return requests


def _store_signatures(store, settings, configs=GROUP_CONFIGS):
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


class TestPolicyGroupSplit:
    @staticmethod
    def _request(workload, count, write_shared=True):
        identities = tuple((f"config-{i}", 64, None) for i in range(count))
        return CheckpointJobSpec(workload=workload, settings=SETTINGS,
                                 identities=identities,
                                 write_shared=write_shared, directory="d")

    def test_one_worker_keeps_every_request_whole(self):
        requests = [self._request("a", 3), self._request("b", 2)]
        assert split_policy_groups(requests, 1) == requests

    def test_groups_are_dealt_round_robin_per_request(self):
        a, b = self._request("a", 3), self._request("b", 1, write_shared=False)
        split = split_policy_groups([a, b], 4)
        # Two workers per request: a splits in two, b has one identity.
        assert [job.workload for job in split] == ["a", "a", "b"]
        assert split[0].identities == a.identities[0::2]
        assert split[1].identities == a.identities[1::2]
        assert split[2] == b
        assert [job.write_shared for job in split] == [True, False, False]

    def test_never_more_groups_than_identities(self):
        assert len(split_policy_groups([self._request("a", 2)], 8)) == 2

    def test_shared_only_request_stays_one_job(self):
        request = self._request("a", 0)
        assert split_policy_groups([request], 4) == [request]

    @pytest.mark.parametrize("jobs", [2, 3, 4, 8])
    def test_each_warm_class_stays_in_one_job(self, jobs):
        """The seven configurations form four warm classes: never more
        jobs than classes, and no class split across two jobs."""
        identities = tuple((name, 64, None) for name in ALL_NAMES)
        request = CheckpointJobSpec(workload="a", settings=SETTINGS,
                                    identities=identities,
                                    write_shared=True, directory="d")
        split = split_policy_groups([request], jobs)
        assert len(split) == min(jobs, 4)
        assert sorted(i for job in split for i in job.identities) \
            == sorted(identities)
        for mates in (("associative-3", "associative-5-optimistic",
                       "associative-5-predictive"),
                      ("indexed-3-fwd", "indexed-3-fwd+dly")):
            holders = [job for job in split
                       if {i[0] for i in job.identities} & set(mates)]
            assert len(holders) == 1, mates
        # Each job lists its identities in request order.
        for job in split:
            assert list(job.identities) == sorted(
                job.identities, key=identities.index)

    def test_other_sq_sizes_and_predictors_are_other_classes(self):
        from repro.core.predictors import FSPConfig, PredictorSuiteConfig

        small_fsp = PredictorSuiteConfig(fsp=FSPConfig(entries=512))
        identities = (("indexed-3-fwd", 64, None),
                      ("indexed-3-fwd+dly", 32, None),
                      ("indexed-3-fwd+dly", 64, small_fsp))
        request = CheckpointJobSpec(workload="a", settings=SETTINGS,
                                    identities=identities,
                                    write_shared=True, directory="d")
        split = split_policy_groups([request], 3)
        assert [job.identities for job in split] == [(i,) for i in identities]

    @pytest.mark.parametrize("jobs,groups", [
        (1, (1, 1, 1, 1)),
        (4, (1, 1, 1, 1)),
        (7, (1, 1, 1, 1)),
        (8, (2, 2, 1, 2)),
        (12, (3, 2, 1, 3)),
        (40, (5, 2, 1, 3)),
    ])
    def test_groups_partition_each_request(self, jobs, groups):
        """Four requests share ``jobs`` workers: each splits into its own
        contiguous run of non-empty groups that together hold each of its
        identities exactly once, and only its first group writes shared
        snapshots."""
        requests = [self._request("a", 5), self._request("b", 2),
                    self._request("c", 0),
                    self._request("d", 3, write_shared=False)]
        split = split_policy_groups(requests, jobs)
        assert len(split) == sum(groups)
        position = 0
        for request, count in zip(requests, groups):
            mine = split[position:position + count]
            position += count
            assert {job.workload for job in mine} == {request.workload}
            assert sorted(identity for job in mine
                          for identity in job.identities) \
                == sorted(request.identities)
            if request.identities:
                assert all(job.identities for job in mine)
            assert [job.write_shared for job in mine] == \
                [request.write_shared] + [False] * (count - 1)


class TestPolicyGroupBitIdentity:
    """Policy-group generation == the single pass, snapshot for snapshot,
    at 1, 2 and 4 workers: each job, run in-process, warms its own group.
    Four workers still make three jobs, one per warm class."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        stores = {}
        for jobs in (1, 2, 4):
            store = CheckpointStore(tmp_path_factory.mktemp(f"jobs-{jobs}"))
            generation_jobs = split_policy_groups(
                _generation_requests(store, GROUP_SETTINGS), jobs)
            for job in generation_jobs:
                run_checkpoint_job(job)
            stores[jobs] = (store, generation_jobs)
        return stores

    def test_one_job_per_policy_group(self, stores):
        every = sorted((config, GROUP_SETTINGS.sq_size, None)
                       for config in GROUP_CONFIGS)
        for jobs, (_store, generation_jobs) in stores.items():
            assert len(generation_jobs) == min(jobs, GROUP_CLASSES)
            assert sum(job.write_shared for job in generation_jobs) == 1
            # indexed-3-fwd is folded with indexed-3-fwd+dly, never apart.
            assert any({("indexed-3-fwd", 64, None),
                        ("indexed-3-fwd+dly", 64, None)}
                       <= set(job.identities) for job in generation_jobs)
            assert sorted(identity for job in generation_jobs
                          for identity in job.identities) == every

    def test_snapshots_identical_across_job_counts(self, stores):
        reference = _store_signatures(stores[1][0], GROUP_SETTINGS)
        assert _store_signatures(stores[2][0], GROUP_SETTINGS) == reference
        assert _store_signatures(stores[4][0], GROUP_SETTINGS) == reference


class TestPolicyGroupFallback:
    """A snapshot a policy-group job wrote that has gone missing or been
    damaged degrades to the exact in-process recompute, like any other:
    the loaded state equals the single pass and the store is repaired."""

    INDEX = 2

    @pytest.fixture()
    def stores(self, tmp_path):
        reference = CheckpointStore(tmp_path / "single")
        execute_generation(_generation_requests(reference, SETTINGS), jobs=1)
        store = CheckpointStore(tmp_path / "groups")
        jobs = split_policy_groups(_generation_requests(store, SETTINGS), 2)
        for job in jobs:
            run_checkpoint_job(job)
        assert [job.write_shared for job in jobs] == [True, False]
        # A configuration from the group that writes no shared snapshot.
        return reference, store, jobs[1].identities[0]

    def _assert_recomputed(self, reference, store, identity):
        spec = expand_sampled_spec(
            JobSpec(WORKLOAD, identity[0], SETTINGS),
            checkpoint_dir=str(store.directory))[self.INDEX]
        window = PLAN.intervals(SETTINGS.instructions)[self.INDEX]
        assert spec.interval_index == window.index == self.INDEX
        pkey = policy_key(WORKLOAD, SETTINGS, identity, self.INDEX)
        skey = shared_key(WORKLOAD, SETTINGS, self.INDEX)
        expected = reference.get(pkey).state_signature()
        state, uops = load_interval_state(spec, window)
        assert state.policy.state_signature() == expected
        assert store.get(pkey).state_signature() == expected
        repaired, want = store.get(skey), reference.get(skey)
        assert shared_signature(repaired) == shared_signature(want)
        assert uops == repaired.window == want.window

    def test_missing_group_snapshot_recomputes_exactly(self, stores):
        reference, store, identity = stores
        store._path(policy_key(WORKLOAD, SETTINGS, identity,
                               self.INDEX)).unlink()
        self._assert_recomputed(reference, store, identity)

    def test_corrupt_group_snapshot_is_rejected_and_recomputed(self, stores):
        reference, store, identity = stores
        path = store._path(policy_key(WORKLOAD, SETTINGS, identity,
                                      self.INDEX))
        path.write_bytes(path.read_bytes()[:40])
        self._assert_recomputed(reference, store, identity)


class TestPolicyGroupEngineStats:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_engine_reports_one_job_per_policy_group(self, tmp_path, jobs):
        """One workload, four configurations: one generation pass, split
        into as many policy-group jobs as there are workers."""
        engine = ExperimentEngine(jobs=jobs, cache=False,
                                  checkpoint_dir=tmp_path)
        engine.run([JobSpec(WORKLOAD, config, SETTINGS)
                    for config in GROUP_CONFIGS])
        stats = engine.last_run_stats
        assert stats["checkpoint_passes"] == 1
        assert stats["checkpoint_generated"] == len(GROUP_CONFIGS)
        assert stats["checkpoint_jobs"] == jobs


class TestGenerationBlobs:
    def test_store_holds_only_snapshots_and_windows(self, tmp_path,
                                                    monkeypatch):
        """A two-workload generation leaves one shared snapshot (window
        included) and one policy snapshot per configuration at every
        interval: no trace segments and no other blobs, wherever the
        environment points the default store."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        store = CheckpointStore(tmp_path)
        configs = (CONFIG, "associative-5-predictive")
        workloads = (WORKLOAD, "mcf")
        assert execute_generation(
            _generation_requests(store, SETTINGS, configs=configs,
                                 workloads=workloads), jobs=1) == 2
        intervals = PLAN.num_intervals(SETTINGS.instructions)
        assert len(store) == len(workloads) * intervals * (1 + len(configs))

    def test_policy_group_job_writes_only_policy_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        identities = [IDENTITY,
                      ("associative-5-predictive", SETTINGS.sq_size, None)]
        count = generate_checkpoints(store, WORKLOAD, SETTINGS, identities,
                                     write_shared=False)
        assert count == PLAN.num_intervals(SETTINGS.instructions)
        assert len(store) == count * len(identities)
        for index in range(count):
            assert not store.contains(shared_key(WORKLOAD, SETTINGS, index))
            for identity in identities:
                assert store.contains(policy_key(WORKLOAD, SETTINGS,
                                                 identity, index))
