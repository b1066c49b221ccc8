"""One decode per interval: exact structure copies and the interval record.

An engine run dispatches a sampled run's interval jobs interval-major and
keeps one interval record per process
(:func:`repro.sampling.checkpoints.interval_record`): the first job of an
interval decodes its shared snapshot, every job but the interval's last
starts from an exact structural copy of it (:meth:`SharedWarmState.copy`,
built from the ``copy()`` of each warmed structure), and the last takes
the decoded snapshot itself.  These tests pin the copies (equal
signatures, fully independent of the original, a detailed run on a copy
leaves the original untouched, for the blocking and the non-blocking
hierarchy), the dispatch order (records in input order, serial equal to a
pool), one shared-blob read per interval, one copy fewer than loads per
interval, the repair path with the record warm, and the memo behind every
snapshot key.
"""

import dataclasses

import pytest

from repro.core.ssn import SSNAllocator
from repro.exec import ExperimentEngine, IntervalJobSpec, JobSpec
from repro.exec import fingerprint as fingerprint_module
from repro.frontend.branch_predictor import BranchUnit
from repro.harness.runner import ExperimentSettings
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memory.image import MemoryImage
from repro.memory.mlp import NonBlockingHierarchy
from repro.memory.mshr import MLPConfig, PrefetchConfig
from repro.memory.tlb import TLB
from repro.pipeline.config import CoreConfig
from repro.sampling import SamplingPlan, checkpoints
from repro.sampling.checkpoints import (
    CheckpointStore,
    generate_checkpoints,
    interval_record,
    load_interval_state,
    policy_key,
    shared_key,
    shared_signature,
)
from repro.sampling.driver import (
    _simulate_window,
    _window_facts,
    expand_sampled_spec,
    interval_major_order,
    run_interval_job,
)

WORKLOAD = "vortex"
PLAN = SamplingPlan(interval_length=400, detailed_warmup=400, period=4_000,
                    seed=0)
SETTINGS = ExperimentSettings(instructions=16_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)
MLP_SETTINGS = dataclasses.replace(SETTINGS, core=CoreConfig(
    memory=MemoryHierarchyConfig(mlp=MLPConfig(
        enabled=True, mshr_entries=2,
        prefetch=PrefetchConfig(enabled=True)))))
CONFIGS = ("oracle-associative-3", "associative-5-predictive",
           "indexed-3-fwd+dly")

#: Addresses that miss, straddle lines and repeat: the caches fill, evict
#: and reorder their LRU ways, and the TLB walks several pages.
ADDRESSES = [0x1000_0000 + 4096 * (i % 37) + 64 * (i % 11) + 8 * (i % 5)
             for i in range(600)]


def _hierarchy_state(hierarchy):
    return (hierarchy.state_signature(), dataclasses.astuple(hierarchy.stats),
            dataclasses.astuple(hierarchy.l1.stats),
            dataclasses.astuple(hierarchy.l2.stats),
            dataclasses.astuple(hierarchy.tlb.stats))


def _branch_state(unit):
    return (unit.state_signature(), unit.predictions, unit.mispredictions,
            unit.btb_misses, unit.btb.lookups, unit.btb.hits, unit.ras.pushes,
            unit.ras.pops, unit.ras.overflows, unit.ras.underflows)


def _train_branches(unit, count, base=0x40_0000):
    for i in range(count):
        pc = base + 4 * (i * 7 % 97)
        unit.predict_and_resolve(pc, bool(i % 3), pc + 64,
                                 is_call=i % 13 == 0, is_return=i % 17 == 0)


class TestStructureCopies:
    """Every ``copy()`` is exact and shares no mutable state."""

    def test_cache(self):
        cache = Cache(CacheConfig("c", 4096, 2, 64, 3))
        for addr in ADDRESSES:
            cache.access(addr)
        clone = cache.copy()
        before = (cache.state_signature(), dataclasses.astuple(cache.stats))
        assert (clone.state_signature(),
                dataclasses.astuple(clone.stats)) == before
        for addr in reversed(ADDRESSES):
            clone.access(addr + 128)
        clone.flush()
        assert (cache.state_signature(),
                dataclasses.astuple(cache.stats)) == before

    def test_tlb(self):
        tlb = TLB()
        for addr in ADDRESSES:
            tlb.access(addr)
        clone = tlb.copy()
        before = (tlb.state_signature(), dataclasses.astuple(tlb.stats))
        assert (clone.state_signature(),
                dataclasses.astuple(clone.stats)) == before
        for addr in ADDRESSES:
            clone.access(addr * 3)
        assert (tlb.state_signature(), dataclasses.astuple(tlb.stats)) == before

    def test_blocking_hierarchy(self):
        hierarchy = MemoryHierarchy()
        for i, addr in enumerate(ADDRESSES):
            if i % 3:
                hierarchy.load_latency(addr)
            else:
                hierarchy.store_touch(addr)
        clone = hierarchy.copy()
        assert type(clone) is MemoryHierarchy
        before = _hierarchy_state(hierarchy)
        assert _hierarchy_state(clone) == before
        for addr in ADDRESSES:
            clone.load_latency(addr + (1 << 20))
        clone.reset_stats()
        assert _hierarchy_state(hierarchy) == before

    def test_nonblocking_hierarchy_with_fills_in_flight(self):
        hierarchy = NonBlockingHierarchy(MemoryHierarchyConfig(mlp=MLPConfig(
            enabled=True, mshr_entries=8,
            prefetch=PrefetchConfig(enabled=True))))
        pc = 0x40_0100
        for now, addr in enumerate(range(0x2000_0000, 0x2000_0000 + 64 * 6, 64)):
            hierarchy.load_access(addr, now, pc)
        hierarchy.load_access(0x2000_0008, 9, pc + 4)    # coalesces
        assert hierarchy.mshr.occupancy > 1
        assert hierarchy.mlp_stats.prefetch_issued
        assert hierarchy.mlp_stats.misses_coalesced
        clone = hierarchy.copy()
        assert type(clone) is NonBlockingHierarchy
        before = (_hierarchy_state(hierarchy),
                  dataclasses.astuple(hierarchy.mlp_stats))
        assert (_hierarchy_state(clone),
                dataclasses.astuple(clone.mlp_stats)) == before
        # The copy's MSHR file keeps one entry object per slot and line.
        for entry in clone.mshr._slots:
            if entry is not None:
                assert clone.mshr._by_line[entry.line] is entry
        clone.load_access(0x2000_0010, 10, pc + 4)       # coalesces on the copy
        clone.load_access(0x3000_0000, 2_000, pc)         # retires every fill
        clone.drain()
        assert (_hierarchy_state(hierarchy),
                dataclasses.astuple(hierarchy.mlp_stats)) == before

    def test_memory_image(self):
        image = MemoryImage()
        for i, addr in enumerate(ADDRESSES):
            image.write(addr + i % 3, (1, 2, 4, 8)[i % 4], i * 0x1234567)
        clone = image.copy()
        before = image.state_signature()
        assert clone.state_signature() == before
        clone.write(ADDRESSES[0], 8, 0)
        clone.write(0x7000_0001, 2, 0xBEEF)
        assert image.state_signature() == before

    def test_branch_unit(self):
        unit = BranchUnit()
        _train_branches(unit, 3_000)
        clone = unit.copy()
        before = _branch_state(unit)
        assert _branch_state(clone) == before
        _train_branches(clone, 3_000, base=0x80_0000)
        clone.reset_stats()
        assert _branch_state(unit) == before

    def test_ssn_allocator(self):
        alloc = SSNAllocator(bits=6)
        for _ in range(70):
            alloc.commit(alloc.allocate())
        clone = alloc.copy()
        assert clone == alloc and clone._wrap_mask == alloc._wrap_mask
        clone.commit(clone.allocate())
        assert (alloc.ssn_rename, alloc.ssn_commit, alloc.wraps) == (70, 70, 1)


@pytest.mark.parametrize("settings", [SETTINGS, MLP_SETTINGS],
                         ids=["blocking", "mlp"])
def test_a_detailed_run_on_a_copy_leaves_the_snapshot_untouched(tmp_path,
                                                                settings):
    store = CheckpointStore(tmp_path)
    config = "indexed-3-fwd+dly"
    generate_checkpoints(store, WORKLOAD, settings,
                         [(config, settings.sq_size, None)])
    window = PLAN.intervals(settings.instructions)[2]
    shared = store.get(shared_key(WORKLOAD, settings, window.index))
    before = (shared_signature(shared), _hierarchy_state(shared.hierarchy),
              _branch_state(shared.branch_unit))
    clone = shared.copy()
    assert type(clone.hierarchy) is type(shared.hierarchy)
    assert (shared_signature(clone), _hierarchy_state(clone.hierarchy),
            _branch_state(clone.branch_unit)) == before
    assert clone.window == shared.window
    assert clone.window is not shared.window
    assert clone.window.plane is shared.window.plane

    policy = store.get(policy_key(WORKLOAD, settings,
                                  (config, settings.sq_size, None),
                                  window.index))
    state = checkpoints._assemble(settings, clone, policy)
    _simulate_window(clone.window, window, WORKLOAD, config, settings, state)
    assert shared_signature(clone) != before[0]
    assert (shared_signature(shared), _hierarchy_state(shared.hierarchy),
            _branch_state(shared.branch_unit)) == before


def _sampled_specs():
    return [JobSpec(WORKLOAD, config, SETTINGS) for config in CONFIGS]


class TestIntervalMajorDispatch:
    def test_order_groups_each_interval_and_keeps_other_jobs_in_place(self):
        plain = JobSpec("gzip", "indexed-3-fwd", ExperimentSettings(
            instructions=600))
        a, b = [expand_sampled_spec(spec, checkpoint_dir="/store")
                for spec in _sampled_specs()[:2]]
        flat = [plain, *a, plain, *b]
        order = interval_major_order(flat)
        assert sorted(order) == list(range(len(flat)))
        dispatched = [flat[i] for i in order]
        intervals = [spec for spec in dispatched
                     if isinstance(spec, IntervalJobSpec)]
        assert [(spec.interval_index, spec.config_name)
                for spec in intervals] == [
            (index, config) for index in range(len(a))
            for config in CONFIGS[:2]]
        assert dispatched[0] is plain and dispatched[-1] is plain

    def test_records_come_back_in_input_order(self, tmp_path):
        plain = JobSpec("gzip", "indexed-3-fwd",
                        ExperimentSettings(instructions=600))
        specs = [_sampled_specs()[0], plain, *_sampled_specs()[1:]]
        serial = ExperimentEngine(jobs=1, cache=False,
                                  checkpoint_dir=tmp_path / "serial")
        records = serial.run(specs)
        for spec, record in zip(specs, records):
            alone = ExperimentEngine(jobs=1, cache=False,
                                     checkpoint_dir=tmp_path / "alone")
            want, = alone.run([spec])
            assert (record.workload, record.config_name) == (
                spec.workload, spec.config_name)
            assert record.result.stats.as_dict() == want.result.stats.as_dict()
        pool = ExperimentEngine(jobs=2, cache=False,
                                checkpoint_dir=tmp_path / "pool")
        for record, got in zip(records, pool.run(specs)):
            assert got.result.stats.as_dict() == record.result.stats.as_dict()
            assert got.result.extra == record.result.extra
        assert pool.last_run_stats["backend"] == "supervised-pool"
        assert checkpoints._RECORD is None


class TestOneDecodePerInterval:
    def _count_reads(self, monkeypatch):
        reads = []
        get = CheckpointStore.get

        def counting_get(self, key):
            reads.append(key)
            return get(self, key)

        monkeypatch.setattr(CheckpointStore, "get", counting_get)
        return reads

    def test_an_intervals_configurations_read_its_shared_blob_once(
            self, tmp_path, monkeypatch):
        reads = self._count_reads(monkeypatch)
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        engine.run(_sampled_specs())
        count = PLAN.num_intervals(SETTINGS.instructions)
        shared = [shared_key(WORKLOAD, SETTINGS, i) for i in range(count)]
        assert [key for key in reads if key in shared] == shared
        assert len(reads) == count * (1 + len(CONFIGS))

    def test_loaded_state_is_fresh_per_job_inside_a_run(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec = expand_sampled_spec(_sampled_specs()[2],
                                   checkpoint_dir=str(tmp_path))[1]
        window = PLAN.intervals(SETTINGS.instructions)[1]
        generate_checkpoints(store, WORKLOAD, SETTINGS,
                             [(spec.config_name, SETTINGS.sq_size, None)])
        with interval_record():
            first, first_window = load_interval_state(spec, window)
            second, second_window = load_interval_state(spec, window)
            held = checkpoints._RECORD.shared
        for a, b in ((first, second), (first, held), (second, held)):
            assert a.hierarchy is not b.hierarchy
            assert a.branch_unit is not b.branch_unit
            assert a.memory is not b.memory
            assert a.ssn_alloc is not b.ssn_alloc
        assert first.policy is not second.policy
        assert first_window is not second_window
        assert first_window == second_window == held.window
        assert shared_signature(first) == shared_signature(held)

    def _count_copies(self, monkeypatch):
        copies = []
        copy = checkpoints.SharedWarmState.copy

        def counting_copy(self):
            copies.append(self)
            return copy(self)

        monkeypatch.setattr(checkpoints.SharedWarmState, "copy",
                            counting_copy)
        return copies

    @pytest.mark.parametrize("configs", [1, len(CONFIGS)])
    def test_only_an_intervals_earlier_loads_copy_it(self, tmp_path,
                                                     monkeypatch, configs):
        copies = self._count_copies(monkeypatch)
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=tmp_path)
        engine.run(_sampled_specs()[:configs])
        count = PLAN.num_intervals(SETTINGS.instructions)
        assert len(copies) == count * (configs - 1)

    def test_a_configuration_added_to_a_cached_grid_copies_nothing(
            self, tmp_path, monkeypatch):
        copies = self._count_copies(monkeypatch)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "store")
        engine.run(_sampled_specs()[:2])
        copies.clear()
        engine.run(_sampled_specs())
        count = PLAN.num_intervals(SETTINGS.instructions)
        assert engine.last_run_stats["cache_hits"] == 2 * count
        assert copies == []

    def test_the_last_load_takes_the_decoded_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path)
        a, b = [expand_sampled_spec(spec, checkpoint_dir=str(tmp_path))[1]
                for spec in _sampled_specs()[:2]]
        window = PLAN.intervals(SETTINGS.instructions)[1]
        generate_checkpoints(store, WORKLOAD, SETTINGS,
                             [(config, SETTINGS.sq_size, None)
                              for config in CONFIGS[:2]])
        with interval_record() as record:
            record.expect([a, b])
            first, first_window = load_interval_state(a, window)
            facts = _window_facts(first_window, first)
            held = record.shared
            assert first.hierarchy is not held.hierarchy
            last, last_window = load_interval_state(b, window)
            assert last.hierarchy is held.hierarchy
            assert last.memory is held.memory
            assert last_window is held.window
            assert record.shared is None
            # The record lets go of the snapshot but keeps its facts.
            assert _window_facts(last_window, last) is facts
            # A load past the count (a retried job) decodes the blob again.
            again, _ = load_interval_state(b, window)
            assert again.hierarchy is not held.hierarchy
            assert record.shared is not None
        assert shared_signature(again) == shared_signature(first) \
            == shared_signature(last)

    def test_repair_with_the_record_warm(self, tmp_path):
        store = CheckpointStore(tmp_path)
        a, b = [expand_sampled_spec(spec, checkpoint_dir=str(tmp_path))
                for spec in _sampled_specs()[:2]]
        generate_checkpoints(store, WORKLOAD, SETTINGS,
                             [(config, SETTINGS.sq_size, None)
                              for config in CONFIGS[:2]])
        intact = [run_interval_job(spec).result.stats.as_dict()
                  for spec in (a[1], b[1], a[2])]
        with interval_record():
            assert run_interval_job(a[1]).result.stats.as_dict() == intact[0]
            for path in store.directory.glob("*.pkl"):
                path.write_bytes(path.read_bytes()[:16])
            # The record still holds interval 1; b's policy blob is
            # damaged, so its job takes the repair path.
            assert run_interval_job(b[1]).result.stats.as_dict() == intact[1]
            # Interval 2's shared blob is damaged too.
            assert run_interval_job(a[2]).result.stats.as_dict() == intact[2]
        key = policy_key(WORKLOAD, SETTINGS, (CONFIGS[1], SETTINGS.sq_size,
                                              None), 1)
        assert store.get(key) is not None
        assert store.get(shared_key(WORKLOAD, SETTINGS, 2)) is not None

    def test_no_record_outside_a_run(self, tmp_path):
        assert checkpoints._RECORD is None
        assert checkpoints.interval_facts() == {}
        with interval_record():
            outer = checkpoints._RECORD
            with interval_record():
                assert checkpoints._RECORD is not outer
            assert checkpoints._RECORD is outer
        assert checkpoints._RECORD is None


class TestSnapshotKeyMemo:
    def test_keys_are_derived_once(self):
        checkpoints._memoised_key.cache_clear()
        identity = ("indexed-3-fwd", SETTINGS.sq_size, None)
        first = (shared_key(WORKLOAD, SETTINGS, 3),
                 policy_key(WORKLOAD, SETTINGS, identity, 3))
        assert (checkpoints._derive_key(WORKLOAD, SETTINGS, 3, None),
                checkpoints._derive_key(WORKLOAD, SETTINGS, 3, identity)) \
            == first
        again = (shared_key(WORKLOAD, dataclasses.replace(SETTINGS), 3),
                 policy_key(WORKLOAD, SETTINGS, identity, 3))
        assert again == first
        assert checkpoints._memoised_key.cache_info().hits == 2

    def test_patched_fingerprints_and_schema_move_every_key(self,
                                                            monkeypatch):
        identity = ("indexed-3-fwd", SETTINGS.sq_size, None)
        current = (shared_key(WORKLOAD, SETTINGS, 0),
                   policy_key(WORKLOAD, SETTINGS, identity, 0))
        monkeypatch.setattr(fingerprint_module, "simulator_fingerprint",
                            lambda: "edited")
        moved = (shared_key(WORKLOAD, SETTINGS, 0),
                 policy_key(WORKLOAD, SETTINGS, identity, 0))
        assert moved[0] != current[0] and moved[1] != current[1]
        monkeypatch.setattr(checkpoints, "CHECKPOINT_SCHEMA_VERSION", 1)
        assert shared_key(WORKLOAD, SETTINGS, 0) not in (current[0], moved[0])
