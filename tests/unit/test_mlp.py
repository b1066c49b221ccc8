"""Unit tests for the non-blocking memory hierarchy (repro.memory.mlp).

``TestMSHRFile`` is the synapse32 ``MSHR_REVIEW.md`` checklist ported to
this model: basic allocation, allocation refused when full, CAM match hit
and miss, coalescing (word-mask offsets), retire freeing the entry, index
stability (first-fit priority encoding), and full -> retire -> alloc.

``TestDegenerateBlocking`` is the degeneracy anchor: ``mshr_entries=1``
with no non-blocking L2 and no prefetcher must be bit-identical to the
blocking :class:`~repro.memory.hierarchy.MemoryHierarchy` — checked as a
property over random access streams here, and end to end against the
golden file by ``tests/integration/test_golden_regression.py``'s MLP
counterpart.
"""

import pickle
import random

import pytest

from repro.memory import (
    MemoryHierarchy,
    MemoryHierarchyConfig,
    MLPConfig,
    MSHRFile,
    NonBlockingHierarchy,
    PrefetchConfig,
    StridePrefetcher,
    build_hierarchy,
)
from repro.pipeline.config import small_test_config
from repro.workloads.suites import build_workload


def mlp_config(**overrides) -> MLPConfig:
    params = dict(enabled=True, mshr_entries=4)
    params.update(overrides)
    return MLPConfig(**params)


def nonblocking(**overrides) -> NonBlockingHierarchy:
    hierarchy = build_hierarchy(MemoryHierarchyConfig(mlp=mlp_config(**overrides)))
    assert isinstance(hierarchy, NonBlockingHierarchy)
    return hierarchy


class TestMLPConfig:
    def test_disabled_by_default(self):
        assert MemoryHierarchyConfig().mlp.enabled is False
        assert type(build_hierarchy(MemoryHierarchyConfig())) is MemoryHierarchy

    def test_degenerate_mode_requires_blocking_features_off(self):
        with pytest.raises(ValueError):
            MLPConfig(enabled=True, mshr_entries=1, l2_enabled=True)
        with pytest.raises(ValueError):
            MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False,
                      prefetch=PrefetchConfig(enabled=True))
        MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False)  # valid

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MLPConfig(enabled=True, mshr_entries=0)

    def test_prefetch_validation(self):
        with pytest.raises(ValueError):
            PrefetchConfig(table_entries=3)
        with pytest.raises(ValueError):
            PrefetchConfig(degree=0)


class TestMSHRFile:
    """The synapse32 review's eight-case checklist."""

    def test_basic_allocation(self):
        mshr = MSHRFile(4)
        entry = mshr.alloc(0x1000, fill_cycle=100)
        assert entry is not None
        assert entry.index == 0
        assert entry.line == 0x1000 >> 6
        assert entry.fill_cycle == 100
        assert mshr.occupancy == 1
        assert mshr.demand_inflight == 1

    def test_alloc_refused_when_full(self):
        mshr = MSHRFile(2)
        assert mshr.alloc(0x1000, 100) is not None
        assert mshr.alloc(0x2000, 100) is not None
        assert mshr.full
        assert mshr.alloc(0x3000, 100) is None       # alloc_ready deasserted
        assert mshr.occupancy == 2

    def test_match_hit_same_line(self):
        mshr = MSHRFile(4)
        allocated = mshr.alloc(0x1000, 100)
        hit = mshr.match(0x1038)                     # same 64B line, last word
        assert hit is allocated

    def test_match_miss_different_line(self):
        mshr = MSHRFile(4)
        mshr.alloc(0x1000, 100)
        assert mshr.match(0x1040) is None            # adjacent line
        assert mshr.match(0x2000) is None

    def test_coalesce_records_word_offsets(self):
        mshr = MSHRFile(4)
        entry = mshr.alloc(0x1000, 100)              # word 0
        assert entry.word_mask == 0b1
        mshr.coalesce(entry, 0x1004)                 # word 1
        mshr.coalesce(entry, 0x103C)                 # word 15
        assert entry.word_mask == (1 << 15) | 0b11
        assert entry.coalesced == 2
        assert mshr.occupancy == 1                   # still one entry

    def test_retire_frees_entry(self):
        mshr = MSHRFile(2)
        entry = mshr.alloc(0x1000, 100)
        retired = mshr.retire(entry.index)
        assert retired is entry
        assert mshr.occupancy == 0
        assert mshr.match(0x1000) is None
        with pytest.raises(ValueError):
            mshr.retire(entry.index)                 # already invalid

    def test_index_stability_first_fit(self):
        """Lowest free index wins (priority encoding), and an entry's index
        is stable while peers retire around it."""
        mshr = MSHRFile(4)
        e0 = mshr.alloc(0x1000, 100)
        e1 = mshr.alloc(0x2000, 100)
        e2 = mshr.alloc(0x3000, 100)
        assert (e0.index, e1.index, e2.index) == (0, 1, 2)
        mshr.retire(e1.index)
        assert mshr.match(0x3000).index == 2         # survivor keeps its index
        e3 = mshr.alloc(0x4000, 100)
        assert e3.index == 1                         # lowest free, not next-up
        assert mshr.match(0x4000) is e3

    def test_full_retire_alloc_cycle(self):
        mshr = MSHRFile(2)
        e0 = mshr.alloc(0x1000, 100)
        mshr.alloc(0x2000, 110)
        assert mshr.alloc(0x3000, 120) is None
        mshr.retire(e0.index)
        again = mshr.alloc(0x3000, 120)
        assert again is not None and again.index == 0

    # -- beyond the checklist: invariants this model adds ---------------------

    def test_double_allocation_of_inflight_line_rejected(self):
        mshr = MSHRFile(4)
        mshr.alloc(0x1000, 100)
        with pytest.raises(ValueError):
            mshr.alloc(0x1010, 100)                  # same line: must coalesce

    def test_retire_due_orders_by_fill_then_index(self):
        mshr = MSHRFile(4)
        mshr.alloc(0x1000, 300)
        mshr.alloc(0x2000, 100)
        mshr.alloc(0x3000, 100)
        due = mshr.retire_due(200)
        assert [(entry.fill_cycle, entry.index) for entry in due] == [(100, 1), (100, 2)]
        assert mshr.occupancy == 1                   # fill at 300 still pending
        assert mshr.retire_due(99) == []

    def test_prefetch_promotion_on_coalesce(self):
        mshr = MSHRFile(4)
        entry = mshr.alloc(0x1000, 100, is_prefetch=True)
        assert mshr.demand_inflight == 0 and mshr.prefetch_inflight == 1
        mshr.coalesce(entry, 0x1008)
        assert not entry.is_prefetch
        assert mshr.demand_inflight == 1 and mshr.prefetch_inflight == 0


class TestStridePrefetcher:
    def test_detects_stride_after_confidence(self):
        prefetcher = StridePrefetcher(PrefetchConfig(enabled=True, confidence=2, degree=2))
        targets = []
        for i in range(6):
            targets = prefetcher.observe(0x400, 0x10000 + i * 64)
        assert targets == [0x10000 + 6 * 64, 0x10000 + 7 * 64]

    def test_no_prefetch_on_irregular_pattern(self):
        prefetcher = StridePrefetcher(PrefetchConfig(enabled=True))
        rng = random.Random(3)
        for _ in range(100):
            assert prefetcher.observe(0x400, rng.randrange(1 << 20) * 8) == []

    def test_zero_stride_never_prefetches(self):
        prefetcher = StridePrefetcher(PrefetchConfig(enabled=True, confidence=1))
        for _ in range(10):
            assert prefetcher.observe(0x400, 0x5000) == []


class TestNonBlockingHierarchy:
    def test_primary_miss_latency_matches_blocking_chain(self):
        hierarchy = nonblocking(mshr_entries=4, l2_enabled=False)
        config = hierarchy.config
        latency = hierarchy.load_access(0x10000, now=0, pc=1)
        # Cold miss: TLB penalty + L1 + L2 + memory, same as blocking.
        assert latency == (config.l1.latency + config.tlb.miss_penalty
                           + config.l2.latency + config.memory_latency)

    def test_secondary_miss_completes_at_fill(self):
        hierarchy = nonblocking()
        primary = hierarchy.load_access(0x10000, now=0, pc=1)
        fill = primary
        coalesced = hierarchy.load_access(0x10008, now=10, pc=2)
        assert coalesced == fill - 10
        assert hierarchy.mlp_stats.misses_coalesced == 1
        assert hierarchy.mshr.occupancy == 1

    def test_fill_installs_line_lazily(self):
        hierarchy = nonblocking()
        primary = hierarchy.load_access(0x10000, now=0, pc=1)
        assert not hierarchy.l1.lookup(0x10000)          # not installed at miss
        hit = hierarchy.load_access(0x10000, now=primary + 1, pc=1)
        assert hit == hierarchy.config.l1.latency        # fill landed -> L1 hit
        assert hierarchy.l1.lookup(0x10000)

    def test_would_block_only_when_full_and_unmatched(self):
        hierarchy = nonblocking(mshr_entries=2)
        hierarchy.load_access(0x10000, now=0, pc=1)
        assert not hierarchy.load_would_block(0x20000, 1)    # free entry left
        hierarchy.load_access(0x20000, now=1, pc=2)
        assert hierarchy.load_would_block(0x30000, 2)        # full, new line
        assert not hierarchy.load_would_block(0x10008, 2)    # coalescible
        hierarchy.l1.touch_line(0x40000)
        assert not hierarchy.load_would_block(0x40000, 2)    # resident

    def test_stall_clears_on_fill_cycle(self):
        hierarchy = nonblocking(mshr_entries=2)
        first = hierarchy.load_access(0x10000, now=0, pc=1)
        hierarchy.load_access(0x20000, now=0, pc=2)
        assert hierarchy.load_would_block(0x30000, first - 1)
        assert not hierarchy.load_would_block(0x30000, first)

    def test_mlp_average_counts_overlap(self):
        hierarchy = nonblocking(mshr_entries=4)
        hierarchy.load_access(0x10000, now=0, pc=1)
        hierarchy.load_access(0x20000, now=1, pc=2)
        hierarchy.load_access(0x30000, now=2, pc=3)
        stats = hierarchy.mlp_stats
        assert stats.demand_misses == 3
        assert stats.inflight_sum == 1 + 2 + 3
        assert stats.mlp_avg == 2.0
        assert stats.occupancy_peak == 3

    def test_prefetch_does_not_pollute_demand_stats(self):
        hierarchy = nonblocking(
            mshr_entries=8,
            prefetch=PrefetchConfig(enabled=True, confidence=1, degree=1))
        now = 0
        for i in range(4):                     # train + trigger prefetches
            hierarchy.load_access(0x10000 + i * 64, now, pc=0x40)
            now += 1
        issued = hierarchy.mlp_stats.prefetch_issued
        assert issued > 0
        assert hierarchy.stats.load_accesses == 4          # demand-only counter
        l1 = hierarchy.l1.stats
        assert l1.accesses == 4                            # lookups don't count

    def test_prefetch_never_claims_last_entry(self):
        hierarchy = nonblocking(
            mshr_entries=2,
            prefetch=PrefetchConfig(enabled=True, confidence=1, degree=4))
        hierarchy.load_access(0x10000, now=0, pc=0x40)
        hierarchy.load_access(0x10040, now=1, pc=0x40)     # stride trained
        assert hierarchy.mshr.free_entries == 0 or hierarchy.mshr.demand_inflight == 2
        assert hierarchy.mlp_stats.prefetch_issued == 0    # only 1 entry was free

    def test_prefetch_useful_scored_on_demand_hit(self):
        hierarchy = nonblocking(
            mshr_entries=8,
            prefetch=PrefetchConfig(enabled=True, confidence=1, degree=1))
        now = 0
        for i in range(16):
            hierarchy.load_access(0x10000 + i * 64, now, pc=0x40)
            now += 400                          # every fill lands in between
        stats = hierarchy.mlp_stats
        assert stats.prefetch_issued > 0
        assert stats.prefetch_useful > 0
        assert stats.prefetch_useful <= stats.prefetch_issued

    def test_reset_stats_clears_counters_not_state(self):
        hierarchy = nonblocking()
        hierarchy.load_access(0x10000, now=0, pc=1)
        hierarchy.reset_stats()
        assert hierarchy.mlp_stats.demand_misses == 0
        assert hierarchy.mshr.occupancy == 1               # in-flight state kept

    def test_drain_completes_outstanding_fills(self):
        hierarchy = nonblocking()
        hierarchy.load_access(0x10000, now=0, pc=1)
        hierarchy.drain()
        assert hierarchy.mshr.occupancy == 0
        assert hierarchy.l1.lookup(0x10000)

    def test_pickle_roundtrip_preserves_signature(self):
        hierarchy = nonblocking(
            prefetch=PrefetchConfig(enabled=True, confidence=1))
        for i in range(8):
            hierarchy.load_access(0x10000 + i * 64, now=i, pc=0x40)
        clone = pickle.loads(pickle.dumps(hierarchy))
        assert clone.state_signature() == hierarchy.state_signature()


class TestDegenerateBlocking:
    """mshr_entries=1 + no L2 + no prefetcher == the blocking hierarchy."""

    def degenerate(self) -> NonBlockingHierarchy:
        return nonblocking(mshr_entries=1, l2_enabled=False)

    def test_degenerate_is_marked_blocking(self):
        hierarchy = self.degenerate()
        assert not hierarchy.nonblocking
        assert not hierarchy.load_would_block(0x1000, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_streams_bit_identical(self, seed):
        blocking = MemoryHierarchy(MemoryHierarchyConfig())
        degenerate = self.degenerate()
        rng = random.Random(seed)
        for now in range(5000):
            addr = rng.randrange(0, 1 << 22)
            if rng.random() < 0.2:
                assert (blocking.store_touch(addr)
                        == degenerate.store_touch(addr))
            else:
                assert (blocking.load_latency(addr)
                        == degenerate.load_access(addr, now, pc=now & 1023))
        # Same latencies, same final tag/LRU state, same counters.
        assert degenerate.state_signature()[:3] == blocking.state_signature()
        for name in ("load_accesses", "store_accesses", "l1_misses",
                     "l2_misses", "tlb_misses"):
            assert getattr(degenerate.stats, name) == getattr(blocking.stats, name)

    def test_core_run_bit_identical_to_blocking(self):
        from repro.lsu.policies import IndexedSQPolicy
        from repro.pipeline.core import OutOfOrderCore

        trace = build_workload("gzip", instructions=3000, seed=5)
        results = []
        for mlp in (MLPConfig(),
                    MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False)):
            config = small_test_config(
                memory=MemoryHierarchyConfig(mlp=mlp))
            core = OutOfOrderCore(config, IndexedSQPolicy(sq_size=8, use_delay=True))
            result = core.run(trace, stats_warmup_fraction=0.25)
            # The config differs (by the mlp knob), so compare the payload.
            results.append((result.stats.as_dict(), result.extra))
        assert results[0] == results[1]


class TestCoreIntegration:
    def run_core(self, mlp: MLPConfig, workload: str = "swim",
                 instructions: int = 3000):
        from repro.lsu.policies import AssociativeStoreSetsPolicy
        from repro.pipeline.core import OutOfOrderCore

        trace = build_workload(workload, instructions=instructions, seed=5)
        config = small_test_config(memory=MemoryHierarchyConfig(mlp=mlp))
        core = OutOfOrderCore(config, AssociativeStoreSetsPolicy(sq_size=8, sq_latency=5))
        return core.run(trace, stats_warmup_fraction=0.0)

    def test_structural_stalls_reported_and_priced(self):
        # mcf's pointer-chasing working set keeps a 2-entry MSHR file on the
        # critical path; with 32 entries the same run never stalls.
        tight = self.run_core(MLPConfig(enabled=True, mshr_entries=2),
                              workload="mcf", instructions=8000)
        roomy = self.run_core(MLPConfig(enabled=True, mshr_entries=32),
                              workload="mcf", instructions=8000)
        assert tight.stats.mshr_stall_cycles > 0
        assert roomy.stats.mshr_stall_cycles == 0
        assert tight.stats.cycles > roomy.stats.cycles
        assert tight.stats.committed == roomy.stats.committed

    def test_mlp_counters_surface_in_stats_and_extra(self):
        result = self.run_core(MLPConfig(enabled=True, mshr_entries=8))
        stats = result.stats
        assert stats.mshr_modeled == 1
        assert stats.mshr_demand_misses > 0
        assert stats.mshr_occupancy >= 1
        assert stats.mlp_avg >= 1.0
        payload = stats.as_dict()
        assert payload["mlp_avg"] == stats.mlp_avg
        assert result.extra["mlp_avg"] == stats.mlp_avg
        assert result.extra["mshr_occupancy"] == float(stats.mshr_occupancy)

    def test_blocking_run_omits_mlp_keys(self):
        result = self.run_core(MLPConfig())
        payload = result.stats.as_dict()
        assert "mshr_modeled" not in payload
        assert "mlp_avg" not in payload
        assert "mlp_avg" not in result.extra

    def test_export_import_roundtrip_preserves_hierarchy(self):
        from repro.lsu.policies import IndexedSQPolicy
        from repro.pipeline.core import OutOfOrderCore

        mlp = MLPConfig(enabled=True, mshr_entries=8,
                        prefetch=PrefetchConfig(enabled=True, confidence=1))
        trace = build_workload("swim", instructions=2000, seed=5)
        config = small_test_config(memory=MemoryHierarchyConfig(mlp=mlp))
        core = OutOfOrderCore(config, IndexedSQPolicy(sq_size=8))
        core.run(trace, stats_warmup_fraction=0.0)
        state = pickle.loads(pickle.dumps(core.export_state()))
        adopted = OutOfOrderCore(config, IndexedSQPolicy(sq_size=8))
        adopted.import_state(state)
        assert adopted._mlp_hier is adopted.hierarchy
        assert (adopted.hierarchy.state_signature()
                == core.hierarchy.state_signature())
        assert adopted.hierarchy.mlp_stats.demand_misses == 0   # counters reset
