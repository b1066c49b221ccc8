"""Unit tests for the paper's prediction structures: SSN, FSP, SAT, DDP,
SVW (SSBF/SPCT), and the original Store Sets predictor."""

import dataclasses
import pickle

import pytest

from repro.core.ddp import DelayDistancePredictor
from repro.core.fsp import ForwardingStorePredictor
from repro.core.predictors import (
    DDPConfig,
    FSPConfig,
    PredictorSuiteConfig,
    SATConfig,
    StoreSetsConfig,
    SVWConfig,
)
from repro.core.sat import StoreAliasTable
from repro.core.ssn import SSNAllocator, sq_index
from repro.core.store_sets import StoreSetsPredictor
from repro.core.svw import SVWFilter, StorePCTable, StoreSequenceBloomFilter
from repro.harness.paper_data import (
    FIGURE5_ASSOCIATIVITIES,
    FIGURE5_CAPACITIES,
    FIGURE5_DDP_RATIOS,
)


# ---------------------------------------------------------------------------
# SSNs
# ---------------------------------------------------------------------------

class TestSSN:
    def test_sq_index_low_bits(self):
        assert sq_index(0, 64) == 0
        assert sq_index(64, 64) == 0
        assert sq_index(65, 64) == 1
        assert sq_index(130, 64) == 2

    def test_sq_index_requires_power_of_two(self):
        with pytest.raises(ValueError):
            sq_index(5, 48)

    def test_allocation_is_monotonic(self):
        alloc = SSNAllocator()
        ssns = [alloc.allocate() for _ in range(10)]
        assert ssns == list(range(1, 11))

    def test_commit_in_order(self):
        alloc = SSNAllocator()
        first = alloc.allocate()
        second = alloc.allocate()
        alloc.commit(first)
        alloc.commit(second)
        assert alloc.ssn_commit == second

    def test_commit_out_of_order_rejected(self):
        alloc = SSNAllocator()
        alloc.allocate()
        second = alloc.allocate()
        with pytest.raises(ValueError):
            alloc.commit(second)

    def test_inflight_tracking(self):
        # The in-flight stores are exactly the SSNs in (ssn_commit, ssn_rename].
        alloc = SSNAllocator()
        a = alloc.allocate()
        b = alloc.allocate()
        assert alloc.ssn_commit < a < b == alloc.ssn_rename
        assert alloc.ssn_rename - alloc.ssn_commit == 2
        alloc.commit(a)
        assert alloc.ssn_commit == a < b == alloc.ssn_rename
        assert alloc.ssn_rename - alloc.ssn_commit == 1

    def test_rewind_after_flush(self):
        alloc = SSNAllocator()
        a = alloc.allocate()
        alloc.allocate()
        alloc.allocate()
        alloc.rewind_rename(a)
        assert alloc.ssn_rename == a
        assert alloc.allocate() == a + 1

    def test_rewind_validation(self):
        alloc = SSNAllocator()
        a = alloc.allocate()
        alloc.commit(a)
        with pytest.raises(ValueError):
            alloc.rewind_rename(a - 1)
        with pytest.raises(ValueError):
            alloc.rewind_rename(a + 5)

    def test_wrap_detection(self):
        alloc = SSNAllocator(bits=4)
        wrapped = [alloc.allocate() for _ in range(33)]
        assert alloc.wraps == 2
        assert alloc.wrapped(16) and alloc.wrapped(32)
        assert not alloc.wrapped(15)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            SSNAllocator(bits=2)

    def test_reset(self):
        alloc = SSNAllocator()
        alloc.allocate()
        alloc.reset()
        assert alloc.ssn_rename == 0 and alloc.ssn_commit == 0


# ---------------------------------------------------------------------------
# FSP
# ---------------------------------------------------------------------------

def _fsp(entries=64, assoc=2) -> ForwardingStorePredictor:
    return ForwardingStorePredictor(FSPConfig(entries=entries, assoc=assoc))


class TestFSP:
    LOAD_PC = 0x1000
    STORE_PC = 0x2000

    def test_empty_lookup(self):
        fsp = _fsp()
        assert fsp.lookup(self.LOAD_PC) == []

    def test_insert_then_lookup(self):
        fsp = _fsp()
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        entries = fsp.lookup(self.LOAD_PC)
        assert len(entries) == 1
        assert entries[0].store_pc == fsp.partial_store_pc(self.STORE_PC)

    def test_associativity_limits_dependences(self):
        fsp = _fsp(assoc=2)
        for i in range(4):
            fsp.insert(self.LOAD_PC, self.STORE_PC + 4 * i)
        assert len(fsp.lookup(self.LOAD_PC)) == 2

    def test_strengthen_creates_when_missing(self):
        fsp = _fsp()
        fsp.strengthen(self.LOAD_PC, self.STORE_PC)
        assert len(fsp.lookup(self.LOAD_PC)) == 1

    def test_weaken_eventually_invalidates(self):
        fsp = _fsp()
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        # Insert sets the counter to positive_weight (8); 9 weakens clear it.
        for _ in range(9):
            fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert fsp.lookup(self.LOAD_PC) == []

    def test_training_ratio_respected(self):
        config = FSPConfig(entries=64, assoc=2, positive_weight=8, negative_weight=1)
        fsp = ForwardingStorePredictor(config)
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        for _ in range(7):
            fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert len(fsp.lookup(self.LOAD_PC)) == 1   # survives 7 negatives
        fsp.strengthen(self.LOAD_PC, self.STORE_PC)
        for _ in range(8):
            fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert len(fsp.lookup(self.LOAD_PC)) == 1   # one positive outweighs 8 negatives

    def test_insert_saturates_counter(self):
        # positive_weight 8 does not fit a 3-bit counter: insert clamps to 7,
        # on the invalid-way path and on the eviction path alike.
        config = FSPConfig(entries=8, assoc=2, counter_bits=3,
                           positive_weight=8, negative_weight=1)
        fsp = ForwardingStorePredictor(config)
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        assert [e.counter for e in fsp.lookup(self.LOAD_PC)] == [7]
        for _ in range(7):
            fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert len(fsp.lookup(self.LOAD_PC)) == 1
        fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert fsp.lookup(self.LOAD_PC) == []

        for i in range(3):
            fsp.insert(self.LOAD_PC, self.STORE_PC + 4 * i)
        assert fsp.stats.evictions == 1
        assert [e.counter for e in fsp.lookup(self.LOAD_PC)] == [7, 7]

    def test_lookup_does_not_create_sets(self):
        fsp = _fsp()
        fsp.lookup(self.LOAD_PC)
        fsp.weaken_all(self.LOAD_PC)
        fsp.weaken(self.LOAD_PC, self.STORE_PC)
        assert fsp._sets == {}
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        assert len(fsp._sets) == 1

    def test_weaken_all(self):
        fsp = _fsp()
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        fsp.insert(self.LOAD_PC, self.STORE_PC + 4)
        for _ in range(9):
            fsp.weaken_all(self.LOAD_PC)
        assert fsp.lookup(self.LOAD_PC) == []

    def test_eviction_prefers_weakest(self):
        fsp = _fsp(assoc=2)
        strong = self.STORE_PC
        weak = self.STORE_PC + 4
        fsp.insert(self.LOAD_PC, strong)
        fsp.strengthen(self.LOAD_PC, strong)
        fsp.insert(self.LOAD_PC, weak)
        fsp.weaken(self.LOAD_PC, weak)
        newcomer = self.STORE_PC + 8
        fsp.insert(self.LOAD_PC, newcomer)
        partials = {e.store_pc for e in fsp.lookup(self.LOAD_PC)}
        assert fsp.partial_store_pc(strong) in partials
        assert fsp.partial_store_pc(newcomer) in partials

    def test_different_loads_do_not_interfere(self):
        fsp = _fsp(entries=256, assoc=2)
        other_load = self.LOAD_PC + 4
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        assert fsp.lookup(other_load) == []

    def test_invalidate_all(self):
        fsp = _fsp()
        fsp.insert(self.LOAD_PC, self.STORE_PC)
        fsp.invalidate_all()
        assert fsp.occupancy() == 0

    def test_storage_bits_matches_paper_scale(self):
        # Paper: 4K-entry FSP with 1B tags, 1B store PCs, 4-bit counters ~ 10KB.
        fsp = ForwardingStorePredictor(FSPConfig())
        assert 8 * 9 * 1024 <= fsp.storage_bits() <= 8 * 11 * 1024

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FSPConfig(entries=1000)
        with pytest.raises(ValueError):
            FSPConfig(entries=64, assoc=3)


# ---------------------------------------------------------------------------
# SAT
# ---------------------------------------------------------------------------

class TestSAT:
    def test_untagged_lookup_default_zero(self):
        sat = StoreAliasTable()
        assert sat.lookup(0x1234) == 0

    def test_update_then_lookup(self):
        sat = StoreAliasTable()
        sat.update(0x2000, 42)
        assert sat.lookup(0x2000) == 42

    def test_aliasing_overwrites(self):
        sat = StoreAliasTable(SATConfig(entries=16))
        pc_a = 0x2000
        pc_b = pc_a + 16 * 4        # same index (untagged)
        sat.update(pc_a, 10)
        sat.update(pc_b, 20)
        assert sat.lookup(pc_a) == 20

    def test_log_repair(self):
        sat = StoreAliasTable()
        sat.update(0x2000, 10)
        undo = sat.update(0x2000, 20)
        sat.undo(undo)
        assert sat.lookup(0x2000) == 10

    def test_log_repair_youngest_first_restores_exactly(self):
        sat = StoreAliasTable(SATConfig(entries=16))
        sat.update(0x2000, 5)
        before = sat.state_signature()
        pc_alias = 0x2000 + 16 * 4        # same index as 0x2000
        undos = [sat.update(pc, ssn)
                 for pc, ssn in ((0x2000, 6), (0x2004, 7), (pc_alias, 8))]
        for record in reversed(undos):
            sat.undo(record)
        assert sat.state_signature() == before
        assert sat.stats.undos == 3

    def test_stats_count_operations(self):
        sat = StoreAliasTable()
        record = sat.update(0x2000, 1)
        sat.lookup(0x2000)
        sat.lookup_partial(sat.index_of(0x2000))
        sat.undo(record)
        assert (sat.stats.updates, sat.stats.lookups, sat.stats.undos) == (1, 2, 1)

    def test_copy_from_takes_entries_and_counters(self):
        source = StoreAliasTable()
        source.update(0x2000, 9)
        target = StoreAliasTable()
        target.copy_from(source)
        assert target.state_signature() == source.state_signature()
        assert target.stats == source.stats and target.stats is not source.stats
        target.update(0x2000, 10)
        assert source.stats.updates == 1
        assert source.lookup(0x2000) == 9

    def test_lookup_partial_matches_lookup(self):
        sat = StoreAliasTable()
        sat.update(0x2000, 7)
        partial = (0x2000 >> 2) & (sat.config.entries - 1)
        assert sat.lookup_partial(partial) == 7

    def test_clear(self):
        sat = StoreAliasTable()
        sat.update(0x2000, 7)
        sat.clear()
        assert sat.lookup(0x2000) == 0

    def test_storage_bits(self):
        # 256 entries of 16-bit SSNs = 512 bytes (paper Section 4.1).
        assert StoreAliasTable().storage_bits(16) == 512 * 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SATConfig(entries=100)
        with pytest.raises(ValueError):
            SATConfig(repair="magic")
        with pytest.raises(ValueError):
            SATConfig(repair="checkpoint")


# ---------------------------------------------------------------------------
# DDP
# ---------------------------------------------------------------------------

def _ddp(sq_size=64, **kwargs) -> DelayDistancePredictor:
    return DelayDistancePredictor(DDPConfig(entries=64, assoc=2, **kwargs), sq_size=sq_size)


class TestDDP:
    LOAD_PC = 0x3000

    def test_no_entry_no_delay(self):
        assert _ddp().predict_distance(self.LOAD_PC) is None

    def test_below_threshold_no_delay(self):
        ddp = _ddp(counter_threshold=8, positive_weight=4)
        ddp.train_wrong_prediction(self.LOAD_PC, 5)
        assert ddp.predict_distance(self.LOAD_PC) is None

    def test_delay_after_repeated_wrong_predictions(self):
        ddp = _ddp(counter_threshold=8, positive_weight=4)
        ddp.train_wrong_prediction(self.LOAD_PC, 5)
        ddp.train_wrong_prediction(self.LOAD_PC, 5)
        assert ddp.predict_distance(self.LOAD_PC) == 5

    def test_learns_minimum_distance(self):
        ddp = _ddp()
        ddp.train_wrong_prediction(self.LOAD_PC, 10)
        ddp.train_wrong_prediction(self.LOAD_PC, 3)
        ddp.train_wrong_prediction(self.LOAD_PC, 30)
        assert ddp.predict_distance(self.LOAD_PC) == 3

    def test_distance_at_least_sq_size_means_no_delay(self):
        ddp = _ddp(sq_size=64)
        for _ in range(4):
            ddp.train_wrong_prediction(self.LOAD_PC, 100)
        assert ddp.predict_distance(self.LOAD_PC) is None

    def test_correct_predictions_unlearn_delay(self):
        ddp = _ddp(counter_threshold=8, positive_weight=4, negative_weight=1)
        ddp.train_wrong_prediction(self.LOAD_PC, 5)
        ddp.train_wrong_prediction(self.LOAD_PC, 5)
        assert ddp.predict_distance(self.LOAD_PC) is not None
        for _ in range(16):
            ddp.train_correct_prediction(self.LOAD_PC)
        assert ddp.predict_distance(self.LOAD_PC) is None

    def test_future_field_allows_distance_unlearning(self):
        ddp = _ddp(future_interval=4)
        for _ in range(3):
            ddp.train_wrong_prediction(self.LOAD_PC, 2)
        # Subsequent instances observe a larger distance; after enough
        # promotions the small distance is forgotten.
        for _ in range(12):
            ddp.train_wrong_prediction(self.LOAD_PC, 40)
        assert ddp.predict_distance(self.LOAD_PC) == 40

    def test_delay_ssn_computation(self):
        ddp = _ddp()
        ddp.train_wrong_prediction(self.LOAD_PC, 4)
        ddp.train_wrong_prediction(self.LOAD_PC, 4)
        assert ddp.delay_ssn(self.LOAD_PC, ssn_rename=100) == 96

    def test_delay_ssn_never_negative(self):
        ddp = _ddp()
        ddp.train_wrong_prediction(self.LOAD_PC, 10)
        ddp.train_wrong_prediction(self.LOAD_PC, 10)
        assert ddp.delay_ssn(self.LOAD_PC, ssn_rename=3) == 0

    def test_training_correct_on_unknown_pc_is_noop(self):
        ddp = _ddp()
        ddp.train_correct_prediction(self.LOAD_PC)
        assert ddp.occupancy() == 0

    def test_prediction_does_not_create_sets(self):
        ddp = _ddp()
        ddp.delay_ssn(self.LOAD_PC, ssn_rename=10)
        ddp.train_correct_prediction(self.LOAD_PC)
        assert ddp._sets == {}
        ddp.train_wrong_prediction(self.LOAD_PC, 3)
        assert len(ddp._sets) == 1

    def test_invalidate_all(self):
        ddp = _ddp()
        ddp.train_wrong_prediction(self.LOAD_PC, 3)
        ddp.invalidate_all()
        assert ddp.occupancy() == 0

    def test_storage_bits_matches_paper_scale(self):
        # Paper: 4K-entry DDP ~ 12KB including tags.
        ddp = DelayDistancePredictor(DDPConfig(), sq_size=64)
        assert 8 * 10 * 1024 <= ddp.storage_bits() <= 8 * 14 * 1024

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DDPConfig(entries=100)
        with pytest.raises(ValueError):
            DDPConfig(counter_bits=2, counter_threshold=9)
        with pytest.raises(ValueError):
            DelayDistancePredictor(DDPConfig(), sq_size=48)


# ---------------------------------------------------------------------------
# SVW structures
# ---------------------------------------------------------------------------

class TestSSBF:
    def test_lookup_default_zero(self):
        assert StoreSequenceBloomFilter(entries=64).lookup(0x1000, 8) == 0

    def test_update_lookup(self):
        ssbf = StoreSequenceBloomFilter(entries=64)
        ssbf.update(0x1000, 8, 17)
        assert ssbf.lookup(0x1000, 8) == 17
        assert ssbf.lookup(0x1004, 4) == 17

    def test_partial_overlap_detected(self):
        ssbf = StoreSequenceBloomFilter(entries=256)
        ssbf.update(0x1004, 4, 9)
        assert ssbf.lookup(0x1000, 8) == 9

    def test_youngest_wins(self):
        ssbf = StoreSequenceBloomFilter(entries=256)
        ssbf.update(0x1000, 8, 5)
        ssbf.update(0x1000, 4, 11)
        assert ssbf.lookup(0x1006, 1) == 5
        assert ssbf.lookup(0x1000, 8) == 11

    def test_aliasing_is_conservative(self):
        ssbf = StoreSequenceBloomFilter(entries=16)
        ssbf.update(0x1000, 1, 50)
        # An aliasing address reports the aliased (younger) SSN -> only extra
        # re-executions, never missed ones.
        assert ssbf.lookup(0x1000 + 16, 1) == 50

    def test_clear(self):
        ssbf = StoreSequenceBloomFilter(entries=64)
        ssbf.update(0x1000, 8, 5)
        ssbf.clear()
        assert ssbf.lookup(0x1000, 8) == 0

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            StoreSequenceBloomFilter(entries=100)


class TestSPCT:
    def test_update_lookup(self):
        spct = StorePCTable(entries=64)
        spct.update(0x1000, 8, 0x4400)
        assert spct.lookup(0x1000, 8) == 0x4400

    def test_default_zero(self):
        assert StorePCTable(entries=64).lookup(0x1000, 1) == 0

    def test_clear(self):
        spct = StorePCTable(entries=64)
        spct.update(0x1000, 1, 0x4400)
        spct.clear()
        assert spct.lookup(0x1000, 1) == 0


class TestSVWFilter:
    def test_no_reexecution_when_no_newer_store(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=256, spct_entries=256))
        svw.store_committed(0x1000, 8, ssn=5, store_pc=0x4000)
        assert svw.needs_reexecution(0x1000, 8, load_svw_ssn=5) is False

    def test_reexecution_when_vulnerable_store_committed(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=256, spct_entries=256))
        svw.store_committed(0x1000, 8, ssn=9, store_pc=0x4000)
        assert svw.needs_reexecution(0x1000, 8, load_svw_ssn=5) is True

    def test_unrelated_address_not_reexecuted(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=2048, spct_entries=2048))
        svw.store_committed(0x1000, 8, ssn=9, store_pc=0x4000)
        assert svw.needs_reexecution(0x1010, 8, load_svw_ssn=0) is False

    def test_last_writer(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=256, spct_entries=256))
        svw.store_committed(0x1000, 8, ssn=5, store_pc=0x4000)
        svw.store_committed(0x1004, 4, ssn=9, store_pc=0x4400)
        ssn, pc = svw.last_writer(0x1000, 8)
        assert ssn == 9 and pc == 0x4400

    def test_last_writer_unwritten(self):
        svw = SVWFilter()
        assert svw.last_writer(0x9000, 8) == (0, 0)

    def test_stats(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=256, spct_entries=256))
        svw.store_committed(0x1000, 8, ssn=9, store_pc=0x4000)
        svw.needs_reexecution(0x1000, 8, 0)
        svw.needs_reexecution(0x1010, 8, 0)
        assert svw.stats.loads_checked == 2
        assert svw.stats.loads_reexecuted == 1
        assert svw.stats.reexecution_rate == pytest.approx(0.5)

    def test_clear(self):
        svw = SVWFilter(SVWConfig(ssbf_entries=256, spct_entries=256))
        svw.store_committed(0x1000, 8, ssn=9, store_pc=0x4000)
        svw.clear()
        assert svw.needs_reexecution(0x1000, 8, 0) is False


# ---------------------------------------------------------------------------
# Original Store Sets
# ---------------------------------------------------------------------------

class TestStoreSets:
    LOAD_PC = 0x5000
    STORE_PC = 0x6000

    def test_untrained_no_dependence(self):
        predictor = StoreSetsPredictor()
        assert predictor.load_renamed(self.LOAD_PC) is None

    def test_violation_creates_set(self):
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        assert predictor.ssid_of(self.LOAD_PC) == predictor.ssid_of(self.STORE_PC)
        assert predictor.ssid_of(self.LOAD_PC) >= 0

    def test_load_waits_for_last_fetched_store(self):
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.store_renamed(self.STORE_PC, ssn=7)
        assert predictor.load_renamed(self.LOAD_PC) == 7

    def test_store_store_serialisation(self):
        predictor = StoreSetsPredictor()
        other_store = self.STORE_PC + 4
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.train_violation(self.LOAD_PC, other_store)
        predictor.store_renamed(self.STORE_PC, ssn=7)
        previous = predictor.store_renamed(other_store, ssn=9)
        assert previous == 7

    def test_set_merge(self):
        predictor = StoreSetsPredictor()
        load_b = self.LOAD_PC + 4
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.train_violation(load_b, self.STORE_PC + 4)
        predictor.train_violation(self.LOAD_PC, self.STORE_PC + 4)
        assert predictor.ssid_of(self.LOAD_PC) == predictor.ssid_of(self.STORE_PC + 4)

    def test_store_commit_clears_lfst(self):
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.store_renamed(self.STORE_PC, ssn=7)
        predictor.store_committed(self.STORE_PC, ssn=7)
        assert predictor.load_renamed(self.LOAD_PC) is None

    def test_squash_restores_the_previous_store(self):
        """Squashes run youngest first; each puts back what its rename
        replaced, so the LFST ends as before the squashed renames."""
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.store_renamed(self.STORE_PC, ssn=7)
        previous = predictor.store_renamed(self.STORE_PC, ssn=9)
        predictor.store_squashed(self.STORE_PC, 9, previous)
        assert predictor.load_renamed(self.LOAD_PC) == 7
        predictor.store_squashed(self.STORE_PC, 7, 0)
        assert predictor.load_renamed(self.LOAD_PC) is None

    def test_squash_leaves_a_newer_lfst_entry(self):
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.store_renamed(self.STORE_PC, ssn=7)
        predictor.store_renamed(self.STORE_PC, ssn=9)
        predictor.store_squashed(self.STORE_PC, 7, 0)
        assert predictor.load_renamed(self.LOAD_PC) == 9

    def test_copy_from_is_an_independent_equal_copy(self):
        source = StoreSetsPredictor()
        source.train_violation(self.LOAD_PC, self.STORE_PC)
        source.store_renamed(self.STORE_PC, ssn=7)
        copy = StoreSetsPredictor()
        copy.copy_from(source)
        assert pickle.dumps(copy) == pickle.dumps(source)
        source.store_renamed(self.STORE_PC, ssn=9)
        assert copy.load_renamed(self.LOAD_PC) == 7

    def test_clear(self):
        predictor = StoreSetsPredictor()
        predictor.train_violation(self.LOAD_PC, self.STORE_PC)
        predictor.clear()
        assert predictor.ssid_of(self.LOAD_PC) == -1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StoreSetsConfig(ssit_entries=1000)


# ---------------------------------------------------------------------------
# Predictor suite config helpers
# ---------------------------------------------------------------------------

#: Off-default values in every field, none of them a Figure 5 sweep point,
#: so a variant that rebuilt a component from its defaults, or dropped a
#: field, would show.
_OFF_DEFAULT_SUITE = PredictorSuiteConfig(
    fsp=FSPConfig(entries=16384, assoc=16, tag_bits=10, store_pc_bits=6,
                  counter_bits=3, positive_weight=5, negative_weight=2),
    sat=SATConfig(entries=128, repair="none"),
    ddp=DDPConfig(entries=16384, assoc=4, tag_bits=6, counter_bits=5,
                  counter_threshold=12, positive_weight=3, negative_weight=2,
                  future_interval=4),
    svw=SVWConfig(ssbf_entries=1024, spct_entries=512, ssn_bits=12, banks=4),
    store_sets=StoreSetsConfig(ssit_entries=512, lfst_entries=128,
                               counter_bits=3))


def _field_changes(before, after):
    """``{(component, field): new value}`` for every field that differs."""
    changes = {}
    for component in dataclasses.fields(before):
        old = getattr(before, component.name)
        new = getattr(after, component.name)
        for item in dataclasses.fields(old):
            if getattr(old, item.name) != getattr(new, item.name):
                changes[(component.name, item.name)] = getattr(new, item.name)
    return changes


class TestPredictorSuiteConfig:
    def test_capacity_variants_change_only_the_entries(self):
        for entries in FIGURE5_CAPACITIES:
            variant = _OFF_DEFAULT_SUITE.scaled_fsp_ddp(entries)
            assert _field_changes(_OFF_DEFAULT_SUITE, variant) == {
                ("fsp", "entries"): entries, ("ddp", "entries"): entries}

    def test_associativity_variants_change_only_the_fsp_ways(self):
        for assoc in FIGURE5_ASSOCIATIVITIES:
            variant = _OFF_DEFAULT_SUITE.with_fsp_assoc(assoc)
            assert _field_changes(_OFF_DEFAULT_SUITE, variant) == {
                ("fsp", "assoc"): assoc}

    def test_ratio_variants_change_only_the_ddp_weights(self):
        for positive, negative in FIGURE5_DDP_RATIOS:
            variant = _OFF_DEFAULT_SUITE.with_ddp_ratio(positive, negative)
            assert _field_changes(_OFF_DEFAULT_SUITE, variant) == {
                ("ddp", "positive_weight"): positive,
                ("ddp", "negative_weight"): negative}

    def test_scaled_fsp_ddp(self):
        base = PredictorSuiteConfig()
        scaled = base.scaled_fsp_ddp(512)
        assert scaled.fsp.entries == 512
        assert scaled.ddp.entries == 512
        assert scaled.fsp.assoc == base.fsp.assoc

    def test_with_fsp_assoc(self):
        config = PredictorSuiteConfig().with_fsp_assoc(8)
        assert config.fsp.assoc == 8
        assert config.fsp.entries == 4096

    def test_with_ddp_ratio(self):
        config = PredictorSuiteConfig().with_ddp_ratio(8, 1)
        assert config.ddp.positive_weight == 8
        assert config.ddp.negative_weight == 1

    def test_defaults_match_paper(self):
        config = PredictorSuiteConfig()
        assert config.fsp.entries == 4096 and config.fsp.assoc == 2
        assert config.ddp.entries == 4096 and config.ddp.assoc == 2
        assert config.sat.entries == 256 and config.sat.repair == "log"
        assert config.svw.ssbf_entries == 2048 and config.svw.ssn_bits == 16
        assert config.fsp.positive_weight == 8 and config.fsp.negative_weight == 1
        assert config.ddp.positive_weight == 4 and config.ddp.negative_weight == 1
