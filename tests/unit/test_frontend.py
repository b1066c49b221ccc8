"""Unit tests for branch predictors, BTB, and RAS."""

import pytest

from repro.frontend.branch_predictor import (
    BimodalPredictor,
    BranchPredictorConfig,
    BranchUnit,
    GSharePredictor,
    HybridPredictor,
    _CounterTable,
)
from repro.frontend.btb import BranchTargetBuffer, BTBConfig
from repro.frontend.ras import ReturnAddressStack


class TestSaturatingCounter:
    """The two-bit counters behind the bimodal, gshare and chooser tables."""

    def test_starts_at_weak_boundary(self):
        table = _CounterTable(entries=4, bits=2)
        assert table.state_signature() == (2, 2, 2, 2)
        assert table.predict(0)

    def test_saturates_high(self):
        table = _CounterTable(entries=4, bits=2)
        for _ in range(10):
            table.update(1, True)
        assert table.state_signature() == (2, 3, 2, 2)

    def test_saturates_low(self):
        table = _CounterTable(entries=4, bits=2)
        for _ in range(10):
            table.update(1, False)
        assert table.state_signature() == (2, 0, 2, 2)
        assert not table.predict(1)

    def test_update_direction(self):
        table = _CounterTable(entries=4, bits=2)
        table.update(0, False)
        assert table.state_signature()[0] == 1 and not table.predict(0)
        table.update(0, True)
        assert table.state_signature()[0] == 2 and table.predict(0)

    def test_index_wraps_to_table_size(self):
        table = _CounterTable(entries=4, bits=2)
        table.update(5, False)
        assert table.state_signature() == (2, 1, 2, 2)
        assert not table.predict(1)


class TestBimodal:
    def test_learns_taken(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(0x400, True)
        assert predictor.predict(0x400) is True

    def test_learns_not_taken(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(0x400, False)
        assert predictor.predict(0x400) is False

    def test_independent_pcs(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(0x400, True)
            predictor.update(0x404, False)
        assert predictor.predict(0x400) is True
        assert predictor.predict(0x404) is False


class TestGShare:
    def test_learns_pattern_with_history(self):
        predictor = GSharePredictor(entries=1024, history_bits=4)
        # Alternating pattern T N T N ... becomes predictable with history.
        outcomes = [bool(i % 2) for i in range(200)]
        correct = 0
        for outcome in outcomes:
            if predictor.predict(0x400) == outcome:
                correct += 1
            predictor.update(0x400, outcome)
        # The tail of the run should be predicted nearly perfectly.
        tail_correct = 0
        for outcome in outcomes:
            if predictor.predict(0x400) == outcome:
                tail_correct += 1
            predictor.update(0x400, outcome)
        assert tail_correct > 190

    def test_history_updates(self):
        predictor = GSharePredictor(history_bits=4)
        predictor.update(0x400, True)
        predictor.update(0x400, False)
        assert predictor.history == 0b10


class TestHybrid:
    def test_biased_branch_learned(self):
        predictor = HybridPredictor()
        for _ in range(8):
            predictor.update(0x400, True)
        assert predictor.predict(0x400) is True

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(bimodal_entries=1000)
        with pytest.raises(ValueError):
            BranchPredictorConfig(history_bits=0)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(BTBConfig(entries=64, assoc=4))
        assert btb.lookup(0x400) is None
        btb.insert(0x400, 0x800)
        assert btb.lookup(0x400) == 0x800

    def test_update_existing_target(self):
        btb = BranchTargetBuffer()
        btb.insert(0x400, 0x800)
        btb.insert(0x400, 0x900)
        assert btb.lookup(0x400) == 0x900

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(BTBConfig(entries=8, assoc=2))
        set_stride = 4 * (8 // 2)   # PCs that map to the same set
        pcs = [0x400 + i * set_stride for i in range(3)]
        for pc in pcs:
            btb.insert(pc, pc + 64)
        assert btb.lookup(pcs[0]) is None
        assert btb.lookup(pcs[1]) == pcs[1] + 64
        assert btb.lookup(pcs[2]) == pcs[2] + 64

    def test_hit_rate(self):
        btb = BranchTargetBuffer()
        btb.insert(0x400, 0x800)
        btb.lookup(0x400)
        btb.lookup(0x404)
        assert btb.hit_rate == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BTBConfig(entries=10, assoc=4)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x400)
        ras.push(0x500)
        assert ras.pop() == 0x500
        assert ras.pop() == 0x400

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(depth=4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_clear(self):
        ras = ReturnAddressStack()
        ras.push(1)
        ras.clear()
        assert len(ras) == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(depth=0)


class TestBranchUnit:
    def test_well_predicted_loop_branch(self):
        unit = BranchUnit()
        mispredicts = 0
        for _ in range(50):
            if unit.predict_and_resolve(0x400, taken=True, target=0x300):
                mispredicts += 1
        # After warm-up the always-taken branch with a stable target is predicted.
        assert mispredicts <= 3

    def test_never_taken_branch(self):
        unit = BranchUnit()
        for _ in range(10):
            unit.predict_and_resolve(0x400, taken=False, target=None)
        assert unit.predict_and_resolve(0x400, taken=False, target=None) is False

    def test_call_return_pair_uses_ras(self):
        unit = BranchUnit()
        mispredicted_returns = 0
        for _ in range(20):
            unit.predict_and_resolve(0x400, taken=True, target=0x800, is_call=True)
            if unit.predict_and_resolve(0x880, taken=True, target=0x404, is_return=True):
                mispredicted_returns += 1
        assert mispredicted_returns <= 2

    def test_misprediction_rate(self):
        unit = BranchUnit()
        for _ in range(10):
            unit.predict_and_resolve(0x400, taken=True, target=0x800)
        assert 0.0 <= unit.misprediction_rate <= 1.0
        assert unit.predictions == 10
