"""Unit tests for the trace ISA: micro-ops, registers, trace statistics."""

import pickle

import pytest

from repro.isa.plane import EncodedOps, encode_uops
from repro.isa.registers import (
    FP_REG_COUNT,
    INT_REG_COUNT,
    TOTAL_REG_COUNT,
    validate_reg,
)
from repro.isa.uop import (
    DEFAULT_LATENCIES,
    MemAccess,
    MicroOp,
    OpClass,
    make_alu,
    make_branch,
    make_load,
    make_store,
)


# ---------------------------------------------------------------------------
# OpClass
# ---------------------------------------------------------------------------

class TestOpClass:
    def test_load_predicates(self):
        assert OpClass.LOAD.is_load
        assert OpClass.LOAD.is_memory
        assert not OpClass.LOAD.is_store
        assert not OpClass.LOAD.is_branch

    def test_store_predicates(self):
        assert OpClass.STORE.is_store
        assert OpClass.STORE.is_memory
        assert not OpClass.STORE.is_load

    def test_branch_predicates(self):
        assert OpClass.BRANCH.is_branch
        assert not OpClass.BRANCH.is_memory

    def test_fp_classification(self):
        assert OpClass.FP_ALU.is_fp
        assert OpClass.FP_MUL.is_fp
        assert OpClass.FP_DIV.is_fp
        assert not OpClass.INT_ALU.is_fp

    def test_int_classification(self):
        assert OpClass.INT_ALU.is_int
        assert OpClass.INT_MUL.is_int
        assert not OpClass.FP_ALU.is_int

    def test_every_class_has_latency(self):
        for op_class in OpClass:
            assert op_class in DEFAULT_LATENCIES
            assert DEFAULT_LATENCIES[op_class] >= 1


# ---------------------------------------------------------------------------
# MemAccess
# ---------------------------------------------------------------------------

class TestMemAccess:
    def test_valid_sizes(self):
        for size in (1, 2, 4, 8):
            access = MemAccess(addr=0x1000, size=size)
            assert access.size == size

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(addr=0x1000, size=3)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(addr=-8, size=8)

    def test_value_width_checked(self):
        with pytest.raises(ValueError):
            MemAccess(addr=0, size=1, value=256)
        MemAccess(addr=0, size=1, value=255)

    @pytest.mark.parametrize("size", (1, 2, 4, 8))
    def test_store_value_fits_access_width(self, size):
        limit = 1 << (8 * size)
        MemAccess(addr=0, size=size, value=limit - 1)
        with pytest.raises(ValueError):
            MemAccess(addr=0, size=size, value=limit)

    def test_negative_store_value_rejected(self):
        with pytest.raises(ValueError):
            MemAccess(addr=0, size=8, value=-1)


# ---------------------------------------------------------------------------
# MicroOp
# ---------------------------------------------------------------------------

class TestMicroOp:
    def test_load_requires_mem(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.LOAD, dest=1)

    def test_store_requires_value(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.STORE, mem=MemAccess(addr=8, size=8))

    def test_alu_must_not_carry_mem(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.INT_ALU, dest=1, mem=MemAccess(addr=8, size=8))

    def test_taken_branch_requires_target(self):
        with pytest.raises(ValueError):
            MicroOp(pc=0x400, op_class=OpClass.BRANCH, is_taken=True)

    def test_make_load(self):
        uop = make_load(0x400, dest=3, addr=0x1000, size=4)
        assert uop.is_load and uop.dest == 3 and uop.addr == 0x1000 and uop.size == 4

    def test_make_store(self):
        uop = make_store(0x404, addr=0x1000, value=0xAB, size=1)
        assert uop.is_store and uop.mem.value == 0xAB

    def test_make_alu(self):
        uop = make_alu(0x408, dest=5, srcs=(1, 2))
        assert uop.op_class is OpClass.INT_ALU and uop.srcs == (1, 2)

    def test_make_branch_default_target(self):
        uop = make_branch(0x40C, taken=True)
        assert uop.is_branch and uop.is_taken and uop.target is not None

    def test_negative_dest_rejected(self):
        with pytest.raises(ValueError):
            make_alu(0x400, dest=-1)

    def test_addr_and_size_absent_without_mem(self):
        uop = make_alu(0x400, dest=1)
        assert uop.addr is None and uop.size is None

    @pytest.mark.parametrize("op_class", list(OpClass), ids=lambda c: c.name)
    def test_predicates_agree_with_op_class(self, op_class):
        """The predicates a micro-op sets once at construction match its
        class's own."""
        mem = None
        if op_class is OpClass.LOAD:
            mem = MemAccess(addr=0x1000, size=8)
        elif op_class is OpClass.STORE:
            mem = MemAccess(addr=0x1000, size=8, value=0)
        uop = MicroOp(pc=0x400, op_class=op_class, mem=mem)
        assert uop.is_load == op_class.is_load
        assert uop.is_store == op_class.is_store
        assert uop.is_memory == op_class.is_memory
        assert uop.is_branch == op_class.is_branch


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

class TestRegisters:
    def test_counts(self):
        assert TOTAL_REG_COUNT == INT_REG_COUNT + FP_REG_COUNT

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_reg(TOTAL_REG_COUNT)
        with pytest.raises(ValueError):
            validate_reg(-1)

    def test_validate_returns_index(self):
        assert validate_reg(0) == 0
        assert validate_reg(TOTAL_REG_COUNT - 1) == TOTAL_REG_COUNT - 1


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _small_trace() -> EncodedOps:
    return encode_uops([
        make_load(0x400, dest=1, addr=0x1000, size=8),
        make_alu(0x404, dest=2, srcs=(1,)),
        make_store(0x408, addr=0x1000, value=0x55, size=1, srcs=(2,)),
        make_branch(0x40C, taken=True, target=0x400, call=True),
        make_branch(0x410, taken=False),
    ], name="unit")


class TestTrace:
    def test_views_read_in_program_order(self):
        trace = _small_trace()
        assert len(trace) == 5
        assert trace[0].is_load and trace[2].is_store

    def test_truncated(self):
        trace = _small_trace()
        short = trace[:2]
        assert len(short) == 2 and len(trace) == 5
        assert short.name == trace.name
        assert list(short) == list(trace)[:2]

    def test_slicing_rejects_step(self):
        with pytest.raises(ValueError):
            _small_trace()[::2]

    def test_extend(self):
        trace = _small_trace()
        trace.extend(encode_uops([make_alu(0x500, dest=3)]))
        assert len(trace) == 6
        assert trace[5] == make_alu(0x500, dest=3)

    def test_serialisation_roundtrip(self):
        trace = _small_trace()
        restored = pickle.loads(pickle.dumps(trace))
        assert restored.name == trace.name
        assert list(restored) == list(trace)

    def test_stats_counts(self):
        stats = _small_trace().stats
        assert stats.total == 5
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.branches == 2
        assert stats.taken_branches == 1
        assert stats.int_ops == 1
        assert stats.fp_ops == 0

    def test_stats_unique_pcs(self):
        stats = _small_trace().stats
        assert stats.unique_pcs == 5
        assert stats.unique_load_pcs == 1
        assert stats.unique_store_pcs == 1

    def test_stats_fractions(self):
        stats = _small_trace().stats
        assert stats.load_fraction == pytest.approx(0.2)
        assert stats.store_fraction == pytest.approx(0.2)
        assert stats.branch_fraction == pytest.approx(0.4)

    def test_empty_trace_stats(self):
        stats = EncodedOps().stats
        assert stats.total == 0
        assert stats.load_fraction == 0.0
