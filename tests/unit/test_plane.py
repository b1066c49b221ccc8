"""Unit tests for the two-plane trace representation (repro.isa.plane)."""

import pickle
import time

import pytest

from repro.isa.plane import (
    KIND_BRANCH,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    EncodedOps,
    StaticProgramPlane,
    TraceStats,
    as_encoded,
    encode_uops,
)
from repro.isa.uop import OpClass, make_alu, make_branch, make_load, make_store
from repro.workloads.suites import (
    TRACE_SEGMENT_UOPS,
    build_workload,
    build_workload_window,
)


def _sample_uops():
    return [
        make_alu(0x400, dest=1, srcs=(2, 3)),
        make_load(0x404, dest=2, addr=0x1000, size=8, srcs=(1,)),
        make_store(0x408, addr=0x1000, value=0xAB, size=1, srcs=(2,)),
        make_branch(0x40C, taken=True, target=0x400, srcs=(1,), call=True),
        make_branch(0x410, taken=False),
        make_alu(0x414, dest=40, op_class=OpClass.FP_MUL),
    ]


class TestEncodeDecode:
    def test_round_trip_is_lossless(self):
        uops = _sample_uops()
        encoded = encode_uops(uops)
        assert [encoded[i] for i in range(len(uops))] == uops
        assert list(encoded) == uops

    def test_static_metadata_is_interned_once(self):
        uops = _sample_uops() * 10
        encoded = encode_uops(uops)
        assert len(encoded) == 60
        assert len(encoded.plane) == len(_sample_uops())

    def test_kind_and_routing_metadata(self):
        encoded = encode_uops(_sample_uops())
        plane = encoded.plane
        kinds = [plane.kind[si] for si in encoded.sidx]
        assert kinds == [KIND_OTHER, KIND_LOAD, KIND_STORE, KIND_BRANCH,
                        KIND_BRANCH, KIND_OTHER]
        classes = [plane.issue_class[si] for si in encoded.sidx]
        assert classes == ["int", "load", "store", "branch", "branch", "fp"]

    def test_slicing_shares_plane(self):
        encoded = encode_uops(_sample_uops())
        window = encoded[1:4]
        assert window.plane is encoded.plane
        assert list(window) == list(encoded)[1:4]

    def test_equality_across_planes(self):
        uops = _sample_uops()
        a = encode_uops(uops)
        b = encode_uops(list(reversed(uops)))  # different intern order
        assert a == a[0:len(a)]
        assert a == encode_uops(uops, plane=b.plane)
        assert a != b

    def test_stats_match_object_form(self):
        trace = build_workload("vortex", instructions=4_000, seed=1)
        uops = list(trace)
        loads = [u for u in uops if u.is_load]
        stores = [u for u in uops if u.is_store]
        branches = [u for u in uops if u.is_branch]
        others = [u for u in uops if not (u.is_memory or u.is_branch)]
        assert trace.stats == TraceStats(
            total=len(uops),
            loads=len(loads),
            stores=len(stores),
            branches=len(branches),
            taken_branches=sum(u.is_taken for u in branches),
            int_ops=sum(u.op_class.is_int for u in others),
            fp_ops=sum(u.op_class.is_fp for u in others),
            unique_pcs=len({u.pc for u in uops}),
            unique_load_pcs=len({u.pc for u in loads}),
            unique_store_pcs=len({u.pc for u in stores}),
        )

    def test_as_encoded_passthrough_and_coercion(self):
        encoded = encode_uops(_sample_uops())
        assert as_encoded(encoded) is encoded
        coerced = as_encoded(iter(_sample_uops()), name="t")
        assert coerced.name == "t"
        assert list(coerced) == _sample_uops()

    def test_as_encoded_renames_by_alias(self):
        encoded = encode_uops(_sample_uops(), name="a")
        assert as_encoded(encoded, name="a") is encoded
        renamed = as_encoded(encoded, name="b")
        assert renamed.name == "b" and encoded.name == "a"
        assert renamed.sidx is encoded.sidx and renamed == encoded

    def test_intern_validates_registers(self):
        plane = StaticProgramPlane()
        with pytest.raises(ValueError):
            plane.intern(0x400, OpClass.INT_ALU, 9999, ())
        with pytest.raises(ValueError):
            plane.intern(0x400, OpClass.INT_ALU, 1, (9999,))


class TestCrossPlane:
    def test_pickle_ships_descriptors_and_rebases(self):
        uops = _sample_uops()
        encoded = encode_uops(uops)
        revived = pickle.loads(pickle.dumps(encoded))
        assert revived.plane is not encoded.plane
        assert revived == encoded
        assert list(revived) == uops

        other = StaticProgramPlane()
        other.intern(0x999, OpClass.NOP, None, ())  # skew the numbering
        rebased = revived.rebase(other)
        assert rebased.plane is other
        assert list(rebased) == uops

    def test_extend_across_planes(self):
        first = encode_uops(_sample_uops()[:3])
        second = pickle.loads(pickle.dumps(encode_uops(_sample_uops()[3:])))
        first.extend(second)
        assert list(first) == _sample_uops()


class TestSegmentPickling:
    """The compose-ahead economics the two-plane encoding was built for:
    an encoded segment must round-trip through pickle cheaper than it
    recomposes (the pre-refactor object encoding pickled *slower* than
    recomposition, which capped compose-ahead overlap — ROADMAP PR 4)."""

    def test_segment_pickle_round_trip_beats_recomposition(self):
        from repro.workloads import suites

        name, seed, n = "vortex", 1, TRACE_SEGMENT_UOPS
        suites._SEGMENT_CACHE.clear()
        start = time.perf_counter()
        segment = build_workload_window(name, n, seed, 0, n)
        compose_s = time.perf_counter() - start
        assert len(segment) == n

        blob = pickle.dumps(segment, protocol=pickle.HIGHEST_PROTOCOL)
        start = time.perf_counter()
        revived = pickle.loads(pickle.dumps(segment,
                                            protocol=pickle.HIGHEST_PROTOCOL))
        round_trip_s = time.perf_counter() - start

        assert revived == segment
        assert round_trip_s < compose_s, (
            f"encoded 16384-uop segment round-trip ({round_trip_s:.4f}s) "
            f"must beat recomposition ({compose_s:.4f}s)")
        # Sanity: the blob is flat arrays, not an object graph.
        assert len(blob) < 2_000_000


class TestWorkloadsAreEncoded:
    def test_build_workload_returns_encoded(self):
        trace = build_workload("vortex", instructions=2_000, seed=1)
        assert isinstance(trace, EncodedOps)
        assert trace.name == "vortex"
        assert len(trace) == 2_000

    def test_window_aliases_whole_segment(self):
        from repro.workloads import suites

        suites._SEGMENT_CACHE.clear()
        n = 2_000
        first = build_workload_window("vortex", n, 1, 0, n)
        second = build_workload_window("vortex", n, 1, 0, n)
        assert first is second  # served from the per-process segment memo
