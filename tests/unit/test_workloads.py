"""Unit tests for the workload substrate: program builder, kernels, profiles,
and the suite composer."""

import pytest

from repro.isa.uop import OpClass
from repro.workloads import program
from repro.workloads.kernels import (
    ALL_KERNELS,
    AccumulateKernel,
    BranchyKernel,
    FPStencilKernel,
    GlobalRMWKernel,
    ManyStoreDepKernel,
    NotMostRecentKernel,
    PointerChaseKernel,
    StackSpillKernel,
    StreamCopyKernel,
    WideNarrowKernel,
)
from repro.workloads.profiles import (
    PROFILES,
    SENSITIVITY_BENCHMARKS,
    WorkloadProfile,
    get_profile,
    profiles_for_suite,
)
from repro.workloads.program import ProgramBuilder
from repro.workloads.suites import (
    WorkloadComposer,
    build_suite,
    build_workload,
    sensitivity_workloads,
    workload_names,
)


class TestProgramBuilder:
    def test_pcs_are_unique_and_word_aligned(self):
        builder = ProgramBuilder("t")
        pcs = builder.alloc_pcs(10)
        assert len(set(pcs)) == 10
        assert all(pc % 4 == 0 for pc in pcs)

    def test_regions_do_not_overlap(self):
        builder = ProgramBuilder("t")
        a = builder.alloc_region(100)
        b = builder.alloc_region(100)
        assert b >= a + 100

    def test_register_allocation_avoids_zero_register(self):
        builder = ProgramBuilder("t")
        regs = builder.alloc_int_regs(64)
        assert 31 not in regs

    def test_fp_registers_in_fp_space(self):
        builder = ProgramBuilder("t")
        regs = builder.alloc_fp_regs(40)
        assert all(reg >= 32 for reg in regs)

    def test_value_fits_size(self):
        builder = ProgramBuilder("t", seed=3)
        for size in (1, 2, 4, 8):
            assert 0 <= builder.value(size) < (1 << (8 * size))

    def test_emit_helpers(self):
        builder = ProgramBuilder("t")
        builder.load(0x400, dest=1, addr=0x1000)
        builder.store(0x404, addr=0x1000, value=1, srcs=(1,))
        builder.alu(0x408, dest=2, srcs=(1,))
        builder.branch(0x40C, taken=True)
        builder.nop(0x410)
        trace = builder.finish()
        assert len(trace) == 5
        assert trace.stats.loads == 1 and trace.stats.stores == 1

    def test_emit_block_appends_its_columns(self):
        builder = ProgramBuilder("block-test")
        load = builder.intern(0x400, OpClass.LOAD, 1)
        store = builder.intern(0x404, OpClass.STORE, srcs=[1])
        branch = builder.intern(0x408, OpClass.BRANCH, call=True)
        assert builder.intern(0x404, OpClass.STORE, srcs=(1,)) == store
        builder.emit_block((load, store, branch), (0x1000, 0x1008, 0),
                           (8, 4, 0), (-1, 7, -1), (False, False, True),
                           (-1, -1, 0x500))
        trace = builder.finish()
        assert [(u.pc, u.op_class, u.dest, u.srcs, u.hint_call)
                for u in trace] == [(0x400, OpClass.LOAD, 1, (), False),
                                    (0x404, OpClass.STORE, None, (1,), False),
                                    (0x408, OpClass.BRANCH, None, (), True)]
        assert (trace[0].mem.addr, trace[1].mem.addr, trace[1].mem.size,
                trace[1].mem.value) == (0x1000, 0x1008, 4, 7)
        assert trace[2].is_taken and trace[2].target == 0x500

    def test_determinism_given_seed(self):
        a = ProgramBuilder("t", seed=7).value(8)
        b = ProgramBuilder("t", seed=7).value(8)
        assert a == b

    def test_invalid_region(self):
        with pytest.raises(ValueError):
            ProgramBuilder("t").alloc_region(0)


def _emit_n(kernel, iterations):
    for _ in range(iterations):
        kernel.emit()
    return kernel.builder.finish()


class TestKernels:
    def test_every_kernel_emits_valid_uops(self):
        for kernel_cls in ALL_KERNELS:
            builder = ProgramBuilder(kernel_cls.__name__, seed=1)
            kernel = kernel_cls(builder)
            trace = _emit_n(kernel, 20)
            assert len(trace) > 0

    def test_kernels_use_stable_static_pcs(self):
        """Dynamic instances of a kernel reuse the same static PCs."""
        for kernel_cls in ALL_KERNELS:
            builder = ProgramBuilder(kernel_cls.__name__, seed=1)
            kernel = kernel_cls(builder)
            _emit_n(kernel, 50)
            stats = builder.finish().stats
            assert stats.unique_pcs < 80, kernel_cls.__name__

    def test_stack_spill_loads_read_stored_addresses(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = StackSpillKernel(builder, slots=4)
        kernel.emit()
        trace = builder.finish()
        store_addrs = {u.mem.addr for u in trace if u.is_store}
        load_addrs = {u.mem.addr for u in trace if u.is_load}
        assert load_addrs == store_addrs
        assert kernel.forwarding_fraction == 1.0

    def test_global_rmw_forwarding_distance(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = GlobalRMWKernel(builder, n_globals=3)
        traces = _emit_n(kernel, 20)
        loads = [u for u in traces if u.is_load]
        stores = [u for u in traces if u.is_store]
        # Each load reads the address written by the store three iterations back.
        assert loads and stores
        assert all(u.mem.addr in {s.mem.addr for s in stores} for u in loads)

    def test_not_most_recent_lag(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = NotMostRecentKernel(builder, lag=2, elements=64)
        _emit_n(kernel, 12)
        trace = builder.finish()
        loads = [u for u in trace if u.is_load]
        stores = [u for u in trace if u.is_store]
        # The i-th load reads the address of the (i)th store (written two
        # iterations before it), not the most recent one.
        assert loads[0].mem.addr == stores[0].mem.addr
        assert loads[0].mem.addr != stores[1].mem.addr

    def test_many_store_dep_rotates_static_stores(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = ManyStoreDepKernel(builder, n_stores=4)
        _emit_n(kernel, 8)
        trace = builder.finish()
        store_pcs = {u.pc for u in trace if u.is_store}
        load_pcs = {u.pc for u in trace if u.is_load}
        assert len(store_pcs) == 4
        assert len(load_pcs) == 1

    def test_wide_narrow_accesses(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = WideNarrowKernel(builder)
        kernel.emit()
        trace = builder.finish()
        loads = [u for u in trace if u.is_load]
        stores = [u for u in trace if u.is_store]
        assert stores[0].mem.size == 8
        assert {u.mem.size for u in loads} == {4}
        assert loads[0].mem.addr == stores[0].mem.addr
        assert loads[1].mem.addr == stores[0].mem.addr + 4

    def test_stream_copy_no_forwarding(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = StreamCopyKernel(builder, working_set_bytes=4096)
        _emit_n(kernel, 10)
        trace = builder.finish()
        load_addrs = {u.mem.addr for u in trace if u.is_load}
        store_addrs = {u.mem.addr for u in trace if u.is_store}
        assert not load_addrs & store_addrs
        assert kernel.forwarding_fraction == 0.0

    def test_pointer_chase_chains_are_serialised(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = PointerChaseKernel(builder, nodes=64, chains=2)
        _emit_n(kernel, 8)
        trace = builder.finish()
        loads = [u for u in trace if u.is_load]
        # Every load consumes the register it produces (chain serialisation).
        assert all(u.dest in u.srcs for u in loads)
        # Two chains -> two distinct chain registers.
        assert len({u.dest for u in loads}) == 2

    def test_accumulate_has_no_stores(self):
        builder = ProgramBuilder("t", seed=1)
        _emit_n(AccumulateKernel(builder, working_set_bytes=4096), 10)
        assert builder.finish().stats.stores == 0

    def test_fp_stencil_uses_fp_ops(self):
        builder = ProgramBuilder("t", seed=1)
        _emit_n(FPStencilKernel(builder, working_set_bytes=4096), 5)
        trace = builder.finish()
        assert any(u.op_class.is_fp for u in trace)

    def test_branchy_taken_probability(self):
        builder = ProgramBuilder("t", seed=1)
        kernel = BranchyKernel(builder, taken_prob=0.5)
        _emit_n(kernel, 200)
        trace = builder.finish()
        stats = trace.stats
        assert 0.3 <= stats.taken_branches / stats.branches <= 0.7

    def test_branchy_validation(self):
        with pytest.raises(ValueError):
            BranchyKernel(ProgramBuilder("t"), taken_prob=1.5)

    def test_kernel_parameter_validation(self):
        builder = ProgramBuilder("t")
        with pytest.raises(ValueError):
            StackSpillKernel(builder, slots=0)
        with pytest.raises(ValueError):
            GlobalRMWKernel(builder, n_globals=0)
        with pytest.raises(ValueError):
            NotMostRecentKernel(builder, lag=0)


class TestProfiles:
    def test_forty_seven_benchmarks(self):
        assert len(PROFILES) == 47

    def test_suite_sizes_match_paper(self):
        assert len(profiles_for_suite("media")) == 18
        assert len(profiles_for_suite("int")) == 16
        assert len(profiles_for_suite("fp")) == 13

    def test_names_unique(self):
        names = [p.name for p in PROFILES]
        assert len(names) == len(set(names))

    def test_get_profile(self):
        assert get_profile("vortex").suite == "int"
        with pytest.raises(KeyError):
            get_profile("not-a-benchmark")

    def test_forward_rates_match_table3_examples(self):
        assert get_profile("mesa.m").forward_rate == pytest.approx(0.436)
        assert get_profile("mcf").forward_rate == pytest.approx(0.026)
        assert get_profile("adpcm.d").forward_rate == 0.0
        assert get_profile("sixtrack").forward_rate == pytest.approx(0.339)

    def test_pathology_flags(self):
        assert get_profile("mesa.t").not_most_recent > get_profile("mesa.m").not_most_recent
        assert get_profile("eon.c").fsp_pressure > get_profile("gcc").fsp_pressure
        assert get_profile("mcf").pointer_chase > 0.5

    def test_sensitivity_set(self):
        assert len(SENSITIVITY_BENCHMARKS) == 9
        suites = {get_profile(name).suite for name in SENSITIVITY_BENCHMARKS}
        assert suites == {"media", "int", "fp"}

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="int", forward_rate=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="weird", forward_rate=0.1)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="int", forward_rate=0.1, working_set_kb=0)

    def test_invalid_suite_lookup(self):
        with pytest.raises(ValueError):
            profiles_for_suite("bogus")


class TestSuites:
    def test_workload_names(self):
        assert len(workload_names()) == 47
        assert len(workload_names("media")) == 18
        assert sensitivity_workloads() == SENSITIVITY_BENCHMARKS

    def test_build_workload_length(self):
        trace = build_workload("gzip", instructions=3000)
        assert len(trace) == 3000
        assert trace.name == "gzip"

    def test_build_workload_deterministic(self):
        a = build_workload("gzip", instructions=2000, seed=5)
        b = build_workload("gzip", instructions=2000, seed=5)
        assert [u.pc for u in a] == [u.pc for u in b]
        assert [u.mem.addr if u.mem else None for u in a] == \
               [u.mem.addr if u.mem else None for u in b]

    def test_build_workload_seed_changes_trace(self):
        a = build_workload("gzip", instructions=2000, seed=5)
        b = build_workload("gzip", instructions=2000, seed=6)
        assert [u.pc for u in a] != [u.pc for u in b]

    def test_zero_forwarding_profile_has_no_forwarding_kernels(self):
        composer = WorkloadComposer(get_profile("adpcm.d"))
        assert composer._forward_prob == 0.0

    def test_high_forwarding_profile_mix(self):
        composer = WorkloadComposer(get_profile("mesa.m"))
        assert composer._forward_prob > 0.3

    def test_static_instructions_are_interned_in_emission_order(
            self, monkeypatch):
        # Static indices are numbered in order of first emission: a kernel
        # interns an instruction only when it first emits it, so snapshots
        # that ship a plane's descriptor table keep their bytes.
        monkeypatch.setattr(program, "_PLANE_REGISTRY", {})
        for name in workload_names():
            composer = WorkloadComposer(get_profile(name), seed=1)
            composer.compose(4_000)
            ops = composer.builder.ops
            assert list(dict.fromkeys(ops.sidx)) == \
                list(range(len(ops.plane))), name

    def test_static_footprint_is_bounded(self):
        trace = build_workload("vortex", instructions=5000)
        assert trace.stats.unique_pcs < 300

    def test_trace_mix_is_reasonable(self):
        trace = build_workload("vortex", instructions=8000)
        stats = trace.stats
        assert 0.15 <= stats.load_fraction <= 0.45
        assert 0.05 <= stats.store_fraction <= 0.35
        assert stats.branch_fraction <= 0.40

    def test_build_suite(self):
        suite = build_suite("media", instructions=500)
        assert len(suite) == 18
        assert all(len(trace) == 500 for trace in suite.values())

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            build_workload("gzip", instructions=0)
