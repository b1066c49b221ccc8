"""Integration tests of the cycle-level core across store-queue policies."""

import pytest

from repro import simulate
from repro.core.predictors import PredictorSuiteConfig, FSPConfig, SATConfig, DDPConfig, SVWConfig
from repro.isa.plane import EncodedOps, encode_uops
from repro.isa.uop import make_alu, make_branch, make_load, make_store
from repro.lsu.policies import (
    AssociativeStoreSetsPolicy,
    IndexedSQPolicy,
    OracleAssociativePolicy,
)
from repro.pipeline.config import CoreConfig, small_test_config
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.kernels import NotMostRecentKernel, StackSpillKernel, StreamCopyKernel
from repro.workloads.program import ProgramBuilder
from repro.workloads.suites import build_workload


def _small_predictors() -> PredictorSuiteConfig:
    return PredictorSuiteConfig(
        fsp=FSPConfig(entries=256, assoc=2),
        sat=SATConfig(entries=128),
        ddp=DDPConfig(entries=256, assoc=2),
        svw=SVWConfig(ssbf_entries=1024, spct_entries=1024),
    )


def _policies(sq_size=64):
    predictors = _small_predictors()
    return {
        "oracle": OracleAssociativePolicy(sq_size=sq_size, predictors=predictors),
        "associative-3": AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=3,
                                                    predictors=_small_predictors()),
        "associative-5": AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=5,
                                                    predictors=_small_predictors()),
        "indexed-fwd": IndexedSQPolicy(sq_size=sq_size, use_delay=False,
                                       predictors=_small_predictors()),
        "indexed-fwd+dly": IndexedSQPolicy(sq_size=sq_size, use_delay=True,
                                           predictors=_small_predictors()),
    }


def _kernel_trace(kernel_cls, iterations=400, name="kernel", **kwargs) -> EncodedOps:
    builder = ProgramBuilder(name, seed=11)
    kernel = kernel_cls(builder, **kwargs)
    for _ in range(iterations):
        kernel.emit()
    return builder.finish()


class TestBasicExecution:
    def test_trivial_trace_commits_everything(self):
        uops = [make_alu(0x400 + 4 * i, dest=(i % 8) + 1) for i in range(100)]
        trace = encode_uops(uops, name="alu")
        result = simulate(trace, OracleAssociativePolicy())
        assert result.stats.committed == 100
        assert result.stats.cycles > 0
        assert result.stats.flushes == 0

    def test_store_then_load_forwards(self):
        uops = []
        for i in range(64):
            pc = 0x400 + 16 * 0   # stable static PCs
            uops.append(make_store(0x400, addr=0x8000, value=i + 1, size=8, srcs=(1,)))
            uops.append(make_alu(0x404, dest=1, srcs=(1,)))
            uops.append(make_load(0x408, dest=2, addr=0x8000, size=8))
            uops.append(make_branch(0x40C, taken=True, target=0x400))
        trace = encode_uops(uops, name="fwd")
        result = simulate(trace, OracleAssociativePolicy())
        assert result.stats.committed == len(uops)
        assert result.stats.loads_forwarded > 0
        assert result.stats.ordering_violations == 0

    def test_ipc_bounded_by_width(self):
        trace = build_workload("gzip", instructions=4000)
        result = simulate(trace, OracleAssociativePolicy())
        assert 0.0 < result.stats.ipc <= 8.0

    def test_dependent_chain_serialises(self):
        uops = [make_alu(0x400, dest=1, srcs=(1,)) for _ in range(200)]
        trace = encode_uops(uops, name="chain")
        result = simulate(trace, OracleAssociativePolicy())
        # A fully serial single-cycle chain cannot exceed IPC 1.
        assert result.stats.ipc <= 1.05

    def test_small_config_also_runs(self):
        trace = build_workload("gzip", instructions=2000)
        policy = IndexedSQPolicy(sq_size=8, use_delay=True, predictors=_small_predictors())
        core = OutOfOrderCore(small_test_config(), policy)
        result = core.run(trace)
        assert result.stats.committed == 2000

    def test_stats_warmup_excludes_prefix(self):
        trace = build_workload("gzip", instructions=4000)
        full = simulate(trace, OracleAssociativePolicy())
        core = OutOfOrderCore(CoreConfig(), OracleAssociativePolicy())
        warmed = core.run(trace, stats_warmup_fraction=0.5)
        # The warm-up boundary snaps to a commit-group boundary (up to
        # commit_width instructions of slack).
        assert abs(warmed.stats.committed - 2000) < core.config.commit_width
        assert warmed.stats.cycles < full.stats.cycles

    def test_invalid_warmup_fraction(self):
        trace = build_workload("gzip", instructions=500)
        core = OutOfOrderCore(CoreConfig(), OracleAssociativePolicy())
        with pytest.raises(ValueError):
            core.run(trace, stats_warmup_fraction=1.0)


class TestCorrectnessInvariants:
    """Every policy must produce architecturally identical results."""

    @pytest.mark.parametrize("workload", ["vortex", "mesa.t", "gsm.e", "swim"])
    def test_all_policies_commit_all_instructions(self, workload):
        trace = build_workload(workload, instructions=3000)
        for name, policy in _policies().items():
            result = simulate(trace, policy)
            assert result.stats.committed == 3000, name

    @pytest.mark.parametrize("workload", ["vortex", "mesa.t"])
    def test_final_memory_state_identical_across_policies(self, workload):
        trace = build_workload(workload, instructions=3000)
        images = {}
        for name, policy in _policies().items():
            core = OutOfOrderCore(CoreConfig(), policy)
            core.run(trace)
            footprint = sorted({u.mem.addr for u in trace if u.is_store})[:200]
            images[name] = [core.memory.read(addr, 1) for addr in footprint]
        reference = images.pop("oracle")
        for name, image in images.items():
            assert image == reference, name

    def test_oracle_scheduling_has_no_violations(self):
        for workload in ("vortex", "mesa.t", "eon.c"):
            trace = build_workload(workload, instructions=3000)
            result = simulate(trace, OracleAssociativePolicy(predictors=_small_predictors()))
            assert result.stats.ordering_violations == 0, workload

    def test_load_store_counts_match_trace(self):
        trace = build_workload("gzip", instructions=3000)
        result = simulate(trace, IndexedSQPolicy(predictors=_small_predictors()))
        assert result.stats.committed_loads == trace.stats.loads
        assert result.stats.committed_stores == trace.stats.stores

    def test_svw_filter_never_misses_a_violation(self):
        """The simulator asserts internally that no violation escapes the SVW
        filter; a run completing is the check."""
        trace = build_workload("mesa.t", instructions=4000)
        result = simulate(trace, IndexedSQPolicy(use_delay=False,
                                                 predictors=_small_predictors()))
        assert result.stats.committed == 4000


class TestForwardingBehaviour:
    def test_stack_spill_forwards_heavily(self):
        trace = _kernel_trace(StackSpillKernel, iterations=300, slots=4)
        result = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                 predictors=_small_predictors()))
        assert result.stats.forwarding_rate > 0.5
        # After FSP warm-up nearly all of those loads forward through the
        # predicted SQ entry.
        assert result.stats.loads_forwarded > 0.5 * result.stats.loads_should_forward

    def test_stream_copy_never_forwards(self):
        trace = _kernel_trace(StreamCopyKernel, iterations=400, working_set_bytes=8192)
        result = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                 predictors=_small_predictors()))
        assert result.stats.loads_forwarded == 0
        assert result.stats.mis_forwardings == 0
        assert result.stats.loads_delayed == 0

    def test_not_most_recent_without_delay_flushes(self):
        trace = _kernel_trace(NotMostRecentKernel, iterations=500, lag=2)
        no_delay = simulate(trace, IndexedSQPolicy(use_delay=False,
                                                   predictors=_small_predictors()))
        assert no_delay.stats.mis_forwardings > 0

    def test_delay_prediction_reduces_flushes(self):
        trace = _kernel_trace(NotMostRecentKernel, iterations=500, lag=2)
        no_delay = simulate(trace, IndexedSQPolicy(use_delay=False,
                                                   predictors=_small_predictors()))
        with_delay = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                     predictors=_small_predictors()))
        assert with_delay.stats.mis_forwardings < no_delay.stats.mis_forwardings
        assert with_delay.stats.loads_delayed > 0

    def test_associative_sq_handles_not_most_recent_without_flushing(self):
        """The associative SQ can perform not-most-recent forwarding
        (Section 4.4), so it should see (almost) no violations here."""
        trace = _kernel_trace(NotMostRecentKernel, iterations=500, lag=2)
        result = simulate(trace, AssociativeStoreSetsPolicy(predictors=_small_predictors()))
        assert result.stats.ordering_violations <= 3

    def test_mis_forwarding_rate_is_low_with_delay(self):
        for workload in ("vortex", "mesa.m"):
            trace = build_workload(workload, instructions=4000)
            result = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                     predictors=_small_predictors()))
            assert result.stats.mis_forwardings_per_1000_loads < 20.0


class TestRelativePerformance:
    """Qualitative Figure 4 relationships on a couple of workloads."""

    def test_indexed_with_delay_close_to_oracle(self):
        trace = build_workload("vortex", instructions=6000)
        oracle = simulate(trace, OracleAssociativePolicy(predictors=_small_predictors()))
        indexed = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                  predictors=_small_predictors()))
        relative = indexed.stats.cycles / oracle.stats.cycles
        assert relative < 1.25

    def test_delay_helps_pathological_workload(self):
        trace = build_workload("mesa.t", instructions=6000)
        oracle = simulate(trace, OracleAssociativePolicy(predictors=_small_predictors()))
        no_delay = simulate(trace, IndexedSQPolicy(use_delay=False,
                                                   predictors=_small_predictors()))
        with_delay = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                     predictors=_small_predictors()))
        assert with_delay.stats.cycles < no_delay.stats.cycles
        assert with_delay.stats.cycles >= 0.9 * oracle.stats.cycles

    def test_zero_forwarding_workload_unaffected_by_sq_design(self):
        trace = build_workload("adpcm.d", instructions=4000)
        oracle = simulate(trace, OracleAssociativePolicy(predictors=_small_predictors()))
        indexed = simulate(trace, IndexedSQPolicy(use_delay=True,
                                                  predictors=_small_predictors()))
        assert indexed.stats.cycles == pytest.approx(oracle.stats.cycles, rel=0.02)
