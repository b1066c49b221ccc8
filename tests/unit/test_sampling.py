"""Unit tests for the statistical sampling subsystem.

Covers the plan math (interval layout, t critical values, CI aggregation),
the functional warmer's state fidelity against the detailed core, the
determinism of interval jobs, window regeneration, and the exec-layer
integration (interval cache keys, sampled-spec expansion).
"""

import dataclasses
import math
import pickle

import pytest

from repro.core.ssn import SSNAllocator
from repro.exec import ExperimentEngine, IntervalJobSpec, JobSpec, job_key
from repro.harness.runner import ExperimentSettings, make_policy
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.stats import SimStats
from repro.sampling import (
    IntervalMeasurement,
    SampledResult,
    SamplingPlan,
    student_t_two_sided,
)
from repro.sampling.driver import (
    expand_sampled_spec,
    run_interval_job,
    run_sampled_workload,
)
from repro.sampling.functional import FunctionalWarmer
from repro.workloads.suites import (
    TRACE_SEGMENT_UOPS,
    build_workload,
    build_workload_window,
)

WORKLOAD = "vortex"
PLAN = SamplingPlan(interval_length=500, detailed_warmup=500, period=5_000,
                    seed=0)
SETTINGS = ExperimentSettings(instructions=20_000, stats_warmup_fraction=0.0,
                              sampling=PLAN)


class TestStudentT:
    def test_exact_small_df(self):
        # df=1: t = tan(pi * c / 2); df=2: closed form.
        assert student_t_two_sided(0.90, 1) == pytest.approx(6.3138, abs=1e-3)
        assert student_t_two_sided(0.95, 2) == pytest.approx(4.3027, abs=1e-3)

    def test_matches_standard_tables(self):
        # Reference values from standard t tables (3 decimal places).
        assert student_t_two_sided(0.95, 3) == pytest.approx(3.182, abs=2e-3)
        assert student_t_two_sided(0.95, 4) == pytest.approx(2.776, abs=2e-3)
        assert student_t_two_sided(0.95, 10) == pytest.approx(2.228, abs=2e-3)
        assert student_t_two_sided(0.95, 30) == pytest.approx(2.042, abs=2e-3)
        assert student_t_two_sided(0.99, 20) == pytest.approx(2.845, abs=2e-3)
        assert student_t_two_sided(0.90, 5) == pytest.approx(2.015, abs=2e-3)

    def test_large_df_approaches_normal(self):
        assert student_t_two_sided(0.95, 10_000) == pytest.approx(1.96, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            student_t_two_sided(1.5, 4)
        with pytest.raises(ValueError):
            student_t_two_sided(0.95, 0)


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(interval_length=0)
        with pytest.raises(ValueError):
            SamplingPlan(interval_length=100, period=50)
        with pytest.raises(ValueError):
            SamplingPlan(detailed_warmup=-1)
        with pytest.raises(ValueError):
            SamplingPlan(confidence=1.0)

    def test_layout_is_ordered_and_in_bounds(self):
        windows = PLAN.intervals(20_000)
        assert len(windows) >= 2
        for w in windows:
            assert 0 <= w.detailed_start <= w.measure_start \
                < w.measure_end <= 20_000
            assert w.detailed_start == max(
                0, w.measure_start - PLAN.detailed_warmup)
            assert w.measure_length == PLAN.interval_length
        starts = [w.measure_start for w in windows]
        assert starts == sorted(starts)
        assert all(b - a == PLAN.period for a, b in zip(starts, starts[1:]))

    def test_detailed_warmup_clamped_at_trace_start(self):
        # W exceeds the first period, so interval 0's warm-up is clamped.
        plan = SamplingPlan(interval_length=500, detailed_warmup=6_000,
                            period=5_000, seed=0)
        windows = plan.intervals(20_000)
        assert windows[0].measure_start < plan.detailed_warmup
        assert windows[0].detailed_start == 0
        assert windows[-1].detailed_start == windows[-1].measure_start - 6_000

    def test_first_offset_is_seeded_phase(self):
        assert 0 <= PLAN.first_offset() <= PLAN.period - PLAN.interval_length
        other = dataclasses.replace(PLAN, seed=7)
        # Identical plans give identical layouts; the phase is seed-derived.
        assert PLAN.intervals(20_000) == PLAN.intervals(20_000)
        assert PLAN.first_offset() == PLAN.first_offset()
        assert isinstance(other.first_offset(), int)

    def test_short_trace_pins_one_interval(self):
        plan = SamplingPlan(interval_length=1_000, period=50_000,
                            detailed_warmup=500)
        windows = plan.intervals(2_000)
        assert len(windows) == 1
        assert windows[0].measure_end <= 2_000
        with pytest.raises(ValueError):
            plan.intervals(500)

    def test_sampled_fraction(self):
        frac = PLAN.sampled_fraction(20_000)
        assert 0.0 < frac < 1.0


class TestSampledResultMath:
    @staticmethod
    def _result(cpis, confidence=0.95):
        plan = dataclasses.replace(PLAN, confidence=confidence)
        intervals = []
        for i, cpi in enumerate(cpis):
            stats = SimStats()
            stats.committed = 1000
            stats.cycles = int(cpi * 1000)
            intervals.append(IntervalMeasurement(
                index=i, measure_start=i * plan.period, instructions=1000,
                cycles=stats.cycles, stats=stats))
        return SampledResult(workload="w", config_name="c", plan=plan,
                             total_instructions=100_000, intervals=intervals)

    def test_mean_and_ci(self):
        result = self._result([0.5, 0.6, 0.7, 0.6])
        assert result.cpi_mean == pytest.approx(0.6)
        # s = sqrt(sum((x-mean)^2)/3), CI = t(0.95, 3) * s / 2
        std = math.sqrt((0.01 + 0.0 + 0.01 + 0.0) / 3)
        t = student_t_two_sided(0.95, 3)
        assert result.cpi_std == pytest.approx(std)
        assert result.cpi_ci_halfwidth == pytest.approx(t * std / 2, rel=1e-6)
        lo, hi = result.cpi_ci
        assert lo < result.cpi_mean < hi
        assert result.estimated_total_cycles == pytest.approx(0.6 * 100_000)

    def test_single_interval_has_zero_halfwidth(self):
        result = self._result([0.5])
        assert result.cpi_ci_halfwidth == 0.0

    def test_merged_stats_are_sums(self):
        result = self._result([0.5, 0.7])
        merged = result.merged_stats()
        assert merged.committed == 2000
        assert merged.cycles == 500 + 700


class TestWindowRegeneration:
    def test_window_equals_full_trace_slice_across_segments(self):
        total = TRACE_SEGMENT_UOPS + 10_000
        full = build_workload(WORKLOAD, total, seed=3)
        lo = TRACE_SEGMENT_UOPS - 2_000
        hi = TRACE_SEGMENT_UOPS + 2_000
        assert build_workload_window(WORKLOAD, total, 3, lo, hi) == full[lo:hi]

    def test_single_segment_matches_direct_compose(self):
        from repro.workloads.profiles import get_profile
        from repro.workloads.suites import WorkloadComposer

        direct = WorkloadComposer(get_profile(WORKLOAD), seed=1).compose(4_000)
        assert list(build_workload(WORKLOAD, 4_000, seed=1)) == list(direct)

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            build_workload_window(WORKLOAD, 1_000, 1, 500, 1_500)
        with pytest.raises(ValueError):
            build_workload_window(WORKLOAD, 1_000, 1, -1, 500)


class TestFunctionalWarming:
    """Functional replay of a prefix must reproduce the detailed core's
    long-lived state (exactly where the update sequence is program-order,
    approximately where it is execution-order)."""

    PREFIX = 6_000

    def _detailed(self, config_name):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        policy = make_policy(config_name, sq_size=64)
        core = OutOfOrderCore(CoreConfig(), policy)
        result = core.run(trace, warm_memory=False)
        return core, result

    def _functional(self, config_name):
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        policy = make_policy(config_name, sq_size=64)
        warmer = FunctionalWarmer(CoreConfig(), policy)
        warmer.warm(trace)
        return warmer.state

    def test_svw_and_ssn_state_exact_without_flushes(self):
        # The oracle policy never flushes, so every commit-path structure
        # must match bit for bit.
        core, result = self._detailed("oracle-associative-3")
        assert result.stats.flushes == 0
        state = self._functional("oracle-associative-3")
        assert state.policy.svw.state_signature() == core.policy.svw.state_signature()
        assert state.ssn_alloc.ssn_commit == core.ssn_alloc.ssn_commit
        assert state.ssn_alloc.ssn_rename == core.ssn_alloc.ssn_rename

    def test_ssn_counters_follow_the_allocator_across_wraps(self):
        # Five-bit SSNs wrap every 32 stores; the warm pass keeps the
        # counters in locals and writes them back after every segment.
        trace = build_workload(WORKLOAD, self.PREFIX, seed=1)
        warmer = FunctionalWarmer(CoreConfig(ssn_bits=5),
                                  make_policy("indexed-3-fwd+dly"))
        reference = SSNAllocator(bits=5)
        for segment in (trace.slice(0, 2_500), trace.slice(2_500, len(trace))):
            warmer.warm(segment)
            for _ in range(segment.stats.stores):
                reference.commit(reference.allocate())
            assert warmer.state.ssn_alloc == reference
        assert reference.wraps > 10

    def test_branch_direction_state_exact_without_flushes(self):
        core, result = self._detailed("oracle-associative-3")
        assert result.stats.flushes == 0
        state = self._functional("oracle-associative-3")
        assert (state.branch_unit.direction_state_signature()
                == core.branch_unit.direction_state_signature())

    def test_memory_image_exact(self):
        core, _ = self._detailed("oracle-associative-3")
        state = self._functional("oracle-associative-3")
        assert state.memory.state_signature() == core.memory.state_signature()

    def test_cache_residency_close(self):
        core, _ = self._detailed("oracle-associative-3")
        state = self._functional("oracle-associative-3")
        detailed = core.hierarchy.l1.resident_lines()
        functional = state.hierarchy.l1.resident_lines()
        overlap = len(detailed & functional) / max(len(detailed | functional), 1)
        assert overlap >= 0.8, f"L1 residency overlap only {overlap:.2f}"

    def test_fsp_dependences_cover_detailed(self):
        # The warmed FSP must know (at least) the dependences the detailed
        # run learned through violations; warming may know a few more
        # (register-serialised dependences never violate in detail).
        core, _ = self._detailed("indexed-3-fwd+dly")
        state = self._functional("indexed-3-fwd+dly")
        detailed = core.policy.fsp.state_signature()
        warmed = state.policy.fsp.state_signature()
        if detailed:
            covered = len(detailed & warmed) / len(detailed)
            assert covered >= 0.7, f"warmed FSP covers only {covered:.2f}"


class TestIntervalJobs:
    def test_interval_job_deterministic(self):
        spec = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 1)
        first = run_interval_job(spec)
        second = run_interval_job(spec)
        assert first.result.stats.as_dict() == second.result.stats.as_dict()

    def test_plan_seed_moves_the_phase(self):
        moved = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, seed=12345))
        if moved.sampling.first_offset() == PLAN.first_offset():
            pytest.skip("seeds alias to the same phase")
        a = run_interval_job(IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 1))
        b = run_interval_job(IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", moved, 1))
        assert a.result.stats.as_dict() != b.result.stats.as_dict()

    def test_measured_region_is_interval_length(self):
        record = run_interval_job(
            IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 1))
        committed = record.result.stats.committed
        # The final commit cycle may overshoot by up to commit_width - 1.
        assert PLAN.interval_length <= committed \
            < PLAN.interval_length + SETTINGS.core.commit_width

    def test_expansion(self):
        spec = JobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)
        intervals = expand_sampled_spec(spec)
        assert len(intervals) == PLAN.num_intervals(SETTINGS.instructions)
        assert [s.interval_index for s in intervals] == list(range(len(intervals)))
        plain = JobSpec(WORKLOAD, "indexed-3-fwd+dly",
                        dataclasses.replace(SETTINGS, sampling=None))
        with pytest.raises(ValueError):
            expand_sampled_spec(plain)

    def test_spec_and_record_picklable(self):
        spec = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 0)
        assert pickle.loads(pickle.dumps(spec)) == spec
        record = run_sampled_workload(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)
        clone = pickle.loads(pickle.dumps(record))
        assert clone.result.sampled.cpi_mean == record.result.sampled.cpi_mean


class TestCacheKeys:
    def test_interval_index_in_key(self):
        a = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 0)
        b = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 1)
        base = JobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)
        assert len({job_key(a), job_key(b), job_key(base)}) == 3
        assert job_key(a) == job_key(
            IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 0))

    def test_plan_change_changes_key(self):
        a = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS, 0)
        changed = dataclasses.replace(
            SETTINGS, sampling=dataclasses.replace(PLAN, interval_length=600))
        b = IntervalJobSpec(WORKLOAD, "indexed-3-fwd+dly", changed, 0)
        assert job_key(a) != job_key(b)

    def test_sampled_and_plain_settings_differ(self):
        plain = dataclasses.replace(SETTINGS, sampling=None)
        assert job_key(JobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)) \
            != job_key(JobSpec(WORKLOAD, "indexed-3-fwd+dly", plain))


class TestEngineIntegration:
    def test_sampled_spec_expands_and_merges(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        spec = JobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)
        record, = engine.run([spec])
        expected = PLAN.num_intervals(SETTINGS.instructions)
        assert engine.last_run_stats["total"] == expected
        assert engine.last_run_stats["sampled_specs"] == 1
        assert record.result.sampled is not None
        assert record.result.sampled.num_intervals == expected

        # Second run: every interval is a cache hit, merge is identical.
        again, = engine.run([spec])
        assert engine.last_run_stats["cache_hits"] == expected
        assert again.result.stats.as_dict() == record.result.stats.as_dict()

    def test_engine_matches_serial_driver(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        record, = engine.run([JobSpec(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)])
        serial = run_sampled_workload(WORKLOAD, "indexed-3-fwd+dly", SETTINGS)
        assert record.result.stats.as_dict() == serial.result.stats.as_dict()
        assert record.result.sampled.cpi_values == serial.result.sampled.cpi_values
