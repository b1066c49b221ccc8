"""Validation guardrail for the sampling subsystem.

Asserts the acceptance contract of `repro.sampling`: on a small trace the
sampled CPI estimate must land within a stated error bound (±3%) of the
full-detail CPI for at least two store-queue configurations, the reported
confidence interval must cover the full-detail value, and every execution
path (serial driver, engine expansion, parallel and cached engines, and
the materialised trace's slices simulated from the stored snapshots) must
agree bit for bit.  A sampled run goes by workload name through the
checkpoint store; ``run_workload`` over a trace refuses sampled settings.

Every interval starts from a full-history snapshot of one continuous
functional pass (the checkpoint store), the faithful SMARTS
configuration, so the only error sources are interval sampling variance
(covered by the CI) and the detailed warm-up at interval boundaries.
"""

import pytest

from repro.exec import ExperimentEngine, JobSpec, ResultCache
from repro.harness.runner import ExperimentSettings, run_workload
from repro.sampling import SamplingPlan
from repro.sampling.checkpoints import load_interval_state
from repro.sampling.driver import (
    _overrun,
    _simulate_window,
    expand_sampled_spec,
    merge_interval_records,
    run_sampled_workload,
)
from repro.workloads.suites import build_workload

WORKLOAD = "vortex"
INSTRUCTIONS = 80_000

#: The two SQ configurations the guardrail validates (the paper's
#: contribution and the realistic associative baseline).
CONFIGS = ("indexed-3-fwd+dly", "associative-5-predictive")

#: Stated validation bound: sampled CPI within ±3% of full detail.
CPI_ERROR_BOUND = 0.03

PLAN = SamplingPlan(interval_length=2_000, detailed_warmup=1_000,
                    period=6_000, seed=0)
SETTINGS = ExperimentSettings(instructions=INSTRUCTIONS,
                              stats_warmup_fraction=0.0, sampling=PLAN)


@pytest.fixture(scope="module")
def trace():
    return build_workload(WORKLOAD, INSTRUCTIONS, seed=1)


@pytest.fixture(scope="module", params=CONFIGS)
def config_name(request):
    return request.param


@pytest.fixture(scope="module")
def full_detail_cpi(trace, config_name):
    settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                  stats_warmup_fraction=0.0)
    record = run_workload(trace, config_name, settings)
    stats = record.result.stats
    return stats.cycles / stats.committed


@pytest.fixture(scope="module")
def checkpoint_store_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("checkpoint-store"))


@pytest.fixture(scope="module")
def sampled_record(config_name, checkpoint_store_dir):
    return run_sampled_workload(WORKLOAD, config_name, SETTINGS,
                                checkpoint_dir=checkpoint_store_dir)


class TestSampledAccuracy:
    """Acceptance contract of the sampling subsystem."""

    def test_cpi_within_bound(self, sampled_record, full_detail_cpi,
                              config_name):
        sampled = sampled_record.result.sampled
        error = abs(sampled.cpi_mean - full_detail_cpi) / full_detail_cpi
        assert error <= CPI_ERROR_BOUND, (
            f"{config_name}: sampled CPI {sampled.cpi_mean:.4f} vs full "
            f"{full_detail_cpi:.4f} ({error:.1%} > {CPI_ERROR_BOUND:.0%})")

    def test_confidence_interval_covers_true_value(self, sampled_record,
                                                   full_detail_cpi, config_name):
        sampled = sampled_record.result.sampled
        lo, hi = sampled.cpi_ci
        assert lo <= full_detail_cpi <= hi, (
            f"{config_name}: CI [{lo:.4f}, {hi:.4f}] misses full-detail CPI "
            f"{full_detail_cpi:.4f}")
        # The CI must be informative, not vacuous.
        assert sampled.relative_ci < 0.25

    def test_enough_intervals_for_inference(self, sampled_record):
        sampled = sampled_record.result.sampled
        assert sampled.num_intervals >= 5
        assert sampled.cpi_ci_halfwidth > 0.0

    def test_materialised_trace_path_bit_identical(self, sampled_record,
                                                   trace, config_name,
                                                   checkpoint_store_dir):
        # Each interval's window, kept in its shared snapshot, is the
        # materialised trace's slice, and simulating those slices from the
        # stored snapshots merges into the sampled record bit for bit.
        spec = JobSpec(WORKLOAD, config_name, SETTINGS)
        intervals = expand_sampled_spec(spec,
                                        checkpoint_dir=checkpoint_store_dir)
        records = []
        for interval, window in zip(intervals, PLAN.intervals(INSTRUCTIONS)):
            stop = min(INSTRUCTIONS,
                       window.measure_end + _overrun(SETTINGS.core))
            uops = trace[window.detailed_start:stop]
            state, stored = load_interval_state(interval, window)
            assert stored == uops, window.index
            records.append(_simulate_window(uops, window, WORKLOAD,
                                            config_name, SETTINGS, state))
        merged = merge_interval_records(spec, records)
        assert (merged.result.stats.as_dict()
                == sampled_record.result.stats.as_dict())
        assert (merged.result.sampled.cpi_values
                == sampled_record.result.sampled.cpi_values)

    def test_serial_parallel_cached_bit_identical(
            self, sampled_record, config_name, checkpoint_store_dir,
            tmp_path):
        spec = JobSpec(WORKLOAD, config_name, SETTINGS)
        reference = sampled_record.result.stats.as_dict()
        parallel, = ExperimentEngine(
            jobs=2, cache=False,
            checkpoint_dir=checkpoint_store_dir).run([spec])
        assert parallel.result.stats.as_dict() == reference
        cached_engine = ExperimentEngine(
            jobs=1, cache=ResultCache(tmp_path / "cache"),
            checkpoint_dir=checkpoint_store_dir)
        cold, = cached_engine.run([spec])
        warm, = cached_engine.run([spec])
        assert cached_engine.last_run_stats["cache_hits"] \
            == cached_engine.last_run_stats["total"]
        assert cold.result.stats.as_dict() == reference
        assert warm.result.stats.as_dict() == reference


class TestExecutionPathEquivalence:
    """The serial driver and the engine's expansion agree; sampled settings
    have no path over a trace."""

    SETTINGS = ExperimentSettings(
        instructions=30_000, stats_warmup_fraction=0.0,
        sampling=SamplingPlan(interval_length=1_000, detailed_warmup=500,
                              period=6_000, seed=0))

    def test_engine_and_serial_driver_identical(self):
        config = "indexed-3-fwd+dly"
        engine_record, = ExperimentEngine(jobs=1, cache=False).run(
            [JobSpec(WORKLOAD, config, self.SETTINGS)])
        serial_record = run_sampled_workload(WORKLOAD, config, self.SETTINGS)
        assert (serial_record.result.stats.as_dict()
                == engine_record.result.stats.as_dict())
        assert (serial_record.result.sampled.cpi_values
                == engine_record.result.sampled.cpi_values)

    def test_run_workload_refuses_sampled_settings(self):
        trace = build_workload(WORKLOAD, 2_000, seed=1)
        with pytest.raises(ValueError,
                           match="ExperimentEngine or run_sampled_workload"):
            run_workload(trace, "indexed-3-fwd+dly", self.SETTINGS)

    def test_parallel_matches_serial(self):
        config = "indexed-3-fwd+dly"
        serial, = ExperimentEngine(jobs=1, cache=False).run(
            [JobSpec(WORKLOAD, config, self.SETTINGS)])
        engine = ExperimentEngine(jobs=2, cache=False)
        parallel, = engine.run([JobSpec(WORKLOAD, config, self.SETTINGS)])
        assert engine.last_run_stats["backend"] == "supervised-pool"
        assert serial.result.stats.as_dict() == parallel.result.stats.as_dict()


class TestSampledOrdering:
    """Sampling keeps the cross-configuration ordering of full detail."""

    def test_sampled_figure4_ordering_preserved(self):
        # The delay predictor must still show its benefit under sampling.
        plan = SamplingPlan(interval_length=2_000, detailed_warmup=1_000,
                            period=8_000, seed=0)
        settings = ExperimentSettings(instructions=INSTRUCTIONS,
                                      stats_warmup_fraction=0.0, sampling=plan)
        engine = ExperimentEngine(jobs=1, cache=False)
        records = engine.run([
            JobSpec(WORKLOAD, "indexed-3-fwd", settings),
            JobSpec(WORKLOAD, "indexed-3-fwd+dly", settings),
        ])
        fwd, fwd_dly = (r.result.sampled.cpi_mean for r in records)
        assert fwd_dly <= fwd * 1.02, (fwd, fwd_dly)
