"""Unit tests for the dispatcher and its one in-process loop.

Where a fan-out runs (the caller's process for one worker or one job, the
supervised pool otherwise), the dispatcher's ordering and observability
contract at worker counts 1 and 2, the scheduler's event stream, and the
engine-level satellites (chunksize honored-or-rejected everywhere,
scheduler stats in ``last_run_stats``, stale checkpoint-stat carry-over).
"""

import multiprocessing
import os

import pytest

from repro.exec import (
    DispatchJob,
    ExperimentEngine,
    ExperimentFailure,
    JobSpec,
    dispatch,
    options,
    resilience,
    scheduler_counters,
    supervised_events,
)
from repro.harness.runner import ExperimentSettings
from repro.sampling.plan import SamplingPlan

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)

#: What ``last_run_stats["backend"]`` names for each worker count, over
#: more than one job.
BACKEND = {1: "serial", 2: "supervised-pool"}

#: Counters only a pool that crash deaths degraded may report.
DEGRADATION = ("degraded_serial_jobs", "pool_degraded")


def _square(x):
    return x * x


def _pid(_payload):
    return os.getpid()


def _boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _jobs(n):
    return [DispatchJob(i) for i in range(n)]


def _no_pool():
    raise AssertionError("an in-process run must not build a pool")


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.setattr(options, "_PLAN_CACHE", {})


class TestWhereJobsRun:
    @pytest.mark.parametrize("workers,count", [(1, 3), (4, 1), (0, 3)])
    def test_one_worker_or_one_job_runs_in_the_callers_process(
            self, monkeypatch, workers, count):
        """No process, no result queue, no degradation: the jobs run in
        this process and the run reports ``"serial"``."""
        monkeypatch.setattr(resilience, "_pool_context", _no_pool)
        sink = {}
        results, stats = dispatch(workers, _pid, _jobs(count),
                                  stats_sink=sink)
        assert results == [os.getpid()] * count
        assert multiprocessing.active_children() == []
        assert stats.backend == sink["backend"] == "serial"
        assert not set(DEGRADATION) & set(sink)

    def test_two_workers_run_the_jobs_in_other_processes(self):
        results, stats = dispatch(2, _pid, _jobs(4))
        assert os.getpid() not in results
        assert stats.backend == "supervised-pool"
        assert not set(DEGRADATION) & set(stats.counters)
        assert multiprocessing.active_children() == []

    def test_a_failed_job_reports_its_last_line_serial_or_degraded(
            self, monkeypatch):
        """The in-process loop reports a job's exception as its last line,
        whether it runs the whole run or what a degraded pool left."""
        with pytest.raises(ExperimentFailure) as serial:
            dispatch(1, _boom_on_three, _jobs(6))
        # Crash jobs 0-3 in every worker attempt: the pool degrades after
        # three crash deaths and job 3 raises in this process.
        monkeypatch.setenv("REPRO_FAULT_PLAN", ",".join(
            f"worker_crash@job:{i}*9" for i in range(4)))
        monkeypatch.setenv("REPRO_RETRIES", "8")
        before = resilience.counters_snapshot()
        with pytest.raises(ExperimentFailure) as degraded:
            dispatch(2, _boom_on_three, _jobs(6))
        counters = resilience.counters_delta(before)
        assert counters["pool_degraded"] == 1
        assert counters["degraded_serial_jobs"] > 0
        for info in (serial, degraded):
            failure, = info.value.failures
            assert (failure.index, failure.kind) == (3, "exception")
            assert failure.error == "ValueError: three is right out"
        assert multiprocessing.active_children() == []

    def test_explicit_retries_beat_the_environment(self, monkeypatch):
        """The retry budget an engine parsed at construction reaches the
        pool as an argument: ``REPRO_RETRIES`` then decides nothing."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:1*9")
        monkeypatch.setenv("REPRO_RETRIES", "several")
        with pytest.raises(ExperimentFailure) as info:
            dispatch(2, _square, _jobs(4), retries=1, timeout=0)
        failure, = info.value.failures
        assert (failure.index, failure.kind, failure.attempts) == \
            (1, "crash", 2)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
class TestDispatchContract:
    def test_results_in_order(self, workers):
        results, stats = dispatch(workers, _square, _jobs(7))
        assert results == [i * i for i in range(7)]
        assert stats.backend == BACKEND[workers]
        assert stats.inflight_peak >= 1
        assert stats.dispatch_overhead_ns >= 0

    def test_empty_submission(self, workers):
        results, stats = dispatch(workers, _square, [])
        assert results == []
        assert stats.inflight_peak == 0
        assert stats.backend == "serial"

    def test_failure_is_structured_and_late(self, workers):
        """One poisoned job: every other job completes, then a structured
        ExperimentFailure names exactly the poisoned one — identical
        failure semantics in-process and on the pool."""
        sink = {}
        with pytest.raises(ExperimentFailure) as info:
            dispatch(workers, _boom_on_three, _jobs(6), stats_sink=sink)
        assert [failure.index for failure in info.value.failures] == [3]
        assert info.value.failures[0].error == \
            "ValueError: three is right out"
        assert sink["backend"] == BACKEND[workers]

    def test_one_start_then_one_done_per_job(self, workers):
        """Completion order is the scheduler's business; per job, the
        stream is exactly one ``start`` followed by exactly one ``done``."""
        events = list(supervised_events(_square, range(6), workers))
        for index in range(6):
            assert [event for event in events if event[1] == index] == \
                [("start", index), ("done", index, index * index)]

    def test_duplicate_payloads_stay_distinct(self, workers):
        """Results are addressed by position, never by payload: equal
        payloads are neither merged nor dropped."""
        results, _stats = dispatch(workers, _square,
                                   [DispatchJob(7) for _ in range(3)])
        assert results == [49, 49, 49]
        events = list(supervised_events(_square, [7, 7, 7], workers))
        assert sorted(event[1] for event in events
                      if event[0] == "done") == [0, 1, 2]

    def test_failures_carry_job_labels(self, workers):
        """``DispatchJob.label`` names a failed job; an unlabeled job is
        named ``"<scope> <position>"``."""
        labeled = [DispatchJob(i, "gzip/indexed-3-fwd" if i == 3 else "")
                   for i in range(5)]
        with pytest.raises(ExperimentFailure) as info:
            dispatch(workers, _boom_on_three, labeled, scope="shard")
        assert [f.label for f in info.value.failures] == ["gzip/indexed-3-fwd"]
        assert "gzip/indexed-3-fwd" in str(info.value)
        with pytest.raises(ExperimentFailure) as info:
            dispatch(workers, _boom_on_three, _jobs(5), scope="shard")
        assert [f.label for f in info.value.failures] == ["shard 3"]

    def test_stats_sink_receives_flat_stats(self, workers):
        sink = {}
        _results, stats = dispatch(workers, _square, _jobs(4),
                                   stats_sink=sink)
        assert sink == stats.flat()
        assert sink["backend"] == stats.backend == BACKEND[workers]

    def test_scheduler_counters_accumulate(self, workers):
        """``scheduler_counters()`` (mirrored into every benchmark
        envelope) grows by exactly one run's worth per dispatch."""
        before = scheduler_counters()
        _results, stats = dispatch(workers, _square, _jobs(5))
        after = scheduler_counters()

        def grew(key):
            return after.get(key, 0) - before.get(key, 0)

        assert grew("dispatch_runs") == 1
        assert grew("dispatch_jobs") == 5
        assert grew("dispatch_overhead_ns") == stats.dispatch_overhead_ns

    def test_failed_run_is_still_counted(self, workers):
        before = scheduler_counters()
        with pytest.raises(ExperimentFailure):
            dispatch(workers, _boom_on_three, _jobs(4))
        after = scheduler_counters()
        assert after["dispatch_runs"] - before.get("dispatch_runs", 0) == 1
        assert after["dispatch_jobs"] - before.get("dispatch_jobs", 0) == 4


def test_in_process_events_stream_in_order():
    events = list(supervised_events(_square, range(3), 1))
    assert events == [("start", 0), ("done", 0, 0),
                      ("start", 1), ("done", 1, 1),
                      ("start", 2), ("done", 2, 4)]


class TestPoolLifecycle:
    """The supervised pool's workers live exactly as long as one run."""

    def test_workers_reaped_on_abandoned_iterator(self):
        events = supervised_events(_square, range(6), 2)
        assert next(events)[0] == "start"  # workers are up
        events.close()  # abandon mid-run: the generator's finally reaps
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunksize", [2, 3, 6])
    def test_chunked_dispatch_keeps_the_contract(self, chunksize):
        """Batching consecutive jobs per assignment (6 = one chunk holding
        every job) changes neither the position order of the results nor
        the one-start-one-done event stream per job."""
        results, _stats = dispatch(2, _square, _jobs(6), chunksize=chunksize)
        assert results == [i * i for i in range(6)]
        events = list(supervised_events(_square, range(6), 2,
                                        chunksize=chunksize))
        for index in range(6):
            assert [event for event in events if event[1] == index] == \
                [("start", index), ("done", index, index * index)]
        assert multiprocessing.active_children() == []

    def test_counters_do_not_carry_over(self, monkeypatch):
        """Each run reports its own resilience delta: a clean run after a
        faulted one reports nothing."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:1")
        results, faulted = dispatch(2, _square, _jobs(4))
        assert results == [0, 1, 4, 9]
        assert faulted.counters["worker_crashes"] == 1
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        results, clean = dispatch(2, _square, _jobs(4))
        assert results == [0, 1, 4, 9]
        assert clean.counters == {}


class TestEngineDispatch:
    def _specs(self, settings=FAST):
        return [JobSpec("gzip", name, settings)
                for name in ("oracle-associative-3", "indexed-3-fwd")]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_count_is_bit_identical(self, jobs):
        reference = ExperimentEngine(jobs=1, cache=False).run(self._specs())
        engine = ExperimentEngine(jobs=jobs, cache=False)
        records = engine.run(self._specs())
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in reference]
        assert engine.last_run_stats["backend"] == BACKEND[jobs]
        assert not set(DEGRADATION) & set(engine.last_run_stats)

    def test_one_pending_job_runs_in_process_on_a_pool_engine(self):
        engine = ExperimentEngine(jobs=4, cache=False)
        engine.run(self._specs()[:1])
        assert engine.last_run_stats["backend"] == "serial"
        assert not set(DEGRADATION) & set(engine.last_run_stats)

    def test_scheduler_stats_always_present(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(self._specs())
        for key in ("backend", "inflight_peak", "dispatch_overhead_ns"):
            assert key in engine.last_run_stats
        assert engine.last_run_stats["inflight_peak"] == 1
        # All-hits run: counters zeroed, never stale.
        engine.run(self._specs())
        assert engine.last_run_stats["inflight_peak"] == 0
        assert engine.last_run_stats["dispatch_overhead_ns"] == 0
        assert engine.last_run_stats["backend"] == "serial"

    def test_all_hits_run_reports_serial_at_any_worker_count(self, tmp_path):
        """A run that dispatches nothing reports ``"serial"`` and zeroed
        counters, even on an engine sized for the pool."""
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run(self._specs())
        assert engine.last_run_stats["backend"] == "supervised-pool"
        engine.run(self._specs())
        assert engine.last_run_stats["backend"] == "serial"
        assert engine.last_run_stats["inflight_peak"] == 0
        assert engine.last_run_stats["dispatch_overhead_ns"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "four", True])
    def test_chunksize_rejected_on_every_path(self, jobs, bad):
        """The serial path used to swallow chunksize silently; now every
        path validates it identically."""
        engine = ExperimentEngine(jobs=jobs, cache=False)
        with pytest.raises(ValueError, match="chunksize"):
            engine.run(self._specs(), chunksize=bad)

    def test_chunksize_honored_where_supported(self):
        records = ExperimentEngine(jobs=2, cache=False).run(
            self._specs(), chunksize=2)
        assert len(records) == 2
        serial = ExperimentEngine(jobs=1, cache=False).run(
            self._specs(), chunksize=2)  # validated no-op, not an error
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in serial]

    def test_serial_failure_is_structured(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        with pytest.raises(ExperimentFailure) as info:
            engine.run([JobSpec("no-such-workload", "indexed-3-fwd", FAST)])
        assert len(info.value.failures) == 1
        assert engine.last_run_stats["failures"][0]["index"] == 0
        assert engine.last_run_stats["backend"] == "serial"

    def test_stale_checkpoint_stats_do_not_carry_over(self, tmp_path):
        """Regression: a run with no sampled specs must not re-report
        the previous run's checkpoint_generated/reused/passes."""
        plan = SamplingPlan(interval_length=500, detailed_warmup=500,
                            period=5_000, seed=0)
        sampled = ExperimentSettings(instructions=20_000,
                                     stats_warmup_fraction=0.0,
                                     sampling=plan)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        engine.run([JobSpec("vortex", "indexed-3-fwd", sampled)])
        assert engine.last_run_stats["checkpoint_generated"] > 0
        engine.run(self._specs())
        for stale in ("checkpoint_generated", "checkpoint_reused",
                      "checkpoint_passes", "checkpoint_identities",
                      "checkpoint_jobs"):
            assert stale not in engine.last_run_stats
