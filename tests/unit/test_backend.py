"""Unit tests for the execution-backend seam.

Backend resolution by worker count, the dispatcher's ordering and
observability contract, dependency handling, and the engine-level
satellites (chunksize honored-or-rejected everywhere, scheduler stats in
``last_run_stats``, stale checkpoint-stat carry-over).
"""

import contextlib
import multiprocessing
import signal

import pytest

from repro.exec import (
    DispatchJob,
    ExperimentEngine,
    ExperimentFailure,
    JobSpec,
    SerialBackend,
    SupervisedPoolBackend,
    dispatch,
    resilience,
    resolve_backend,
    scheduler_counters,
)
from repro.harness.runner import ExperimentSettings
from repro.sampling.plan import SamplingPlan

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _jobs(n, deps=None):
    return [DispatchJob(index=i, payload=i,
                        deps=tuple(deps.get(i, ())) if deps else ())
            for i in range(n)]


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the enclosed block with ``TimeoutError`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


ALL_BACKENDS = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: SupervisedPoolBackend(2), id="supervised-pool"),
]


def test_worker_count_picks_the_backend():
    assert resolve_backend(1).name == "serial"
    assert resolve_backend(4).name == "supervised-pool"


def test_pool_is_sized_to_the_worker_count():
    assert resolve_backend(3).workers == 3
    assert resolve_backend(2) is not resolve_backend(2)  # no shared state
    # A pool asked for no workers still runs one (in-process).
    backend = SupervisedPoolBackend(0)
    assert backend.workers == 1
    assert dispatch(backend, _square, _jobs(3))[0] == [0, 1, 4]


class TestDispatchContract:
    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_results_in_order(self, make):
        results, stats = dispatch(make(), _square, _jobs(7))
        assert results == [i * i for i in range(7)]
        assert stats.backend == make().name
        assert stats.queue_depth_peak == 7
        assert stats.inflight_peak >= 1
        assert stats.dispatch_overhead_ns >= 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_empty_submission(self, make):
        results, stats = dispatch(make(), _square, [])
        assert results == []
        assert stats.inflight_peak == 0

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_dependencies_respected(self, make):
        """A chain 0 -> 2 -> 4 plus independent fillers completes with the
        right values on every backend (gating style is backend-specific,
        correctness is not)."""
        deps = {2: (0,), 4: (2,), 5: (1, 3)}
        results, _stats = dispatch(make(), _square, _jobs(6, deps))
        assert results == [i * i for i in range(6)]

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_failure_is_structured_and_late(self, make):
        """One poisoned job: every other job completes, then a structured
        ExperimentFailure names exactly the poisoned one — identical
        failure semantics on serial and pool."""
        sink = {}
        with pytest.raises(ExperimentFailure) as info:
            dispatch(make(), _boom_on_three, _jobs(6), stats_sink=sink)
        assert [failure.index for failure in info.value.failures] == [3]
        assert "three is right out" in info.value.failures[0].error
        assert sink["backend"] == make().name

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_one_start_then_one_done_per_job(self, make):
        """Completion order is the backend's business; per job, the stream
        is exactly one ``start`` followed by exactly one ``done``."""
        events = []
        dispatch(make(), _square, _jobs(6), on_event=events.append)
        for index in range(6):
            assert [event for event in events if event[1] == index] == \
                [("start", index), ("done", index, index * index)]

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_duplicate_payloads_stay_distinct(self, make):
        """Results are addressed by index, never by payload: equal
        payloads are neither merged nor dropped."""
        jobs = [DispatchJob(index=i, payload=7) for i in range(3)]
        events = []
        results, _stats = dispatch(make(), _square, jobs,
                                   on_event=events.append)
        assert results == [49, 49, 49]
        assert sorted(event[1] for event in events
                      if event[0] == "done") == [0, 1, 2]

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_failures_carry_job_labels(self, make):
        """``DispatchJob.label`` names a failed job; an unlabeled job is
        named ``"<scope> <index>"``."""
        labeled = [DispatchJob(index=i, payload=i,
                               label="gzip/indexed-3-fwd" if i == 3 else "")
                   for i in range(5)]
        with pytest.raises(ExperimentFailure) as info:
            dispatch(make(), _boom_on_three, labeled, scope="shard")
        assert [f.label for f in info.value.failures] == ["gzip/indexed-3-fwd"]
        assert "gzip/indexed-3-fwd" in str(info.value)
        with pytest.raises(ExperimentFailure) as info:
            dispatch(make(), _boom_on_three, _jobs(5), scope="shard")
        assert [f.label for f in info.value.failures] == ["shard 3"]

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_stats_sink_receives_flat_stats(self, make):
        sink = {}
        _results, stats = dispatch(make(), _square, _jobs(4),
                                   stats_sink=sink)
        assert sink == stats.flat()
        assert sink["backend"] == stats.backend == make().name
        assert sink["queue_depth_peak"] == 4

    @pytest.mark.parametrize("make", ALL_BACKENDS)
    def test_scheduler_counters_accumulate(self, make):
        """``scheduler_counters()`` (mirrored into every benchmark
        envelope) grows by exactly one run's worth per dispatch."""
        before = scheduler_counters()
        _results, stats = dispatch(make(), _square, _jobs(5))
        after = scheduler_counters()

        def grew(key):
            return after.get(key, 0) - before.get(key, 0)

        assert grew("dispatch_runs") == 1
        assert grew("dispatch_jobs") == 5
        assert grew("dispatch_overhead_ns") == stats.dispatch_overhead_ns

    def test_failed_run_is_still_counted(self):
        before = scheduler_counters()
        with pytest.raises(ExperimentFailure):
            dispatch(SerialBackend(), _boom_on_three, _jobs(4))
        after = scheduler_counters()
        assert after["dispatch_runs"] - before.get("dispatch_runs", 0) == 1
        assert after["dispatch_jobs"] - before.get("dispatch_jobs", 0) == 4

    def test_index_must_match_position(self):
        with pytest.raises(ValueError, match="list position"):
            dispatch(SerialBackend(), _square, [DispatchJob(index=1, payload=1)])

    def test_deps_must_point_earlier(self):
        with pytest.raises(ValueError, match="earlier jobs"):
            dispatch(SerialBackend(), _square,
                     [DispatchJob(index=0, payload=0, deps=(0,))])

    def test_events_stream_through_hook(self):
        events = []
        dispatch(SerialBackend(), _square, _jobs(3), on_event=events.append)
        assert events == [("start", 0), ("done", 0, 0),
                          ("start", 1), ("done", 1, 1),
                          ("start", 2), ("done", 2, 4)]


class TestPoolLifecycle:
    """The supervised pool's workers live exactly as long as one submit."""

    def test_workers_reaped_on_abandoned_iterator(self):
        events = SupervisedPoolBackend(2).submit(_square, _jobs(6))
        assert next(events)[0] == "start"  # workers are up
        events.close()  # abandon mid-run: the generator's finally reaps
        assert multiprocessing.active_children() == []

    def test_hook_exception_tears_workers_down(self):
        def observer(event):
            if event[0] == "done":
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            dispatch(SupervisedPoolBackend(2), _square, _jobs(6),
                     on_event=observer)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunksize", [2, 3, 6])
    def test_dependencies_inside_a_chunk(self, chunksize):
        """A dependency that shares its job's chunk is dispatched with it,
        so it must not hold the chunk back (it used to, forever)."""
        deps = {2: (0,), 4: (2,), 5: (1, 3)}
        with _time_limit(60):
            results, _stats = dispatch(SupervisedPoolBackend(2), _square,
                                       _jobs(6, deps), chunksize=chunksize)
        assert results == [i * i for i in range(6)]

    def test_counters_do_not_carry_over(self, monkeypatch):
        """Each submit reports its own resilience delta: a clean run after
        a faulted one on the same backend reports nothing."""
        monkeypatch.setattr(resilience, "_PLAN_CACHE", {})
        backend = SupervisedPoolBackend(2)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:1")
        results, faulted = dispatch(backend, _square, _jobs(4))
        assert results == [0, 1, 4, 9]
        assert faulted.counters["worker_crashes"] == 1
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        results, clean = dispatch(backend, _square, _jobs(4))
        assert results == [0, 1, 4, 9]
        assert clean.counters == {}
        assert backend.last_submit_stats == {}


class TestEngineSeam:
    def _specs(self, settings=FAST):
        return [JobSpec("gzip", name, settings)
                for name in ("oracle-associative-3", "indexed-3-fwd")]

    @pytest.mark.parametrize("jobs,name", [(1, "serial"),
                                           (2, "supervised-pool")])
    def test_forced_backend_bit_identical(self, jobs, name):
        reference = ExperimentEngine(jobs=1, cache=False).run(self._specs())
        engine = ExperimentEngine(jobs=jobs, cache=False)
        records = engine.run(self._specs())
        assert [r.result.stats.as_dict() for r in records] == \
            [r.result.stats.as_dict() for r in reference]
        assert engine.last_run_stats["backend"] == name

    def test_scheduler_stats_always_present(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(self._specs())
        for key in ("backend", "queue_depth_peak", "inflight_peak",
                    "dispatch_overhead_ns"):
            assert key in engine.last_run_stats
        assert engine.last_run_stats["queue_depth_peak"] == 2
        # All-hits run: counters zeroed, never stale.
        engine.run(self._specs())
        assert engine.last_run_stats["queue_depth_peak"] == 0
        assert engine.last_run_stats["backend"] == "serial"

    def test_all_hits_run_reports_serial_at_any_worker_count(self, tmp_path):
        """A run that dispatches nothing reports ``"serial"`` and zeroed
        counters, even on an engine sized for the pool."""
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run(self._specs())
        assert engine.last_run_stats["backend"] == "supervised-pool"
        engine.run(self._specs())
        assert engine.last_run_stats["backend"] == "serial"
        assert engine.last_run_stats["queue_depth_peak"] == 0
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
        """Regression: a run with no checkpointed specs must not re-report
        the previous run's checkpoint_generated/reused/passes."""
        plan = SamplingPlan(interval_length=500, detailed_warmup=500,
                            period=5_000, functional_warmup=1_000, seed=0)
        sampled = ExperimentSettings(instructions=20_000,
                                     stats_warmup_fraction=0.0,
                                     sampling=plan, checkpoints=True)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        engine.run([JobSpec("vortex", "indexed-3-fwd", sampled)])
        assert engine.last_run_stats["checkpoint_generated"] > 0
        engine.run(self._specs())
        for stale in ("checkpoint_generated", "checkpoint_reused",
                      "checkpoint_passes", "checkpoint_identities"):
            assert stale not in engine.last_run_stats
