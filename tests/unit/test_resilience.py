"""Unit tests for the resilience layer (supervision, knobs, fault plans).

The supervised-pool tests drive the scheduler through the dispatch seam
(``dispatch`` over ``SupervisedPoolBackend``) with tiny top-level
functions as jobs (forked workers inherit them); every scenario is bounded
by explicit timeouts so a regression fails loudly instead of hanging the
suite.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import DispatchJob, SupervisedPoolBackend, dispatch, resilience
from repro.exec.resilience import (
    EnvKnobError,
    ExperimentFailure,
    backoff_delay,
    parse_fault_plan,
    resolve_job_timeout,
    resolve_retries,
    validate_environment,
)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.setattr(resilience, "_PLAN_CACHE", {})


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


def _pool_run(fn, payloads, workers, *, chunksize=1, timeout=None,
              retries=None, labels=None):
    """Run ``payloads`` on a supervised pool; ``(results, counters)``."""
    jobs = [DispatchJob(index=i, payload=payload,
                        label=labels[i] if labels else "")
            for i, payload in enumerate(payloads)]
    backend = SupervisedPoolBackend(workers, timeout=timeout, retries=retries)
    results, stats = dispatch(backend, fn, jobs, chunksize=chunksize)
    return results, stats.counters


def _assert_no_orphans():
    for child in multiprocessing.active_children():
        child.join(5.0)
    assert multiprocessing.active_children() == []


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_RETRIES", "REPRO_JOB_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        assert resolve_retries() == resilience.DEFAULT_RETRIES
        assert resolve_job_timeout() == resilience.DEFAULT_JOB_TIMEOUT_SECONDS

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        assert resolve_retries() == 5
        assert resolve_job_timeout() == 12.5

    @pytest.mark.parametrize("name,value", [
        ("REPRO_RETRIES", "abc"),
        ("REPRO_RETRIES", "-1"),
        ("REPRO_JOB_TIMEOUT", "soon"),
        ("REPRO_JOB_TIMEOUT", "-2"),
    ])
    def test_malformed_values_fail_fast(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EnvKnobError, match=name):
            validate_environment()

    def test_validate_environment_covers_jobs_and_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(EnvKnobError, match="REPRO_JOBS"):
            validate_environment()
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_CHECKPOINT_SHARDS", "-4")
        with pytest.raises(EnvKnobError, match="REPRO_CHECKPOINT_SHARDS"):
            validate_environment()

    @pytest.mark.parametrize("name,value", [
        ("REPRO_JOBS", "abc"),
        ("REPRO_JOBS", "1.5"),
        ("REPRO_CHECKPOINT_SHARDS", "many"),
        ("REPRO_CHECKPOINT_SHARDS", "-3"),
    ])
    def test_resolvers_and_validation_share_one_parser(self, monkeypatch,
                                                       name, value):
        """``resolve_jobs`` and ``resolve_checkpoint_shards`` read their
        knob with the parser ``validate_environment`` uses: the same
        one-line error, wherever the bad value is first read."""
        from repro.exec import resolve_jobs
        from repro.sampling.checkpoints import resolve_checkpoint_shards

        resolver = {"REPRO_JOBS": resolve_jobs,
                    "REPRO_CHECKPOINT_SHARDS": resolve_checkpoint_shards}[name]
        monkeypatch.setenv(name, value)
        with pytest.raises(EnvKnobError) as validated:
            validate_environment()
        with pytest.raises(EnvKnobError) as resolved:
            resolver()
        assert str(resolved.value) == str(validated.value)
        assert name in str(resolved.value)
        assert "\n" not in str(resolved.value)

    def test_malformed_fault_plan_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "explode@everywhere")
        with pytest.raises(EnvKnobError, match="REPRO_FAULT_PLAN"):
            validate_environment()

    def test_engine_construction_validates(self, monkeypatch):
        from repro.exec import ExperimentEngine

        monkeypatch.setenv("REPRO_RETRIES", "several")
        with pytest.raises(EnvKnobError, match="REPRO_RETRIES"):
            ExperimentEngine(jobs=1, cache=False)

    def test_knob_errors_are_one_line(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(EnvKnobError) as excinfo:
            validate_environment()
        assert "\n" not in str(excinfo.value)
        assert "REPRO_JOB_TIMEOUT" in str(excinfo.value)

    def test_bench_entry_point_reports_malformed_jobs(self, tmp_path):
        """``run_all.py`` with ``REPRO_JOBS=abc``: one ``invalid
        environment`` line and exit 2, not an import-time traceback."""
        root = Path(__file__).resolve().parents[2]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(REPRO_JOBS="abc", PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "run_all.py")],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("invalid environment: ")
        assert "REPRO_JOBS" in lines[0]


class TestBackoff:
    def test_deterministic_and_growing(self):
        assert backoff_delay(1, "a") == backoff_delay(1, "a")
        assert backoff_delay(1, "a") != backoff_delay(1, "b")
        # Exponential envelope: attempt n+2's floor clears attempt n's cap.
        assert backoff_delay(4, "x") > backoff_delay(1, "x")
        assert all(0 < backoff_delay(n, "t") <= 5.0 for n in range(1, 12))


class TestFaultPlanParsing:
    def test_grammar(self):
        plan = parse_fault_plan(
            "worker_crash@job:3,corrupt_blob@p=0.1,hang@shard:1,"
            "worker_crash@job:0*2,seed=42")
        assert plan.seed == 42
        assert plan.job_fault("job", 3, 0) == "worker_crash"
        assert plan.job_fault("job", 3, 1) is None  # first attempt only
        assert plan.job_fault("job", 0, 1) == "worker_crash"  # *2 repeats
        assert plan.job_fault("shard", 1, 0) == "hang"
        assert plan.job_fault("shard", 3, 0) is None  # scope mismatch

    def test_blob_faults_are_seeded_and_fire_once(self):
        plan = parse_fault_plan("corrupt_blob@p=0.25,seed=7")
        keys = [f"key{i}" for i in range(400)]
        hits = [k for k in keys if plan.blob_fault(k)]
        assert 40 < len(hits) < 160  # ~25% of 400, loose bounds
        assert all(plan.blob_fault(k) is None for k in hits)  # fired once
        again = parse_fault_plan("corrupt_blob@p=0.25,seed=7")
        assert [k for k in keys if again.blob_fault(k)] == hits
        other_seed = parse_fault_plan("corrupt_blob@p=0.25,seed=8")
        assert [k for k in keys if other_seed.blob_fault(k)] != hits

    @pytest.mark.parametrize("bad", [
        "worker_crash",            # no selector
        "bogus@job:1",             # unknown kind
        "corrupt_blob@job:2",      # blob fault with job selector
        "hang@p=0.5",              # job fault with probability selector
        "worker_crash@job:x",      # non-integer index
        "worker_crash@job:1*lots", # non-integer repeat
        "seed=zz",                 # non-integer seed
        "corrupt_blob@p=2",        # probability out of range
        "corrupt_blob@p=ten",      # non-numeric probability
    ])
    def test_malformed_plans_rejected(self, bad):
        with pytest.raises(EnvKnobError, match="REPRO_FAULT_PLAN"):
            parse_fault_plan(bad)


class TestSupervisedPool:
    def test_happy_path_order_and_no_overhead_counters(self):
        results, stats = _pool_run(_square, list(range(20)), workers=4,
                                   chunksize=3)
        assert results == [i * i for i in range(20)]
        assert stats == {}
        _assert_no_orphans()

    def test_serial_degenerate_cases(self):
        assert _pool_run(_square, [5], workers=8)[0] == [25]
        assert _pool_run(_square, [1, 2], workers=1)[0] == [1, 4]
        assert _pool_run(_square, [], workers=4)[0] == []

    def test_worker_crash_is_retried_bit_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:2")
        results, stats = _pool_run(_square, list(range(8)), workers=3,
                                   chunksize=2)
        assert results == [i * i for i in range(8)]
        assert stats["worker_crashes"] == 1
        assert stats["pool_respawns"] == 1  # self-healing
        assert stats["job_retries"] >= 1
        _assert_no_orphans()

    def test_hang_is_killed_at_deadline_and_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "hang@job:1")
        start = time.monotonic()
        results, stats = _pool_run(_square, list(range(6)), workers=2,
                                   chunksize=1, timeout=1.5)
        assert results == [i * i for i in range(6)]
        assert stats["job_timeouts"] == 1
        assert time.monotonic() - start < 30.0
        _assert_no_orphans()

    def test_retries_exhausted_is_structured_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:4*9")
        with pytest.raises(ExperimentFailure) as excinfo:
            _pool_run(_square, list(range(6)), workers=2, retries=2,
                      labels=[f"wl/cfg#{i}" for i in range(6)])
        report = excinfo.value.report()
        assert len(report) == 1
        assert report[0]["index"] == 4
        assert report[0]["label"] == "wl/cfg#4"
        assert report[0]["kind"] == "crash"
        assert report[0]["attempts"] == 3  # initial + 2 retries
        assert "wl/cfg#4" in str(excinfo.value)
        _assert_no_orphans()

    def test_job_exception_is_permanent_and_chunkmates_survive(self):
        with pytest.raises(ExperimentFailure) as excinfo:
            _pool_run(_boom_on_three, list(range(8)), workers=2,
                      chunksize=4)
        failures = excinfo.value.failures
        assert [f.index for f in failures] == [3]
        assert failures[0].kind == "exception"
        assert failures[0].attempts == 0  # never retried
        assert "boom on 3" in failures[0].error
        _assert_no_orphans()

    def test_repeated_crashes_degrade_to_serial(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            ",".join(f"worker_crash@job:{i}*9" for i in range(4)))
        results, stats = _pool_run(_square, list(range(10)), workers=2,
                                   retries=8)
        # Degraded serial execution runs in-process where crash injection
        # is inert — the jobs complete with the exact same results.
        assert results == [i * i for i in range(10)]
        assert stats["pool_degraded"] == 1
        assert stats["degraded_serial_jobs"] > 0
        assert stats["worker_crashes"] >= 3
        _assert_no_orphans()

    def test_counters_reach_engine_stats(self, monkeypatch, tmp_path):
        from repro.exec import ExperimentEngine, JobSpec
        from repro.harness.runner import ExperimentSettings

        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:0")
        fast = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)
        specs = [JobSpec("gzip", name, fast)
                 for name in ("oracle-associative-3", "indexed-3-fwd")]
        engine = ExperimentEngine(jobs=2, cache=False)
        faulted = engine.run(specs)
        assert engine.last_run_stats["worker_crashes"] == 1
        assert engine.last_run_stats["job_retries"] >= 1
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        clean = ExperimentEngine(jobs=1, cache=False).run(specs)
        assert [r.result.stats.as_dict() for r in faulted] == \
            [r.result.stats.as_dict() for r in clean]

    def test_failure_report_lands_in_engine_stats(self, monkeypatch):
        from repro.exec import ExperimentEngine, JobSpec
        from repro.harness.runner import ExperimentSettings

        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "worker_crash@job:1*9")
        monkeypatch.setenv("REPRO_RETRIES", "1")
        fast = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)
        specs = [JobSpec("gzip", name, fast)
                 for name in ("oracle-associative-3", "indexed-3-fwd")]
        engine = ExperimentEngine(jobs=2, cache=False)
        with pytest.raises(ExperimentFailure):
            engine.run(specs)
        report = engine.last_run_stats["failures"]
        assert len(report) == 1
        assert report[0]["label"] == "gzip/indexed-3-fwd"
        assert report[0]["kind"] == "crash"
        _assert_no_orphans()
