"""Unit tests for the resilience layer (supervision, knobs, fault plans).

The supervised-pool tests drive the scheduler
(:func:`~repro.exec.resilience.supervised_events`) directly, with tiny
top-level functions as jobs (forked workers inherit them); every scenario
is bounded by explicit timeouts so a regression fails loudly instead of
hanging the suite.
"""

import ast
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import options, resilience
from repro.exec.options import EnvKnobError, RunOptions, parse_fault_plan
from repro.exec.resilience import ExperimentFailure, backoff_delay


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.setattr(options, "_PLAN_CACHE", {})


def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


def _pool_run(fn, payloads, workers, *, chunksize=1, timeout=None,
              retries=None, labels=None):
    """Run ``payloads`` through the scheduler; ``(results, counters)``."""
    results = [None] * len(payloads)
    events = resilience.supervised_events(
        fn, payloads, workers, chunksize=chunksize, timeout=timeout,
        retries=retries, labels=labels)
    while True:
        try:
            event = next(events)
        except StopIteration as stop:
            return results, stop.value
        if event[0] == "done":
            results[event[1]] = event[2]


def _assert_no_orphans():
    for child in multiprocessing.active_children():
        child.join(5.0)
    assert multiprocessing.active_children() == []


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_RETRIES", "REPRO_JOB_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        assert options.retries() == options.DEFAULT_RETRIES
        assert options.job_timeout() == options.DEFAULT_JOB_TIMEOUT_SECONDS

    def test_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        assert options.retries() == 5
        assert options.job_timeout() == 12.5

    @pytest.mark.parametrize("name,value", [
        ("REPRO_RETRIES", "abc"),
        ("REPRO_RETRIES", "-1"),
        ("REPRO_JOB_TIMEOUT", "soon"),
        ("REPRO_JOB_TIMEOUT", "-2"),
        # A deadline that never expires would let a hung worker stall
        # the pool forever (NaN compares false against every clock).
        ("REPRO_JOB_TIMEOUT", "nan"),
        ("REPRO_JOB_TIMEOUT", "inf"),
        ("REPRO_JOB_TIMEOUT", "-inf"),
    ])
    def test_malformed_values_fail_fast(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EnvKnobError, match=name) as excinfo:
            RunOptions.from_environ()
        assert "\n" not in str(excinfo.value)

    def test_from_environ_covers_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(EnvKnobError, match="REPRO_JOBS"):
            RunOptions.from_environ()

    def test_from_environ_reports_every_knob(self, monkeypatch):
        for name in ("REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR",
                     "REPRO_CHECKPOINT_DIR", "REPRO_CHECKPOINTS",
                     "REPRO_RETRIES", "REPRO_JOB_TIMEOUT", "REPRO_PROFILE",
                     "REPRO_FAULT_PLAN"):
            monkeypatch.delenv(name, raising=False)
        assert RunOptions.from_environ() == RunOptions(
            jobs=1, cache=True, cache_dir=options.DEFAULT_CACHE_DIR,
            checkpoint_dir=options.DEFAULT_CHECKPOINT_DIR,
            retries=options.DEFAULT_RETRIES,
            job_timeout=options.DEFAULT_JOB_TIMEOUT_SECONDS,
            profile_dir=None, fault_plan=None)

    @pytest.mark.parametrize("value", ["off", "no", "true"])
    def test_malformed_boolean_knobs_fail_fast(self, monkeypatch, value):
        """Only unset, empty, ``1`` and ``0`` are switch values: anything
        else fails fast instead of silently meaning "on"."""
        from repro.exec import ExperimentEngine

        monkeypatch.setenv("REPRO_CACHE", value)
        with pytest.raises(EnvKnobError) as excinfo:
            RunOptions.from_environ()
        assert "REPRO_CACHE" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        with pytest.raises(EnvKnobError, match="REPRO_CACHE"):
            ExperimentEngine(jobs=1, cache_dir=None)

    @pytest.mark.parametrize("raw,expected", [
        (None, True), ("", True), ("1", True), (" 1 ", True), ("0", False)])
    def test_boolean_knob_values(self, monkeypatch, raw, expected):
        if raw is None:
            monkeypatch.delenv("REPRO_CACHE", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE", raw)
        assert RunOptions.from_environ().cache is expected

    @pytest.mark.parametrize("value", ["0", "off", "no", "true"])
    def test_retired_checkpoints_knob_fails_fast(self, monkeypatch, value):
        """``REPRO_CHECKPOINTS=0`` selected bounded functional warming,
        which was retired: any value but ``1`` fails engine construction
        with one line naming the knob, the value and the retirement."""
        from repro.exec import ExperimentEngine

        monkeypatch.setenv("REPRO_CHECKPOINTS", value)
        with pytest.raises(EnvKnobError) as excinfo:
            RunOptions.from_environ()
        message = str(excinfo.value)
        assert "REPRO_CHECKPOINTS" in message
        assert repr(value) in message
        assert "retired" in message
        assert "\n" not in message
        with pytest.raises(EnvKnobError, match="REPRO_CHECKPOINTS"):
            ExperimentEngine(jobs=1, cache=False)

    @pytest.mark.parametrize("raw", [None, "", "1", " 1 "])
    def test_retired_checkpoints_knob_accepts_old_pins(self, monkeypatch,
                                                       raw):
        """Unset, empty and ``1`` (what older scripts pin) still pass, and
        select nothing."""
        from repro.exec import ExperimentEngine

        if raw is None:
            monkeypatch.delenv("REPRO_CHECKPOINTS", raising=False)
        else:
            monkeypatch.setenv("REPRO_CHECKPOINTS", raw)
        assert not hasattr(RunOptions.from_environ(), "checkpoints")
        ExperimentEngine(jobs=1, cache=False)

    def test_malformed_fault_plan_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "explode@everywhere")
        with pytest.raises(EnvKnobError, match="REPRO_FAULT_PLAN"):
            RunOptions.from_environ()

    def test_engine_construction_validates(self, monkeypatch):
        from repro.exec import ExperimentEngine

        monkeypatch.setenv("REPRO_RETRIES", "several")
        with pytest.raises(EnvKnobError, match="REPRO_RETRIES"):
            ExperimentEngine(jobs=1, cache=False)

    @pytest.mark.parametrize("value", ["soon", "nan"])
    def test_knob_errors_are_one_line(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", value)
        with pytest.raises(EnvKnobError) as excinfo:
            RunOptions.from_environ()
        assert "\n" not in str(excinfo.value)
        assert "REPRO_JOB_TIMEOUT" in str(excinfo.value)
        assert "use 0 to disable deadlines" in str(excinfo.value)

    def test_only_the_options_module_reads_the_environment(self):
        """Every ``os.environ`` / ``os.getenv`` reference under
        ``src/repro`` is in :mod:`repro.exec.options`."""
        package = Path(options.__file__).resolve().parents[1]
        readers = set()
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute):
                    hit = (node.attr in ("environ", "getenv")
                           and isinstance(node.value, ast.Name)
                           and node.value.id == "os")
                elif isinstance(node, ast.ImportFrom):
                    hit = node.module == "os" and any(
                        alias.name in ("environ", "getenv")
                        for alias in node.names)
                else:
                    continue
                if hit:
                    readers.add(path.relative_to(package.parent).as_posix())
        assert readers == {"repro/exec/options.py"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_reads_the_environment_once(self, monkeypatch, tmp_path,
                                               jobs):
        """A knob changed after construction does not reach the engine's
        runs: a malformed ``REPRO_RETRIES`` set then fails no dispatch,
        and a ``REPRO_PROFILE`` set then profiles nothing."""
        from repro.exec import ExperimentEngine, JobSpec
        from repro.harness.runner import ExperimentSettings

        for name in ("REPRO_RETRIES", "REPRO_PROFILE"):
            monkeypatch.delenv(name, raising=False)
        fast = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)
        specs = [JobSpec("gzip", name, fast)
                 for name in ("oracle-associative-3", "indexed-3-fwd")]
        engine = ExperimentEngine(jobs=jobs, cache=False)
        monkeypatch.setenv("REPRO_RETRIES", "several")
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path / "prof"))
        records = engine.run(specs)
        assert len(records) == len(specs)
        assert engine.last_run_stats["backend"] == (
            "serial" if jobs == 1 else "supervised-pool")
        assert "profile" not in engine.last_run_stats
        assert not (tmp_path / "prof").exists()

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

    def test_bench_entry_point_reports_retired_checkpoints_knob(self,
                                                                tmp_path):
        """A script still exporting ``REPRO_CHECKPOINTS=0`` gets one
        ``invalid environment`` line naming the retired mode, not a
        silently different run."""
        root = Path(__file__).resolve().parents[2]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(REPRO_CHECKPOINTS="0", PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "run_all.py")],
            capture_output=True, text=True, timeout=120, env=env,
            cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("invalid environment: REPRO_CHECKPOINTS")
        assert "retired" in lines[0]


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
        """One job or one worker runs in-process, which is no degradation:
        no counter at all."""
        assert _pool_run(_square, [5], workers=8) == ([25], {})
        assert _pool_run(_square, [1, 2], workers=1) == ([1, 4], {})
        assert _pool_run(_square, [], workers=4) == ([], {})

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
