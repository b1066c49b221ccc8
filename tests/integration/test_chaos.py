"""Chaos integration suite: faulted runs stay bit-identical to goldens.

The headline guarantee of PR 6: a sweep executed under injected worker
crashes, hangs, corrupt/truncated store blobs, damaged boundary handoffs,
and write failures produces **exactly** the merged counters frozen in
``tests/golden/hotpath_golden.json`` — recovery is invisible in the
results, visible only in the resilience counters.  Also covered here:
retries-exhausted structured failure (loud, bounded, never a hang),
interrupt-safe pool teardown (no orphaned workers, no leaked ``*.tmp``),
and concurrent multi-process writers on a shared store.

Every scenario is bounded by explicit deadlines (tight
``REPRO_JOB_TIMEOUT``, shrunk boundary waits, subprocess timeouts) so a
supervision regression fails fast instead of hanging CI.  The hang tests'
deadline is calibrated from a measured clean run on the same machine
(:func:`hang_timeout`), not fixed in seconds.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.exec import ExperimentEngine, ExperimentFailure, JobSpec, ResultCache
from repro.exec import resilience
from repro.harness.runner import ExperimentSettings
from repro.sampling.checkpoints import (
    CheckpointStore,
    execute_generation,
    plan_generation,
    shared_key,
    shared_signature,
)
from repro.sampling.driver import expand_sampled_spec
from repro.sampling.plan import SamplingPlan

GOLDEN_PATH = (Path(__file__).resolve().parent.parent
               / "golden" / "hotpath_golden.json")

#: The frozen sampled-checkpointed golden configuration (see
#: tests/integration/test_golden_regression.py and generate_goldens.py).
WORKLOAD = "vortex"
INSTRUCTIONS = 60_000
CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")


def _plan():
    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, functional_warmup=2_000, seed=3)


def _settings():
    return ExperimentSettings(instructions=INSTRUCTIONS, sampling=_plan(),
                              checkpoints=True)


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def _fresh_resilience_state(monkeypatch):
    from repro.exec import cache as cache_module

    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.setattr(resilience, "_PLAN_CACHE", {})
    monkeypatch.setattr(resilience, "_COUNTERS",
                        type(resilience._COUNTERS)())
    monkeypatch.setattr(cache_module, "_DEGRADED_DIRS", set())
    monkeypatch.setattr(cache_module, "_MEMORY_FALLBACK", {})


def _assert_no_orphans():
    for child in multiprocessing.active_children():
        child.join(10.0)
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def hang_timeout(tmp_path_factory):
    """A per-job deadline calibrated on this machine, in seconds.

    Times one clean serial run of the whole golden grid on fresh stores
    (checkpoint generation included) and returns ``max(2 s, 2 x that)``.
    A healthy job is shorter than the whole serial grid, and the 2x factor
    plus the engine's per-chunk deadline multiplier leave room for a
    contended machine, so only the injected hang trips the deadline.
    """
    root = tmp_path_factory.mktemp("hang-calibration")
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_FAULT_PLAN", raising=False)
        engine = ExperimentEngine(jobs=1, cache_dir=root / "cache",
                                  checkpoint_dir=root / "ckpt")
        start = time.monotonic()
        engine.run([JobSpec(WORKLOAD, config, _settings())
                    for config in CONFIGS])
        elapsed = time.monotonic() - start
    return max(2.0, 2.0 * elapsed)


def _run_faulted(tmp_path, monkeypatch, fault_plan, *, jobs=2, timeout=None,
                 shards=None):
    """One engine sweep of the golden sampled grid under ``fault_plan``."""
    monkeypatch.setenv("REPRO_FAULT_PLAN", fault_plan)
    if timeout is not None:
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", str(timeout))
    settings = _settings()
    if shards is not None:
        import dataclasses

        settings = dataclasses.replace(settings, checkpoint_shards=shards)
    specs = [JobSpec(WORKLOAD, config, settings) for config in CONFIGS]
    engine = ExperimentEngine(jobs=jobs, cache_dir=tmp_path / "cache",
                              checkpoint_dir=tmp_path / "ckpt")
    records = engine.run(specs)
    return records, engine


def _assert_matches_golden(records, golden):
    for config, record in zip(CONFIGS, records):
        want = golden["sampled_checkpointed"][f"{WORKLOAD}/{config}"]
        assert _stats_dict(record.result.stats) == want["stats"], config
        assert record.result.sampled.cpi_mean == want["cpi_mean"], config
        assert [m.cycles for m in record.result.sampled.intervals] \
            == want["interval_cycles"], config


class TestFaultedRunsMatchGoldens:
    """Each injected fault class recovers to bit-identical golden counters."""

    def test_worker_crash(self, tmp_path, monkeypatch, golden):
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "worker_crash@job:0,seed=1")
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats["worker_crashes"] == 1
        assert engine.last_run_stats["job_retries"] >= 1
        _assert_no_orphans()

    def test_worker_hang_killed_by_deadline(self, tmp_path, monkeypatch,
                                            golden, hang_timeout):
        start = time.monotonic()
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "hang@job:3", timeout=hang_timeout)
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats["job_timeouts"] == 1
        assert time.monotonic() - start < 120.0
        _assert_no_orphans()

    def test_corrupt_blobs(self, tmp_path, monkeypatch, golden):
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "corrupt_blob@p=0.2,seed=11")
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats.get("injected_corrupt_blobs", 0) > 0

    def test_truncated_checkpoint_snapshots(self, tmp_path, monkeypatch,
                                            golden):
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "truncate_blob@p=0.25,seed=4")
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats.get("injected_truncated_blobs", 0) > 0

    def test_write_errors_enospc_style(self, tmp_path, monkeypatch, golden):
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "write_error@p=0.2,seed=6")
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats.get("injected_write_errors", 0) > 0

    def test_damaged_boundary_handoffs_sharded(self, tmp_path, monkeypatch,
                                               golden):
        """Sharded generation with every blob write corrupted: boundary
        handoffs fail stitch validation and every consumer walks back to an
        exact in-process prefix recompute — slower, still bit-identical."""
        from repro.sampling import checkpoints as checkpoints_module

        monkeypatch.setattr(checkpoints_module, "_BOUNDARY_WAIT_SECONDS", 0.5)
        records, engine = _run_faulted(
            tmp_path, monkeypatch, "corrupt_blob@p=1.0,seed=2",
            jobs=2, shards=3)
        _assert_matches_golden(records, golden)
        assert engine.last_run_stats["blobs_quarantined"] > 0

    def test_combined_chaos(self, tmp_path, monkeypatch, golden,
                            hang_timeout):
        """Crashes + a hang + corrupt and truncated blobs, all at once —
        the CI chaos job's plan, asserted against the frozen goldens."""
        records, engine = _run_faulted(
            tmp_path, monkeypatch,
            "worker_crash@job:1,hang@job:5,corrupt_blob@p=0.1,"
            "truncate_blob@p=0.1,seed=13",
            timeout=hang_timeout)
        _assert_matches_golden(records, golden)
        stats = engine.last_run_stats
        assert stats["worker_crashes"] == 1
        assert stats["job_timeouts"] == 1
        _assert_no_orphans()

    def test_faulted_caches_stay_reusable(self, tmp_path, monkeypatch,
                                          golden):
        """A clean run over the stores a faulted run left behind hits the
        cache and still matches the goldens (no poisoned entries)."""
        _run_faulted(tmp_path, monkeypatch, "corrupt_blob@p=0.3,seed=5")
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        monkeypatch.setattr(resilience, "_PLAN_CACHE", {})
        specs = [JobSpec(WORKLOAD, config, _settings()) for config in CONFIGS]
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        records = engine.run(specs)
        _assert_matches_golden(records, golden)


class TestRetriesExhausted:
    def test_structured_failure_not_a_hang(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker_crash@job:2*99")
        monkeypatch.setenv("REPRO_RETRIES", "1")
        specs = [JobSpec(WORKLOAD, config, _settings()) for config in CONFIGS]
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path / "cache",
                                  checkpoint_dir=tmp_path / "ckpt")
        start = time.monotonic()
        with pytest.raises(ExperimentFailure) as excinfo:
            engine.run(specs)
        assert time.monotonic() - start < 300.0
        report = excinfo.value.report()
        assert len(report) == 1
        assert report[0]["kind"] == "crash"
        assert report[0]["attempts"] == 2
        assert WORKLOAD in report[0]["label"]
        assert engine.last_run_stats["failures"] == report
        _assert_no_orphans()


_INTERRUPT_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import signal
    import sys
    from pathlib import Path

    from repro.exec import ExperimentEngine, JobSpec
    from repro.harness.runner import ExperimentSettings

    cache_dir = Path(sys.argv[1])

    def on_alarm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGALRM, on_alarm)
    settings = ExperimentSettings(instructions=120_000,
                                  stats_warmup_fraction=0.1)
    specs = [JobSpec(w, c, settings)
             for w in ("gzip", "swim", "vortex", "mcf")
             for c in ("indexed-3-fwd", "associative-5-predictive")]
    engine = ExperimentEngine(jobs=2, cache_dir=cache_dir)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        engine.run(specs)
        print("COMPLETED-BEFORE-INTERRUPT")
        sys.exit(2)
    except KeyboardInterrupt:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for child in multiprocessing.active_children():
            child.join(10.0)
        if multiprocessing.active_children():
            print("ORPHANED-WORKERS")
            sys.exit(3)
        strays = list(cache_dir.glob("*.tmp"))
        if strays:
            print("LEAKED-TMP", strays)
            sys.exit(4)
        print("CLEAN-TEARDOWN")
""")


class TestInterruptTeardown:
    def test_keyboard_interrupt_leaves_no_orphans_or_tmp(self, tmp_path):
        """Regression for the pool-teardown satellite: SIGINT mid-grid must
        kill every worker and sweep every stranded ``*.tmp`` blob."""
        script = tmp_path / "interrupt_grid.py"
        script.write_text(_INTERRUPT_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve()
                                .parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "cache")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert "CLEAN-TEARDOWN" in proc.stdout


def _hammer_cache(directory, prefix, count):
    cache = ResultCache(directory)
    for i in range(count):
        cache.put(f"shared-{i % 8}", {"writer": prefix, "i": i})
        cache.put(f"{prefix}-{i}", i)
        cache.get(f"shared-{i % 8}")


def _clear_repeatedly(directory, rounds):
    cache = ResultCache(directory)
    for _ in range(rounds):
        cache.clear()


class TestConcurrentWriters:
    def test_two_processes_never_corrupt_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=_hammer_cache,
                               args=(tmp_path, f"w{n}", 200))
                   for n in range(2)]
        for p in writers:
            p.start()
        for p in writers:
            p.join(120)
            assert p.exitcode == 0
        cache = ResultCache(tmp_path)
        # Every entry present decodes cleanly (atomic last-writer-wins,
        # no torn frames), exactly once per key — never double-counted.
        entries = sorted(p.stem for p in tmp_path.glob("*.pkl"))
        assert len(entries) == len(set(entries)) == 8 + 2 * 200
        for i in range(8):
            value = cache.get(f"shared-{i}")
            assert value is not None and value["writer"] in ("w0", "w1")
        for n in range(2):
            for i in range(200):
                assert cache.get(f"w{n}-{i}") == i
        assert resilience.counters_snapshot().get("blobs_quarantined", 0) == 0

    def test_clear_racing_a_writer_is_safe(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=_hammer_cache,
                             args=(tmp_path, "w", 400))
        clearer = ctx.Process(target=_clear_repeatedly, args=(tmp_path, 40))
        writer.start()
        clearer.start()
        for p in (writer, clearer):
            p.join(120)
            assert p.exitcode == 0
        # Whatever survived the races decodes cleanly; nothing crashed and
        # nothing was quarantined in this (reading) process.
        cache = ResultCache(tmp_path)
        for path in tmp_path.glob("*.pkl"):
            cache.get(path.stem)
        assert resilience.counters_snapshot().get("blobs_quarantined", 0) == 0

    def test_concurrent_checkpoint_generation_converges(self, tmp_path,
                                                        monkeypatch):
        """Two processes generating the same checkpoint group: last writer
        wins per snapshot, every snapshot valid and identical to serial."""
        monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
        import dataclasses

        plan = SamplingPlan(interval_length=500, detailed_warmup=500,
                            period=5_000, functional_warmup=1_000, seed=0)
        settings = ExperimentSettings(instructions=20_000,
                                      stats_warmup_fraction=0.0,
                                      sampling=plan, checkpoints=True)
        settings = dataclasses.replace(settings, checkpoint_shards=1)

        def generate(directory):
            store = CheckpointStore(directory)
            spec = JobSpec(WORKLOAD, "indexed-3-fwd+dly", settings)
            intervals = expand_sampled_spec(
                spec, checkpointed=True, checkpoint_dir=str(store.directory))
            requests, _ = plan_generation(store, intervals)
            execute_generation(store, requests, jobs=1)

        ctx = multiprocessing.get_context("fork")
        racers = [ctx.Process(target=generate, args=(tmp_path / "shared",))
                  for _ in range(2)]
        for p in racers:
            p.start()
        for p in racers:
            p.join(300)
            assert p.exitcode == 0

        generate(tmp_path / "reference")
        shared_store = CheckpointStore(tmp_path / "shared")
        reference = CheckpointStore(tmp_path / "reference")
        count = plan.num_intervals(settings.instructions)
        assert count > 0
        for index in range(count):
            key = shared_key(WORKLOAD, settings, index)
            ours = shared_store.get(key)
            theirs = reference.get(key)
            assert ours is not None, index
            assert shared_signature(ours) == shared_signature(theirs), index
