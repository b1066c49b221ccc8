"""Unit tests for the execution subsystem (engine, cache, fingerprints)."""

import dataclasses
import pickle

import pytest

from repro.core.predictors import PredictorSuiteConfig
from repro.exec import (
    ExperimentEngine,
    JobSpec,
    ResultCache,
    available_cpus,
    job_key,
    resolve_jobs,
    run_job,
    simulator_fingerprint,
    workload_fingerprint,
)
from repro.exec.options import EnvKnobError
from repro.harness.runner import ExperimentSettings
from repro.pipeline.config import CoreConfig

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert ExperimentEngine(cache=False).jobs == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentEngine(cache=False).jobs == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentEngine(jobs=2, cache=False).jobs == 2

    def test_nonpositive_means_all_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert ExperimentEngine(cache=False).jobs == available_cpus()
        assert resolve_jobs(0) == available_cpus()

    @pytest.mark.parametrize("bad", ["abc", "1.5"])
    def test_invalid_environment_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(EnvKnobError, match="REPRO_JOBS"):
            ExperimentEngine(cache=False)

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert ExperimentEngine(cache=False).jobs == 1

    def test_all_cpus_respects_affinity(self, monkeypatch):
        """"All CPUs" is the CPUs *this process* may run on, not the
        machine total — cgroup/affinity-limited runners must not be
        oversubscribed."""
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 2
        monkeypatch.setenv("REPRO_JOBS", "-1")
        assert ExperimentEngine(cache=False).jobs == 2

    def test_affinity_unavailable_falls_back_to_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6

    def test_settings_plumbing(self):
        engine = ExperimentEngine.from_settings(
            ExperimentSettings(jobs=5), cache=False)
        assert engine.jobs == 5


class TestCacheKey:
    def test_identical_settings_identical_key(self):
        a = JobSpec("gzip", "indexed-3-fwd", ExperimentSettings(instructions=800))
        b = JobSpec("gzip", "indexed-3-fwd", ExperimentSettings(instructions=800))
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize("change", [
        dict(instructions=900),
        dict(seed=2),
        dict(sq_size=32),
        dict(stats_warmup_fraction=0.3),
        dict(core=CoreConfig(rob_size=256)),
    ])
    def test_settings_change_changes_key(self, change):
        base = JobSpec("gzip", "indexed-3-fwd", ExperimentSettings(instructions=800))
        other = JobSpec("gzip", "indexed-3-fwd",
                        dataclasses.replace(ExperimentSettings(instructions=800), **change))
        assert job_key(base) != job_key(other)

    def test_workload_config_predictors_in_key(self):
        base = JobSpec("gzip", "indexed-3-fwd", FAST)
        assert job_key(base) != job_key(dataclasses.replace(base, workload="swim"))
        assert job_key(base) != job_key(dataclasses.replace(base, config_name="associative-3"))
        assert job_key(base) != job_key(dataclasses.replace(
            base, predictors=PredictorSuiteConfig().with_fsp_assoc(4)))

    def test_jobs_knob_excluded_from_key(self):
        serial = JobSpec("gzip", "indexed-3-fwd",
                         ExperimentSettings(instructions=800, jobs=1))
        parallel = JobSpec("gzip", "indexed-3-fwd",
                           ExperimentSettings(instructions=800, jobs=8))
        assert job_key(serial) == job_key(parallel)

    def test_fingerprints_are_stable_hex(self):
        assert simulator_fingerprint() == simulator_fingerprint()
        assert len(workload_fingerprint()) == 64
        assert simulator_fingerprint() != workload_fingerprint()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, {"value": 42})
        assert cache.get("k" * 64) == {"value": 42}
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get("k" * 64) is None

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None

    def test_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = ResultCache()
        cache.put("k", 1)
        assert (tmp_path / "elsewhere" / "k.pkl").exists()


class TestTmpStrayHygiene:
    """A worker SIGKILLed mid-``put`` strands a ``*.tmp`` blob no ``except``
    ever sees; strays must stay invisible to lookups, be swept when stale,
    and never outlive ``clear()``."""

    @staticmethod
    def _orphan(tmp_path, name="orphan.tmp", age_seconds=0.0):
        import os
        import time

        path = tmp_path / name
        path.write_bytes(b"half-written entry")
        if age_seconds:
            stamp = time.time() - age_seconds
            os.utime(path, (stamp, stamp))
        return path

    @pytest.fixture(autouse=True)
    def _fresh_sweep_state(self, monkeypatch):
        from repro.exec import cache as cache_module

        monkeypatch.setattr(cache_module, "_SWEPT_DIRS", set())

    def test_strays_are_invisible_to_len_and_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        self._orphan(tmp_path)
        assert len(cache) == 1
        assert all(p.suffix == ".pkl" for p in cache._entries())

    def test_construction_sweeps_stale_strays_only(self, tmp_path):
        stale = self._orphan(tmp_path, "stale.tmp", age_seconds=7200.0)
        fresh = self._orphan(tmp_path, "fresh.tmp")  # a write in flight
        ResultCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()

    def test_sweep_runs_once_per_directory_per_process(self, tmp_path):
        ResultCache(tmp_path)
        stale = self._orphan(tmp_path, "late.tmp", age_seconds=7200.0)
        ResultCache(tmp_path)  # same directory: hygiene, not per-job work
        assert stale.exists()

    def test_clear_sweeps_strays_beyond_a_short_grace(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        stray = self._orphan(tmp_path, "stray.tmp", age_seconds=120.0)
        in_flight = self._orphan(tmp_path, "inflight.tmp")  # another process
        assert cache.clear() == 1  # entry count: strays are not entries
        assert not stray.exists()
        assert in_flight.exists()  # never race a live writer's os.replace


class TestStoreIntegrity:
    """Framed blobs: checksum-verified reads, quarantine, write-failure
    degradation to the bounded in-memory fallback."""

    @pytest.fixture(autouse=True)
    def _fresh_store_state(self, monkeypatch):
        from repro.exec import cache as cache_module
        from repro.exec import options, resilience

        monkeypatch.setattr(cache_module, "_DEGRADED_DIRS", set())
        monkeypatch.setattr(cache_module, "_MEMORY_FALLBACK", {})
        monkeypatch.setattr(resilience, "_COUNTERS",
                            type(resilience._COUNTERS)())
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        monkeypatch.setattr(options, "_PLAN_CACHE", {})

    def test_blobs_are_framed_with_checksum(self, tmp_path):
        from repro.exec.cache import _BLOB_MAGIC

        cache = ResultCache(tmp_path)
        cache.put("k", {"value": 42})
        blob = (tmp_path / "k.pkl").read_bytes()
        assert blob.startswith(_BLOB_MAGIC)
        assert cache.get("k") == {"value": 42}

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:len(blob) // 2],                    # truncated
        lambda blob: blob[:-4] + b"\x00\x00\x00\x00",          # bit rot
        lambda blob: b"not a framed blob at all",              # foreign junk
        lambda blob: b"",                                      # empty file
    ])
    def test_damaged_blob_is_quarantined_miss(self, tmp_path, damage):
        from repro.exec import resilience

        cache = ResultCache(tmp_path)
        cache.put("k", {"value": 42})
        path = tmp_path / "k.pkl"
        path.write_bytes(damage(path.read_bytes()))
        assert cache.get("k") is None
        assert not path.exists()  # moved aside, not left to re-fail
        assert (tmp_path / "quarantine" / "k.pkl").exists()
        assert resilience.counters_snapshot()["blobs_quarantined"] == 1
        # Quarantined blobs are invisible to entry listings and survive
        # a recompute-repair cycle without interfering with it.
        assert len(cache) == 0
        cache.put("k", {"value": 42})
        assert cache.get("k") == {"value": 42}

    def test_quarantine_emptied_by_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", 1)
        (tmp_path / "k.pkl").write_bytes(b"junk")
        assert cache.get("k") is None
        cache.clear()
        assert list((tmp_path / "quarantine").glob("*.pkl")) == []

    def test_enospc_degrades_to_memory_fallback(self, tmp_path, monkeypatch):
        import errno

        from repro.exec import resilience

        import os as os_module

        cache = ResultCache(tmp_path)
        cache.put("before", 1)
        real_replace = os_module.replace

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.exec.cache.os.replace", full_disk)
        cache.put("k", {"value": 42})  # must not raise
        monkeypatch.setattr("repro.exec.cache.os.replace", real_replace)
        assert cache.get("k") == {"value": 42}  # served from memory
        assert not (tmp_path / "k.pkl").exists()
        counters = resilience.counters_snapshot()
        assert counters["store_write_errors"] == 1
        # The directory stays degraded: later puts skip the broken disk.
        cache.put("later", 7)
        assert cache.get("later") == 7
        assert not (tmp_path / "later.pkl").exists()
        assert counters["store_write_errors"] == 1  # no repeat OS errors
        assert cache.get("before") == 1  # earlier disk entries still serve

    def test_memory_fallback_is_bounded_lru(self, tmp_path, monkeypatch):
        from repro.exec import cache as cache_module

        monkeypatch.setattr(cache_module, "_MEMORY_FALLBACK_LIMIT", 4)
        cache = ResultCache(tmp_path)
        cache_module._DEGRADED_DIRS.add(str(cache.directory))
        for i in range(8):
            cache.put(f"k{i}", i)
        assert cache.get("k0") is None  # evicted
        assert cache.get("k7") == 7

    def test_memory_fallback_preserves_copy_semantics(self, tmp_path):
        from repro.exec import cache as cache_module

        cache = ResultCache(tmp_path)
        cache_module._DEGRADED_DIRS.add(str(cache.directory))
        value = {"mutable": [1]}
        cache.put("k", value)
        value["mutable"].append(2)  # caller mutates after put
        assert cache.get("k") == {"mutable": [1]}  # store kept the snapshot

    def test_vanished_tmp_is_lost_write_not_degradation(self, tmp_path,
                                                        monkeypatch):
        from repro.exec import cache as cache_module
        from repro.exec import resilience

        cache = ResultCache(tmp_path)
        real_replace = cache_module.os.replace

        def vanished(src, dst):
            raise FileNotFoundError(src)

        monkeypatch.setattr("repro.exec.cache.os.replace", vanished)
        cache.put("k", 1)  # must not raise
        monkeypatch.setattr("repro.exec.cache.os.replace", real_replace)
        assert str(cache.directory) not in cache_module._DEGRADED_DIRS
        assert resilience.counters_snapshot()["store_lost_writes"] == 1
        cache.put("k", 2)  # the disk still works
        assert (tmp_path / "k.pkl").exists()

    def test_injected_corrupt_blob_recovers(self, tmp_path, monkeypatch):
        from repro.exec import resilience

        monkeypatch.setenv("REPRO_FAULT_PLAN", "corrupt_blob@p=1.0")
        cache = ResultCache(tmp_path)
        cache.put("k", {"value": 42})
        assert cache.get("k") is None  # checksum catches the damage
        cache.put("k", {"value": 42})  # fault fires once per key
        assert cache.get("k") == {"value": 42}
        counters = resilience.counters_snapshot()
        assert counters["injected_corrupt_blobs"] == 1
        assert counters["blobs_quarantined"] == 1

    def test_injected_truncated_blob_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "truncate_blob@p=1.0")
        cache = ResultCache(tmp_path)
        cache.put("k", list(range(100)))
        assert cache.get("k") is None
        cache.put("k", list(range(100)))
        assert cache.get("k") == list(range(100))

    def test_injected_write_error_serves_from_memory(self, tmp_path,
                                                     monkeypatch):
        from repro.exec import cache as cache_module

        monkeypatch.setenv("REPRO_FAULT_PLAN", "write_error@p=1.0")
        cache = ResultCache(tmp_path)
        cache.put("k", 5)
        assert not (tmp_path / "k.pkl").exists()
        assert cache.get("k") == 5
        # Injection is per-key, not a real broken disk: no degradation.
        assert str(cache.directory) not in cache_module._DEGRADED_DIRS

    def test_checkpoint_contains_sees_memory_fallback(self, tmp_path):
        from repro.exec import cache as cache_module
        from repro.sampling.checkpoints import CheckpointStore

        store = CheckpointStore(tmp_path)
        cache_module._DEGRADED_DIRS.add(str(store.directory))
        store.put("k", 1)
        assert store.contains("k")
        assert not store.contains("missing")


class TestEngine:
    def _specs(self, settings=FAST):
        return [JobSpec("gzip", name, settings)
                for name in ("oracle-associative-3", "indexed-3-fwd")]

    def test_cache_miss_then_hit(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        first = engine.run(self._specs())
        assert engine.last_run_stats["cache_hits"] == 0
        assert engine.last_run_stats["simulated"] == 2
        second = engine.run(self._specs())
        assert engine.last_run_stats["cache_hits"] == 2
        assert engine.last_run_stats["simulated"] == 0
        assert [r.result.stats.as_dict() for r in first] == \
            [r.result.stats.as_dict() for r in second]

    def test_settings_change_is_a_miss(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(self._specs())
        changed = dataclasses.replace(FAST, instructions=900)
        engine.run(self._specs(settings=changed))
        assert engine.last_run_stats["cache_hits"] == 0
        assert engine.last_run_stats["simulated"] == 2

    def test_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        engine = ExperimentEngine(jobs=1)
        assert engine.cache is None
        engine.run(self._specs())
        assert engine.last_run_stats["cache_hits"] == 0

    def test_explicit_cache_dir_overrides_env_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        assert engine.cache is not None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ExperimentEngine(jobs=1, cache=False, cache_dir=tmp_path).cache is None

    def test_parallel_matches_serial(self):
        serial = ExperimentEngine(jobs=1, cache=False).run(self._specs())
        parallel = ExperimentEngine(jobs=2, cache=False).run(self._specs())
        assert [r.result.stats.as_dict() for r in serial] == \
            [r.result.stats.as_dict() for r in parallel]

    def test_order_preserved(self):
        specs = [JobSpec(w, "indexed-3-fwd", FAST) for w in ("swim", "gzip", "swim")]
        records = ExperimentEngine(jobs=2, cache=False).run(specs)
        assert [r.workload for r in records] == ["swim", "gzip", "swim"]

    def test_spec_and_record_picklable(self):
        spec = self._specs()[0]
        assert pickle.loads(pickle.dumps(spec)) == spec
        record = run_job(spec)
        clone = pickle.loads(pickle.dumps(record))
        assert clone.result.stats.cycles == record.result.stats.cycles
