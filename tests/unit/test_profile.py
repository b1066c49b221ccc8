"""Unit tests for the ``REPRO_PROFILE`` knob.

Knob validation, run-scoped ``cProfile`` dumps, hotspot aggregation in
``last_run_stats``, and the guarantee that profiling changes no statistic.
"""

import os

import pytest

from repro.exec import ExperimentEngine, JobSpec
from repro.exec.jobs import run_job
from repro.exec.resilience import EnvKnobError, resolve_profile_dir
from repro.harness.runner import ExperimentSettings, run_workload
from repro.workloads.suites import build_workload

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


def _stats_dict(result):
    return dict(sorted(result.stats.as_dict().items()))


class TestProfileKnob:
    def test_unset_zero_and_empty_disable(self, monkeypatch):
        for raw in (None, "", "0"):
            if raw is None:
                monkeypatch.delenv("REPRO_PROFILE", raising=False)
            else:
                monkeypatch.setenv("REPRO_PROFILE", raw)
            assert resolve_profile_dir() is None

    def test_one_means_default_directory(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert resolve_profile_dir() == ".repro-profile"

    def test_path_is_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path / "prof"))
        assert resolve_profile_dir() == str(tmp_path / "prof")

    def test_existing_file_is_an_env_knob_error(self, monkeypatch, tmp_path):
        clash = tmp_path / "not-a-dir"
        clash.write_text("x")
        monkeypatch.setenv("REPRO_PROFILE", str(clash))
        with pytest.raises(EnvKnobError, match="REPRO_PROFILE"):
            resolve_profile_dir()
        with pytest.raises(EnvKnobError):
            ExperimentEngine(jobs=1, cache=False)

    def test_profiled_run_dumps_and_aggregates(self, monkeypatch, tmp_path):
        root = tmp_path / "prof"
        monkeypatch.setenv("REPRO_PROFILE", str(root))
        engine = ExperimentEngine(jobs=1, cache=False)
        specs = [JobSpec("gzip", "indexed-3-fwd", FAST),
                 JobSpec("gzip", "associative-3", FAST)]
        records = engine.run(specs)
        assert len(records) == len(specs)
        profile = engine.last_run_stats["profile"]
        assert profile["files"] == len(specs)
        assert os.path.isdir(profile["dir"])
        dumps = [name for name in os.listdir(profile["dir"])
                 if name.endswith(".pstats")]
        assert len(dumps) == len(specs)
        top = profile["top_cumulative"]
        assert top and {"site", "cumtime_s", "calls"} <= set(top[0])
        # The run-scoped env handoff never leaks past the run.
        assert "_REPRO_PROFILE_RUN" not in os.environ

    def test_profiling_changes_no_statistic(self, monkeypatch, tmp_path):
        trace = build_workload("gzip", instructions=FAST.instructions, seed=1)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        plain = run_workload(trace, "indexed-3-fwd", FAST)
        monkeypatch.setenv("REPRO_PROFILE", str(tmp_path / "prof"))
        engine = ExperimentEngine(jobs=1, cache=False)
        profiled, = engine.run([JobSpec("gzip", "indexed-3-fwd", FAST)])
        assert _stats_dict(profiled.result) == _stats_dict(plain.result)

    def test_all_runs_unprofiled_without_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("_REPRO_PROFILE_RUN", raising=False)
        engine = ExperimentEngine(jobs=1, cache=False)
        engine.run([JobSpec("gzip", "indexed-3-fwd", FAST)])
        assert "profile" not in engine.last_run_stats

    def test_run_job_respects_run_dir_handoff(self, monkeypatch, tmp_path):
        """Workers see only the private ``_REPRO_PROFILE_RUN`` handoff (the
        engine owns run-dir creation); a bare ``run_job`` call dumps there."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.setenv("_REPRO_PROFILE_RUN", str(run_dir))
        run_job(JobSpec("gzip", "indexed-3-fwd", FAST))
        dumps = list(run_dir.glob("job-*.pstats"))
        assert len(dumps) == 1
