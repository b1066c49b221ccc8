"""Unit tests for the benchmark tooling under ``benchmarks/``: the git
provenance and source fingerprints in every ``BENCH_*.json`` envelope, the
process-memo reset timed legs start from, the committed-artifact checker
``ci_artifact_check.py``, and the original Store Sets drain sweep
``ci_storesets_sweep.py``."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import _common  # noqa: E402
import ci_artifact_check  # noqa: E402
import ci_storesets_sweep  # noqa: E402
import pytest  # noqa: E402

from repro.exec import fingerprint  # noqa: E402


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=root, capture_output=True, text=True, check=True, timeout=60).stdout


def _commit(root: Path, name: str, payload: dict) -> None:
    _git(root, "init", "-q")
    (root / name).write_text(json.dumps(payload))
    _git(root, "add", name)
    _git(root, "commit", "-q", "-m", "artifact")


class TestGitProvenance:
    def test_envelope_has_sha_and_dirty_keys(self):
        git = _common.run_environment()["git"]
        assert set(git) == {"sha", "dirty"}

    def test_envelope_keys_are_run_keys(self, tmp_path, monkeypatch):
        # The artifact checker skips RUN_KEYS; an envelope key not listed
        # there would be compared as if it were a simulated result.
        monkeypatch.setattr(_common, "REPO_ROOT", tmp_path)
        path = _common.write_bench_json("probe", {})
        envelope = set(json.loads(path.read_text()))
        assert envelope - {"bench", "instructions"} <= _common.RUN_KEYS

    def test_outside_a_work_tree_both_are_none(self, tmp_path):
        assert _common.git_provenance(tmp_path) == {"sha": None, "dirty": None}

    def test_sha_and_dirty_flag_of_a_work_tree(self, tmp_path):
        _commit(tmp_path, "tracked.txt", {})
        head = _git(tmp_path, "rev-parse", "HEAD").strip()
        assert _common.git_provenance(tmp_path) == {"sha": head, "dirty": False}
        (tmp_path / "untracked.txt").write_text("ignored")
        assert _common.git_provenance(tmp_path)["dirty"] is False
        (tmp_path / "tracked.txt").write_text("edited")
        assert _common.git_provenance(tmp_path) == {"sha": head, "dirty": True}


class TestClearProcessMemos:
    def test_every_memo_is_left_empty(self):
        from repro.exec import cache, jobs
        from repro.exec.jobs import JobSpec, _trace_for
        from repro.harness.runner import ExperimentSettings, make_policy
        from repro.memory import image
        from repro.pipeline.config import CoreConfig
        from repro.pipeline.core import OutOfOrderCore
        from repro.sampling import checkpoints
        from repro.workloads import suites

        settings = ExperimentSettings(instructions=600)
        trace = _trace_for(JobSpec("gzip", "indexed-3-fwd", settings))
        OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd")).run(trace)
        cache._canonical_pickle(settings)
        checkpoints.shared_key("gzip", settings, 0)
        assert suites._SEGMENT_CACHE and jobs._TRACE_CACHE
        assert image._background_word.cache_info().currsize
        assert cache._canonical_pickle.cache_info().currsize
        assert checkpoints._memoised_key.cache_info().currsize
        assert trace.commit_facts and trace.warm_lines

        with checkpoints.interval_record():
            checkpoints._RECORD.hold(("store", "key"), None)
            checkpoints.interval_facts()["probe"] = None
            _common.clear_process_memos([trace])
            assert checkpoints._RECORD.location is None
            assert not checkpoints.interval_facts()
        assert not suites._SEGMENT_CACHE and not jobs._TRACE_CACHE
        assert image._background_word.cache_info().currsize == 0
        assert cache._canonical_pickle.cache_info().currsize == 0
        assert checkpoints._memoised_key.cache_info().currsize == 0
        assert not trace.commit_facts and not trace.warm_lines


class TestSourceFingerprints:
    def test_envelope_sources_are_the_fingerprints(self):
        assert _common.run_environment()["sources"] == {
            "simulator": fingerprint.simulator_fingerprint(),
            "workload": fingerprint.workload_fingerprint(),
            "timing": fingerprint.timing_fingerprint(),
        }


class TestArtifactCheck:
    NAME = "BENCH_figure4.json"
    COMMITTED = {
        "bench": "figure4", "ok": True, "instructions": 8000, "workloads": 47,
        "gmeans": {"indexed-3-fwd": 1.0849, "indexed-3-fwd+dly": 1.0386},
        "timestamp": "2026-07-29T04:37:54+00:00", "wall_time_s": 51.7,
        "cpu_count": 1, "cpus_available": 1, "env": {},
        "engine": {"simulated": 282},
    }

    def _check(self, tmp_path, regenerated: dict) -> int:
        _commit(tmp_path, self.NAME, self.COMMITTED)
        (tmp_path / self.NAME).write_text(json.dumps(regenerated))
        return ci_artifact_check.check(tmp_path, [self.NAME])

    def test_envelope_changes_pass(self, tmp_path):
        regenerated = dict(self.COMMITTED, timestamp="2026-10-16T00:00:00+00:00",
                           wall_time_s=26.2, cpu_count=2, cpus_available=2,
                           engine={"simulated": 282, "workers": 2},
                           resilience={}, scheduler={},
                           git={"sha": "0" * 40, "dirty": False})
        assert self._check(tmp_path, regenerated) == 0

    def test_tampered_gmean_fails_and_is_named(self, tmp_path, capsys):
        gmeans = dict(self.COMMITTED["gmeans"], **{"indexed-3-fwd": 1.085})
        assert self._check(tmp_path, dict(self.COMMITTED, gmeans=gmeans)) == 1
        assert "BENCH_figure4.json: gmeans differs" in capsys.readouterr().out

    def test_missing_key_fails(self, tmp_path):
        regenerated = {k: v for k, v in self.COMMITTED.items() if k != "workloads"}
        assert self._check(tmp_path, regenerated) == 1

    def test_uncommitted_file_fails(self, tmp_path):
        _commit(tmp_path, self.NAME, self.COMMITTED)
        (tmp_path / "BENCH_table2.json").write_text("{}")
        assert ci_artifact_check.check(tmp_path, ["BENCH_table2.json"]) == 1


class TestMemoryCellsCheck:
    NAME = "BENCH_memory.json"
    CELL = "mcf/associative-5-predictive/mshr2"
    COMMITTED = {
        "bench": "memory", "ok": True, "instructions": 6000,
        "cells": {CELL: {"committed": 5993, "cycles": 106100,
                         "mshr_stall_cycles": 13784}},
        "serial_s": 6.1, "parallel_s": 4.0, "warm_cache_s": 0.2,
        "timestamp": "2026-08-08T00:00:00+00:00", "wall_time_s": 14.2,
    }

    def _check(self, tmp_path, regenerated: dict) -> int:
        _commit(tmp_path, self.NAME, self.COMMITTED)
        (tmp_path / self.NAME).write_text(json.dumps(regenerated))
        return ci_artifact_check.check(tmp_path, [self.NAME])

    def test_checked_by_default(self):
        assert self.NAME in ci_artifact_check.CHECKED

    def test_timings_are_not_compared(self, tmp_path):
        regenerated = dict(self.COMMITTED, serial_s=5.2, parallel_s=3.1,
                           warm_cache_s=0.3, warm_cache_speedup=17.0)
        assert self._check(tmp_path, regenerated) == 0

    def test_changed_cell_fails_and_is_named(self, tmp_path, capsys):
        cell = dict(self.COMMITTED["cells"][self.CELL], mshr_stall_cycles=13785)
        regenerated = dict(self.COMMITTED, cells={self.CELL: cell})
        assert self._check(tmp_path, regenerated) == 1
        assert "BENCH_memory.json: cells differs" in capsys.readouterr().out

    def test_missing_cells_fail(self, tmp_path):
        regenerated = {k: v for k, v in self.COMMITTED.items() if k != "cells"}
        assert self._check(tmp_path, regenerated) == 1


class TestStoreSetsSweep:
    """The sweep fails on a deadlocked cell, names it, and lets any other
    error through."""

    @staticmethod
    def _shrink(monkeypatch):
        monkeypatch.setattr(ci_storesets_sweep, "SEEDS", (1,))
        monkeypatch.setattr(ci_storesets_sweep, "INSTRUCTIONS", 2000)
        monkeypatch.setattr(ci_storesets_sweep, "workload_names",
                            lambda: ["gzip", "mcf"])

    @staticmethod
    def _core_raising(message):
        class Core:
            def __init__(self, config, policy):
                pass

            def run(self, trace, stats_warmup_fraction):
                raise RuntimeError(message)

        return Core

    def test_drained_cells_pass(self, monkeypatch, capsys):
        self._shrink(monkeypatch)
        assert ci_storesets_sweep.main() == 0
        assert "2 cells" in capsys.readouterr().out

    def test_deadlocked_cell_fails_by_name(self, monkeypatch, capsys):
        self._shrink(monkeypatch)
        monkeypatch.setattr(ci_storesets_sweep, "OutOfOrderCore",
                            self._core_raising(
                                "simulation deadlock at cycle 9: 0/2000"))
        assert ci_storesets_sweep.main() == 1
        out = capsys.readouterr().out
        assert "stuck gzip/1: simulation deadlock" in out
        assert "2 stuck" in out

    def test_other_errors_propagate(self, monkeypatch):
        self._shrink(monkeypatch)
        monkeypatch.setattr(ci_storesets_sweep, "OutOfOrderCore",
                            self._core_raising("SVW miss"))
        with pytest.raises(RuntimeError, match="SVW miss"):
            ci_storesets_sweep.main()
