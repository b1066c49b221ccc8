"""Figure 4 is bit-identical across serial, parallel, and cached execution.

This is the contract the experiment engine exists to uphold: fanning the
``(workload, configuration)`` grid over worker processes, or re-running it
against a warm on-disk cache, must reproduce *exactly* the statistics of a
plain serial run — per-workload cycle counts, IPCs, relative times, and the
geometric means built from them.  The policy-group checkpoint class
extends the contract to the generation stage: a sweep whose snapshot store
was populated by parallel policy-group jobs merges the same
``SampledResult`` as one generated by the serial single pass.
"""

import pytest

from repro.exec import ExperimentEngine, JobSpec, ResultCache
from repro.harness.figure4 import run_figure4
from repro.harness.runner import ExperimentSettings
from repro.sampling import SamplingPlan

WORKLOADS = ["gzip", "mesa.m", "swim", "adpcm.d"]
SETTINGS = ExperimentSettings(instructions=1500, stats_warmup_fraction=0.2)


def _snapshot(result):
    """Everything Figure 4 reports, in comparable form."""
    return {
        row.name: (row.baseline_cycles, row.baseline_ipc,
                   tuple(sorted(row.relative_time.items())))
        for row in result.rows
    }


@pytest.fixture(scope="module")
def serial_result():
    engine = ExperimentEngine(jobs=1, cache=False)
    result = run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine)
    assert engine.last_run_stats["simulated"] == len(WORKLOADS) * 6
    return result


class TestEngineEquivalence:
    def test_parallel_identical(self, serial_result):
        engine = ExperimentEngine(jobs=2, cache=False)
        parallel = run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine)
        assert engine.last_run_stats["workers"] == 2
        assert _snapshot(parallel) == _snapshot(serial_result)

    def test_cached_rerun_identical(self, serial_result, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        cold = run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine)
        assert engine.last_run_stats["cache_hits"] == 0
        warm = run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine)
        assert engine.last_run_stats["cache_hits"] == len(WORKLOADS) * 6
        assert engine.last_run_stats["simulated"] == 0
        assert _snapshot(cold) == _snapshot(serial_result)
        assert _snapshot(warm) == _snapshot(serial_result)

    def test_cached_partial_rerun_only_simulates_new_cells(self, tmp_path):
        """Changing the sweep (adding one configuration) only simulates the
        new cells; everything else is served from the cache."""
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path))
        run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine,
                    configs=("associative-3",))
        run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine,
                    configs=("associative-3", "indexed-3-fwd"))
        assert engine.last_run_stats["cache_hits"] == len(WORKLOADS) * 2
        assert engine.last_run_stats["simulated"] == len(WORKLOADS)

    def test_gmeans_identical(self, serial_result, tmp_path):
        engine = ExperimentEngine(jobs=2, cache=ResultCache(tmp_path))
        other = run_figure4(workloads=WORKLOADS, settings=SETTINGS, engine=engine)
        assert other.gmeans() == serial_result.gmeans()


class TestPolicyGroupCheckpointEquivalence:
    """A checkpointed sampled sweep merges bit-identically whether its
    snapshot store was generated by the serial single pass or by
    policy-group jobs fanned out over a pool — and a cached re-run of the
    sweep hits every interval."""

    PLAN = SamplingPlan(interval_length=400, detailed_warmup=600,
                        period=12_000, seed=0)
    SAMPLED = ExperimentSettings(instructions=3 * 16_384,
                                 stats_warmup_fraction=0.0,
                                 sampling=PLAN)
    CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")

    def _specs(self, settings):
        return [JobSpec("vortex", config, settings)
                for config in self.CONFIGS]

    @staticmethod
    def _signature(records):
        return [(r.workload, r.config_name,
                 tuple(sorted(r.result.stats.as_dict().items())),
                 tuple(sorted((k, v) for k, v in r.result.extra.items())))
                for r in records]

    @pytest.fixture(scope="class")
    def serial_single_pass(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("store-serial")
        engine = ExperimentEngine(jobs=1, cache=False, checkpoint_dir=store)
        records = engine.run(self._specs(self.SAMPLED))
        assert engine.last_run_stats["checkpoint_jobs"] == 1
        return self._signature(records)

    def test_parallel_policy_group_sweep_identical(self, serial_single_pass,
                                                   tmp_path):
        engine = ExperimentEngine(jobs=2, cache=False,
                                  checkpoint_dir=tmp_path)
        records = engine.run(self._specs(self.SAMPLED))
        stats = engine.last_run_stats
        assert stats["checkpoint_jobs"] > stats["checkpoint_passes"]
        assert self._signature(records) == serial_single_pass

    def test_cached_rerun_identical(self, serial_single_pass, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(tmp_path / "rc"),
                                  checkpoint_dir=tmp_path / "ck")
        cold = engine.run(self._specs(self.SAMPLED))
        assert engine.last_run_stats["cache_hits"] == 0
        warm = engine.run(self._specs(self.SAMPLED))
        assert engine.last_run_stats["cache_hits"] == engine.last_run_stats["total"]
        assert engine.last_run_stats.get("checkpoint_passes", 0) == 0
        assert self._signature(cold) == serial_single_pass
        assert self._signature(warm) == serial_single_pass
