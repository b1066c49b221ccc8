"""Integration tests of the experiment harness (small, fast settings)."""

import pytest

from repro.harness import (
    ExperimentSettings,
    geometric_mean,
    make_policy,
    run_figure4,
    run_figure5,
    run_table2,
    run_table3,
)
from repro.harness.runner import BASELINE_CONFIG, FIGURE4_CONFIGS
from repro.lsu.policies import AssociativeStoreSetsPolicy, IndexedSQPolicy, OracleAssociativePolicy

FAST = ExperimentSettings(instructions=2500, stats_warmup_fraction=0.2)
SMALL_WORKLOADS = ["gzip", "mesa.m", "swim"]


class TestRunnerHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_make_policy_types(self):
        assert isinstance(make_policy(BASELINE_CONFIG), OracleAssociativePolicy)
        assert isinstance(make_policy("associative-5-optimistic"), AssociativeStoreSetsPolicy)
        assert isinstance(make_policy("indexed-3-fwd+dly"), IndexedSQPolicy)
        assert make_policy("associative-5-optimistic").sq_latency == 5
        assert make_policy("indexed-3-fwd").use_delay is False
        with pytest.raises(ValueError):
            make_policy("nonsense")

    def test_figure4_config_list(self):
        assert "indexed-3-fwd+dly" in FIGURE4_CONFIGS
        assert BASELINE_CONFIG not in FIGURE4_CONFIGS


class TestTable2Harness:
    def test_runs_and_renders(self):
        result = run_table2()
        assert len(result.sq_rows) == 10
        text = result.render()
        assert "Table 2" in text
        assert "64" in text

    def test_row_lookup(self):
        result = run_table2()
        row = result.row(64, 2)
        assert row.indexed_cycles == 2 and row.associative_cycles == 5
        with pytest.raises(KeyError):
            result.row(13, 2)

    def test_energy_headline(self):
        result = run_table2()
        assert 0.2 <= result.energy.indexed_savings <= 0.4

    def test_recomputes_identically(self):
        first, second = run_table2(), run_table2()
        assert first == second
        assert first.render() == second.render()


class TestTable3Harness:
    def test_small_run(self):
        result = run_table3(workloads=SMALL_WORKLOADS, settings=FAST)
        assert len(result.rows) == 3
        row = result.row("mesa.m")
        assert row.forward_rate_pct > 10.0
        assert row.mis_per_1000_fwd >= row.mis_per_1000_fwd_dly - 1.0
        text = result.render()
        assert "mesa.m" in text

    def test_suite_average(self):
        result = run_table3(workloads=SMALL_WORKLOADS, settings=FAST)
        avg = result.suite_average("all")
        assert avg.forward_rate_pct > 0.0
        with pytest.raises(ValueError):
            result.suite_average("bogus")

    def test_unknown_row(self):
        result = run_table3(workloads=["gzip"], settings=FAST)
        with pytest.raises(KeyError):
            result.row("vortex")


class TestFigure4Harness:
    def test_small_run(self):
        result = run_figure4(workloads=SMALL_WORKLOADS, settings=FAST)
        assert len(result.rows) == 3
        for row in result.rows:
            for config in FIGURE4_CONFIGS:
                assert 0.7 < row.relative_time[config] < 2.5
        gmeans = result.gmeans()
        assert "all" in gmeans
        text = result.render()
        assert "geometric means" in text.lower() or "Figure 4" in text

    def test_wins_accounting(self):
        result = run_figure4(workloads=SMALL_WORKLOADS, settings=FAST)
        counts = result.wins_vs("indexed-3-fwd+dly", "associative-5-predictive")
        assert counts["wins"] + counts["ties"] + counts["losses"] == 3


class TestFigure5Harness:
    def test_small_sweep(self):
        result = run_figure5(workloads=["mesa.m"], settings=FAST,
                             capacities=(512, 4096),
                             associativities=(1, 2),
                             ddp_ratios=((0, 1), (4, 1)))
        assert len(result.capacity) == 1
        assert set(result.capacity[0].points) == {"512", "4096"}
        assert set(result.associativity[0].points) == {"1", "2"}
        assert set(result.ddp_ratio[0].points) == {"0:1", "4:1"}
        for series in (result.capacity, result.associativity, result.ddp_ratio):
            for point in series[0].points.values():
                assert 0.7 < point < 2.5
        assert "Figure 5" in result.render()
