"""Unit tests for pipeline components: configuration, statistics."""

import pytest

from repro.pipeline.config import CoreConfig, IssueLimits, small_test_config
from repro.pipeline.stats import SimStats


class TestCoreConfig:
    def test_defaults_match_paper(self):
        config = CoreConfig()
        assert config.rob_size == 512
        assert config.issue_queue_size == 300
        assert config.load_queue_size == 128
        assert config.store_queue_size == 64
        assert config.rename_width == 8
        assert config.issue_width == 8
        assert config.commit_width == 8
        assert config.fetch_width == 12
        assert config.issue_limits.int_ops == 6
        assert config.issue_limits.fp_ops == 4
        assert config.issue_limits.branches == 1
        assert config.issue_limits.loads == 2
        assert config.issue_limits.stores == 2
        assert config.ssn_bits == 16

    @pytest.mark.parametrize("field", ["rob_size", "issue_queue_size",
                                       "load_queue_size", "store_queue_size"])
    @pytest.mark.parametrize("size", [0, -8])
    def test_non_positive_window_size_rejected(self, field, size):
        with pytest.raises(ValueError, match="window sizes must be positive"):
            CoreConfig(**{field: size})

    def test_sq_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            CoreConfig(store_queue_size=48)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(flush_penalty=-1)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)

    def test_issue_limits_validation(self):
        with pytest.raises(ValueError):
            IssueLimits(loads=0)

    def test_small_test_config(self):
        config = small_test_config()
        assert config.rob_size == 64
        assert config.store_queue_size == 8
        assert config.rob_size > config.load_queue_size > config.store_queue_size

    def test_small_test_config_overrides(self):
        config = small_test_config(rob_size=128)
        assert config.rob_size == 128


class TestSimStats:
    def test_derived_metrics_empty(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.forwarding_rate == 0.0
        assert stats.mis_forwardings_per_1000_loads == 0.0
        assert stats.avg_delay_cycles == 0.0

    def test_ipc(self):
        stats = SimStats(cycles=100, committed=250)
        assert stats.ipc == pytest.approx(2.5)

    def test_forwarding_rates(self):
        stats = SimStats(committed_loads=200, loads_should_forward=50, loads_forwarded=40)
        assert stats.forwarding_rate == pytest.approx(0.25)
        assert stats.forwarded_rate == pytest.approx(0.20)

    def test_mis_forwarding_per_1000(self):
        stats = SimStats(committed_loads=2000, mis_forwardings=3)
        assert stats.mis_forwardings_per_1000_loads == pytest.approx(1.5)

    def test_delay_metrics(self):
        stats = SimStats(committed_loads=100, loads_delayed=4, total_delay_cycles=200)
        assert stats.percent_loads_delayed == pytest.approx(4.0)
        assert stats.avg_delay_cycles == pytest.approx(50.0)

    def test_reexecution_rate(self):
        stats = SimStats(committed_loads=50, loads_reexecuted=5)
        assert stats.reexecution_rate == pytest.approx(0.1)

    def test_branch_misprediction_rate(self):
        stats = SimStats(committed_branches=100, branch_mispredictions=7)
        assert stats.branch_misprediction_rate == pytest.approx(0.07)

    def test_as_dict_contains_derived(self):
        stats = SimStats(cycles=10, committed=20)
        data = stats.as_dict()
        assert data["ipc"] == pytest.approx(2.0)
        assert "mis_forwardings_per_1000_loads" in data
        assert "percent_loads_delayed" in data
