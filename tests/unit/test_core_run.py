"""The detailed core's one entry point, :meth:`OutOfOrderCore.run`.

Argument validation (rejected before any machine state changes), what the
result carries, the ``VectorCore`` name the frozen benchmark imports, the
callers that construct the core for a run, and the removed ``REPRO_KERNEL``
knob staying removed.
"""

import pytest

from repro import simulate
from repro.exec import ExperimentEngine, JobSpec, job_key
from repro.exec.resilience import validate_environment
from repro.harness.runner import ExperimentSettings, make_policy, run_workload
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.vector import VectorCore
from repro.workloads.suites import build_workload

FAST = ExperimentSettings(instructions=800, stats_warmup_fraction=0.1)


def _signature(result):
    return (dict(sorted(result.stats.as_dict().items())),
            dict(sorted(result.extra.items())))


def test_vector_core_is_the_core_class():
    """``perfbench/`` imports ``VectorCore`` and wraps
    ``vars(VectorCore)["run"]``: it must name the class that owns ``run``."""
    assert VectorCore is OutOfOrderCore
    assert "run" in vars(VectorCore)


@pytest.mark.parametrize("kwargs", [
    {"stats_warmup_fraction": -0.1},
    {"stats_warmup_fraction": 1.5},
    {"stats_warmup_instructions": -1},
    {"stats_warmup_instructions": 400},
    {"stats_measure_instructions": 0},
    {"stats_measure_instructions": -3},
], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
def test_invalid_argument_rejected_before_any_state_changes(kwargs):
    trace = build_workload("gzip", instructions=400, seed=1)
    core = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly"))
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        core.run(trace, **kwargs)
    # The rejected call warmed no cache and ran no cycle: the same core
    # still simulates exactly like a fresh one.
    got = core.run(trace, stats_warmup_fraction=0.1)
    want = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly")).run(
        trace, stats_warmup_fraction=0.1)
    assert _signature(got) == _signature(want)


def test_result_carries_workload_policy_and_config():
    config = CoreConfig()
    policy = make_policy("associative-5-predictive")
    result = OutOfOrderCore(config, policy).run(
        build_workload("twolf", instructions=500, seed=2))
    assert result.workload == "twolf"
    assert result.policy == policy.name
    assert result.config is config
    assert result.stats.committed == 500
    assert result.cycles == result.stats.cycles > 0


def test_every_caller_runs_the_same_core():
    """``simulate``, the harness and a hand-built core are one code path."""
    trace = build_workload("mesa.m", instructions=FAST.instructions, seed=1)
    direct = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd")).run(
        trace, stats_warmup_fraction=FAST.stats_warmup_fraction)
    harness = run_workload(trace, "indexed-3-fwd", FAST)
    assert harness.workload == "mesa.m"
    assert _signature(harness.result) == _signature(direct)
    whole = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd")).run(trace)
    assert _signature(simulate(trace, make_policy("indexed-3-fwd"))) \
        == _signature(whole)


@pytest.mark.parametrize("value", ["object", "fast"])
def test_leftover_repro_kernel_is_ignored(monkeypatch, value):
    """``REPRO_KERNEL`` is gone.  A stale setting, whether it once named a
    kernel (``object``) or was rejected (``fast``), is neither validated
    nor read: the engine runs, keys and reports exactly as without it."""
    spec = JobSpec("gzip", "indexed-3-fwd", FAST)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    unset_key = job_key(spec)
    want, = ExperimentEngine(jobs=1, cache=False).run([spec])
    monkeypatch.setenv("REPRO_KERNEL", value)
    validate_environment()
    assert job_key(spec) == unset_key
    engine = ExperimentEngine(jobs=1, cache=False)
    got, = engine.run([spec])
    assert _signature(got.result) == _signature(want.result)
    assert "kernel" not in engine.last_run_stats
