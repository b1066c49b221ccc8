"""Where the detailed core gets each trace's commit-order load facts.

:mod:`repro.pipeline.commit_facts` computes, per load, what the core reads
at the load's dispatch and commit.  A fresh core reuses the facts its trace
already holds, one entry per SVW geometry; a core that starts from any
other state computes its own; the sampling driver shares an interval
window's facts across the configurations of a sweep.  Whichever way a run
gets its facts, it simulates exactly as with facts computed afresh.
"""

import dataclasses

import pytest

from repro.core.predictors import PredictorSuiteConfig, SVWConfig
from repro.core.svw import SVWFilter
from repro.exec import IntervalJobSpec
from repro.harness.runner import (
    BASELINE_CONFIG,
    FIGURE4_CONFIGS,
    ExperimentSettings,
    make_policy,
)
from repro.memory.image import MemoryImage
from repro.pipeline import commit_facts
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.sampling import checkpoints, driver
from repro.sampling.checkpoints import load_interval_state
from repro.sampling.plan import SamplingPlan
from repro.workloads.suites import build_workload

CONFIGS = (BASELINE_CONFIG,) + FIGURE4_CONFIGS
DEFAULT_GEOMETRY = (2048, 2048)
SMALL_SVW = PredictorSuiteConfig(svw=SVWConfig(ssbf_entries=256,
                                               spct_entries=256))


def _private_trace(name, instructions, seed):
    """A trace no other test has run: a built trace may alias the process's
    segment memo, whose facts an earlier run may already hold."""
    return build_workload(name, instructions=instructions,
                          seed=seed).slice(0, instructions)


def _signature(core, result):
    return (sorted(result.stats.as_dict().items()),
            sorted(result.extra.items()), core.memory.state_signature(),
            core.policy.state_signature())


@pytest.fixture
def computations(monkeypatch):
    """Every start state the facts are computed from, in call order."""
    calls = []
    compute = commit_facts.compute_commit_facts

    def counted(encoded, memory, svw, next_ssn):
        calls.append((encoded, next_ssn))
        return compute(encoded, memory, svw, next_ssn)

    monkeypatch.setattr(commit_facts, "compute_commit_facts", counted)
    monkeypatch.setattr(driver, "compute_commit_facts", counted)
    return calls


def test_fresh_cores_compute_a_traces_facts_once(computations):
    trace = _private_trace("gzip", 800, 1)
    for config in CONFIGS:
        OutOfOrderCore(CoreConfig(), make_policy(config)).run(
            trace, stats_warmup_fraction=0.25)
    assert len(computations) == 1
    assert list(trace.commit_facts) == [DEFAULT_GEOMETRY]
    # Another SVW geometry answers differently: an entry of its own.
    OutOfOrderCore(CoreConfig(), make_policy(
        "indexed-3-fwd+dly", predictors=SMALL_SVW)).run(trace)
    assert len(computations) == 2
    assert set(trace.commit_facts) == {DEFAULT_GEOMETRY, (256, 256)}


def test_shared_facts_simulate_like_fresh_ones():
    trace = build_workload("vortex", instructions=1500, seed=2)
    for config in CONFIGS:
        shared = OutOfOrderCore(CoreConfig(), make_policy(config))
        got = shared.run(trace, stats_warmup_fraction=0.25)
        own = OutOfOrderCore(CoreConfig(), make_policy(config))
        want = own.run(trace, stats_warmup_fraction=0.25,
                       commit_facts=commit_facts.compute_commit_facts(
                           trace, MemoryImage(), SVWFilter(), 1))
        assert _signature(shared, got) == _signature(own, want), config


def test_a_used_policy_is_not_a_fresh_start(computations):
    """A policy handed on from a finished run keeps its SVW tables, so the
    next core computes facts from them and leaves the trace's alone."""
    trace = _private_trace("vortex", 800, 1)
    policy = make_policy("indexed-3-fwd+dly")
    OutOfOrderCore(CoreConfig(), policy).run(trace)
    fresh = trace.commit_facts[DEFAULT_GEOMETRY]
    core = OutOfOrderCore(CoreConfig(), policy)
    own = commit_facts.facts_for_run(trace, core.memory, policy.svw, 0)
    assert own is not fresh and own.svw_ssn != fresh.svw_ssn
    core.run(trace)
    assert len(computations) == 3
    assert trace.commit_facts[DEFAULT_GEOMETRY] is fresh


def test_an_extended_trace_gets_new_facts(computations):
    longer = build_workload("gzip", instructions=900, seed=1)
    trace = longer.slice(0, 600)
    OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd")).run(trace)
    trace.extend(longer.slice(600, 900))
    OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd")).run(trace)
    assert len(computations) == 2
    assert len(trace.commit_facts[DEFAULT_GEOMETRY]) == 900


def test_interval_configurations_share_the_windows_facts(computations):
    plan = SamplingPlan(interval_length=500, detailed_warmup=500,
                        period=5_000, seed=0)
    settings = ExperimentSettings(instructions=20_000,
                                  stats_warmup_fraction=0.0, sampling=plan)
    window = plan.intervals(settings.instructions)[1]
    specs = [IntervalJobSpec("vortex", config, settings, 1)
             for config in CONFIGS]
    specs.append(dataclasses.replace(specs[-1], predictors=SMALL_SVW))
    with checkpoints.interval_record():
        records = [driver.run_interval_job(spec) for spec in specs]
        # One window, two SVW geometries.
        assert len(computations) == 2
        assert len(checkpoints.interval_facts()) == 2
    for spec, record in zip(specs, records):
        # A core left to compute its own facts simulates the same interval.
        state, uops = load_interval_state(spec, window)
        own = driver._simulate_window(uops, window, spec.workload,
                                      spec.config_name, settings, state)
        assert record.result.stats.as_dict() == own.result.stats.as_dict()
        assert record.result.extra == own.result.extra
