"""Seeded-random properties: the detailed core against an independent reference.

``benchmarks/legacy_ref`` is the frozen seed simulator: its own trace
composer, an attribute-probing out-of-order core built from per-instruction
objects, and its own predictors, queues and memory system.  It is never
edited, so it is a reference implementation :class:`OutOfOrderCore` can be
checked against rather than against itself.  For random ``(workload, trace
seed, trace length)`` draws crossed with every SQ policy, warm-up split and
run mode, each stack simulates its own build of the workload and both must
agree on the complete statistics dictionary and the derived ``extra``
metrics.

The run modes cover the straight-line loop (``idle_skip=False``), the
``mshr_entries=1`` non-blocking configuration (defined to be the blocking
model), and the sampling driver's call shape (exact-count warm-up, a
measured region that stops with instructions still in flight, no cache
pre-touch).  The seed stack has no MSHR model; the genuinely non-blocking
hierarchy is pinned by ``tests/golden/mlp_golden.json`` instead.

Further properties check the state hand-off the sampling subsystem depends
on (export mid-workload, import into a fresh core, continue), each stack
handing off to itself, and that every trace input form the core accepts
simulates identically.
"""

import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.harness.runner import make_policy
from repro.isa.trace import DynamicTrace
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import legacy_ref  # noqa: E402

#: A spread of trace generators: SPEC-proxy and MediaBench-proxy, memory-
#: and branch-heavy alike (each name seeds a different generator mix).
WORKLOADS = ("vortex", "gzip", "mesa.m", "gsm.e", "epic.d", "twolf")

#: Every SQ policy family the paper models, built by each stack.
LEGACY_POLICIES = {
    "oracle-associative-3": lambda: legacy_ref.OracleAssociativePolicy(
        sq_latency=3),
    "associative-3": lambda: legacy_ref.AssociativeStoreSetsPolicy(
        sq_latency=3, scheduling="predictive"),
    "associative-5-optimistic": lambda: legacy_ref.AssociativeStoreSetsPolicy(
        sq_latency=5, scheduling="optimistic"),
    "associative-5-predictive": lambda: legacy_ref.AssociativeStoreSetsPolicy(
        sq_latency=5, scheduling="predictive"),
    "indexed-3-fwd": lambda: legacy_ref.IndexedSQPolicy(use_delay=False),
    "indexed-3-fwd+dly": lambda: legacy_ref.IndexedSQPolicy(use_delay=True),
}
CONFIGS = tuple(LEGACY_POLICIES)

#: Core configurations both stacks model identically.
CORE_CONFIGS = {
    "default": CoreConfig(),
    "straight-line": CoreConfig(idle_skip=False),
    "mshr1": CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False))),
}


def _signature(result):
    return (dict(sorted(result.stats.as_dict().items())),
            dict(sorted(result.extra.items())))


def _run_kwargs(call, instructions, warmup):
    if call == "fraction":
        return {"stats_warmup_fraction": warmup}
    # The sampling driver's interval call.
    return {"warm_memory": False,
            "stats_warmup_instructions": int(instructions * warmup),
            "stats_measure_instructions": instructions // 2}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(CONFIGS),
    core=st.sampled_from(tuple(CORE_CONFIGS)),
    call=st.sampled_from(("fraction", "interval")),
    trace_seed=st.integers(min_value=1, max_value=6),
    instructions=st.sampled_from([700, 1100, 1600]),
    warmup=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_core_matches_seed_stack(workload, config_name, core, call,
                                 trace_seed, instructions, warmup):
    core_config = CORE_CONFIGS[core]
    kwargs = _run_kwargs(call, instructions, warmup)
    result = OutOfOrderCore(core_config, make_policy(config_name)).run(
        build_workload(workload, instructions=instructions, seed=trace_seed),
        **kwargs)
    reference = legacy_ref.OutOfOrderCore(
        core_config, LEGACY_POLICIES[config_name]()).run(
        legacy_ref.build_workload(workload, instructions=instructions,
                                  seed=trace_seed),
        **kwargs)
    assert _signature(result) == _signature(reference), \
        f"{workload}/{config_name}/{core}/{call} diverged from the seed stack"


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(("indexed-3-fwd+dly",
                                 "associative-5-predictive")),
    trace_seed=st.integers(min_value=1, max_value=4),
)
def test_state_handoff_matches_seed_stack(workload, config_name, trace_seed):
    """Export long-lived state after one workload window, import it into a
    fresh core, and continue on the next window: each stack handing off to
    itself must land on the same statistics."""

    def handoff(core_cls, build, policy):
        warm = core_cls(CoreConfig(), policy())
        warm.run(build(workload, instructions=900, seed=trace_seed))
        state = warm.export_state()
        cont = core_cls(CoreConfig(), policy())
        cont.import_state(state)
        # warm_memory=False: the imported hierarchy IS the warm state.
        return _signature(cont.run(
            build(workload, instructions=900, seed=trace_seed + 50),
            warm_memory=False))

    result = handoff(OutOfOrderCore, build_workload,
                     lambda: make_policy(config_name))
    reference = handoff(legacy_ref.OutOfOrderCore, legacy_ref.build_workload,
                        LEGACY_POLICIES[config_name])
    assert result == reference


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=st.sampled_from(WORKLOADS),
    config_name=st.sampled_from(CONFIGS),
    trace_seed=st.integers(min_value=1, max_value=6),
    warmup=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_every_input_form_simulates_identically(workload, config_name,
                                                trace_seed, warmup):
    """An encoded stream, a ``DynamicTrace``, a list and a generator of the
    same micro-ops run the same loop; only a named input names the result."""
    encoded = build_workload(workload, instructions=700, seed=trace_seed)
    uops = encoded.uops
    forms = {
        "encoded": encoded,
        "dynamic-trace": DynamicTrace(name=workload, uops=uops),
        "list": list(uops),
        "generator": (uop for uop in uops),
    }
    results = {
        form: OutOfOrderCore(CoreConfig(), make_policy(config_name)).run(
            trace, stats_warmup_fraction=warmup)
        for form, trace in forms.items()}
    want = _signature(results["encoded"])
    for form, result in results.items():
        assert _signature(result) == want, form
    assert results["encoded"].workload == workload
    assert results["dynamic-trace"].workload == workload
    assert results["list"].workload == "trace"
    assert results["generator"].workload == "trace"
