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

The default machine's windows are large enough that no golden or digest
cell fills the ROB or issue queue or wraps an SSN, so a fixed grid of
small-window machines checks the structural stalls and the SSN wrap
against the seed stack too.

Further properties check the state hand-off the sampling subsystem depends
on (export mid-trace, import into a fresh core, continue), each stack
handing off to itself, and that every trace input form the core accepts
simulates identically.  The seed stack hands its oracle last-writer map on
and the core hands none on, so the hand-off grid also checks that a writer
from before the hand-off changes nothing.
"""

import dataclasses
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.harness.runner import make_policy
from repro.isa.plane import encode_uops
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
    "oracle-associative-3": lambda sq_size=64: legacy_ref.OracleAssociativePolicy(
        sq_size=sq_size, sq_latency=3),
    "associative-3": lambda sq_size=64: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=3, scheduling="predictive"),
    "associative-5-optimistic": lambda sq_size=64: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=5, scheduling="optimistic"),
    "associative-5-predictive": lambda sq_size=64: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=5, scheduling="predictive"),
    "indexed-3-fwd": lambda sq_size=64: legacy_ref.IndexedSQPolicy(
        sq_size=sq_size, use_delay=False),
    "indexed-3-fwd+dly": lambda sq_size=64: legacy_ref.IndexedSQPolicy(
        sq_size=sq_size, use_delay=True),
}
CONFIGS = tuple(LEGACY_POLICIES)

#: Core configurations both stacks model identically.
CORE_CONFIGS = {
    "default": CoreConfig(),
    "straight-line": CoreConfig(idle_skip=False),
    "mshr1": CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False))),
}


#: Small-window machines: the first fills the ROB, issue queue, load queue
#: and store queue and wraps its 6-bit SSNs; the second is limited by its
#: ROB alone.
SMALL_WINDOWS = (
    CoreConfig(rob_size=48, issue_queue_size=12, load_queue_size=10,
               store_queue_size=8, ssn_bits=6),
    CoreConfig(rob_size=24, issue_queue_size=24, load_queue_size=24,
               store_queue_size=16),
)


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


def test_small_windows_match_seed_stack():
    """A fixed grid of small-window machines, every SQ policy sized to the
    core's store queue: each cell equals the seed stack, and the grid as a
    whole stalls on every window structure and wraps the SSN."""
    stalls = dict.fromkeys(("rob_stall_cycles", "iq_stall_cycles",
                            "lq_stall_cycles", "sq_stall_cycles",
                            "ssn_wraps"), 0)
    for core_config in SMALL_WINDOWS:
        sq_size = core_config.store_queue_size
        for workload in ("vortex", "gzip", "mcf"):
            trace = build_workload(workload, instructions=1200, seed=2)
            reference_trace = legacy_ref.build_workload(
                workload, instructions=1200, seed=2)
            for config_name in CONFIGS:
                result = OutOfOrderCore(
                    core_config, make_policy(config_name, sq_size=sq_size)
                ).run(trace, stats_warmup_fraction=0.1)
                reference = legacy_ref.OutOfOrderCore(
                    core_config, LEGACY_POLICIES[config_name](sq_size)
                ).run(reference_trace, stats_warmup_fraction=0.1)
                assert _signature(result) == _signature(reference), \
                    f"{workload}/{config_name}/{core_config} diverged"
                for name in stalls:
                    stalls[name] += getattr(result.stats, name)
    assert all(count > 0 for count in stalls.values()), stalls


#: Every policy that reads the load's producer (the oracle) and one of each
#: predictor family.
HANDOFF_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly",
                   "associative-5-predictive")

#: Where the hand-off cuts each 1800-instruction trace.
HANDOFF_AT = 900


def _loads_on_handed_off_writers(uops, cut):
    """Loads from ``cut`` on whose bytes only stores before ``cut`` wrote."""
    before, after = set(), set()
    count = 0
    for index, uop in enumerate(uops):
        if uop.mem is None:
            continue
        span = range(uop.mem.addr, uop.mem.addr + uop.mem.size)
        if uop.is_store:
            (before if index < cut else after).update(span)
        elif index >= cut and not after.intersection(span) \
                and before.intersection(span):
            count += 1
    return count


def test_state_handoff_matches_seed_stack():
    """Run the first half of a trace, export the long-lived state, import
    it into a fresh core and run the rest: each stack handing off to itself
    must land on the same statistics.  The grid reaches continuation loads
    that read only writers from before the hand-off."""

    def handoff(core_cls, first, rest, policy):
        warm = core_cls(CoreConfig(), policy())
        warm.run(first)
        cont = core_cls(CoreConfig(), policy())
        cont.import_state(warm.export_state())
        # warm_memory=False: the imported hierarchy IS the warm state.
        return _signature(cont.run(rest, warm_memory=False))

    reached = 0
    for workload in WORKLOADS:
        for trace_seed in (1, 2):
            trace = build_workload(workload, instructions=2 * HANDOFF_AT,
                                   seed=trace_seed)
            reference_trace = legacy_ref.build_workload(
                workload, instructions=2 * HANDOFF_AT, seed=trace_seed)
            reference_rest = dataclasses.replace(
                reference_trace, uops=reference_trace.uops[HANDOFF_AT:])
            reached += _loads_on_handed_off_writers(trace, HANDOFF_AT)
            for config_name in HANDOFF_CONFIGS:
                result = handoff(OutOfOrderCore, trace.slice(0, HANDOFF_AT),
                                 trace.slice(HANDOFF_AT, len(trace)),
                                 lambda: make_policy(config_name))
                reference = handoff(
                    legacy_ref.OutOfOrderCore,
                    reference_trace.truncated(HANDOFF_AT), reference_rest,
                    LEGACY_POLICIES[config_name])
                assert result == reference, \
                    f"{workload}/{trace_seed}/{config_name} diverged"
    assert reached > 0


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
    """An encoded stream, a list and a generator of the same micro-ops run
    the same loop; only a named input names the result, and every nameless
    one, encoded or not, is ``"trace"``."""
    encoded = build_workload(workload, instructions=700, seed=trace_seed)
    uops = list(encoded)
    forms = {
        "encoded": encoded,
        "nameless-encoded": encode_uops(uops),
        "list": uops,
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
    assert results["nameless-encoded"].workload == "trace"
    assert results["list"].workload == "trace"
    assert results["generator"].workload == "trace"
