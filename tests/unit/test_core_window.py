"""The detailed core's in-flight window, observed through a run.

The ROB, issue queue and load queue exist only as locals of
:func:`repro.pipeline._vector_loop.run_core_loop`, and register renaming
only as the trace's dataflow facts, so these tests pin their behaviour
from outside, on hand-built traces whose timing is known.  Each
trace starts with a load that misses all the way to memory (the run does
not pre-touch the caches), which holds the head of the window for at least
the memory latency.

* Capacity: a full structure stops dispatch, every later cycle is charged
  to it, and the window never grows past it.
* Release: a drained run leaves no store in the store queue, and a run that
  stops early leaves exactly its in-flight stores, in SSN order.
* Renaming: a consumer waits on the youngest in-flight producer of its
  source; the zero register never creates a dependence; committing an
  overwritten producer keeps the younger mapping.
* Squash: a re-execution flush squashes the younger suffix and refetches
  it, and the run still commits every instruction with the right values.
* Continuation: a run that stops mid-trace, even right after a flush,
  exports its state as of its last commit, so a new core that imports it
  and runs the rest of the trace ends as one uninterrupted run; the
  exported count of retired instructions includes the statistics warm-up
  and the imported state's own count.
"""

import dataclasses
import math

import pytest

from repro.harness.runner import make_policy
from repro.isa.registers import REG_ZERO
from repro.isa.trace import DynamicTrace
from repro.isa.uop import OpClass, make_alu, make_load, make_store
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload

#: A line no run has touched: a load from it goes to memory.
MISS = 0x10_0000

#: Memory latency of the default hierarchy (the head load takes longer).
MEMORY_LATENCY = CoreConfig().memory.memory_latency

#: A cycle cap that stops a run while the head load is still outstanding.
CAP = 100

#: Length of the dependent multiply chains in the renaming tests.
CHAIN = 40


def _run(uops, config=None, policy="indexed-3-fwd+dly", **kwargs):
    config = config or CoreConfig()
    core = OutOfOrderCore(
        config, make_policy(policy, sq_size=config.store_queue_size))
    result = core.run(DynamicTrace(name="window", uops=uops),
                      warm_memory=False, **kwargs)
    return result, core


def _head(dest=5):
    return [make_load(0x400, dest=dest, addr=MISS)]


def _chain(reg):
    """``CHAIN`` 3-cycle multiplies, each reading the previous one's result
    (the first reads whatever produced ``reg`` before it)."""
    return [make_alu(0x800, dest=reg, srcs=(reg,), op_class=OpClass.INT_MUL)
            for _ in range(CHAIN)]


def _filler(count, first_reg=8):
    """Independent single-cycle ALU ops."""
    return [make_alu(0x600 + 4 * i, dest=first_reg + i % 8)
            for i in range(count)]


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------

def _rob_case(size):
    return (CoreConfig(rob_size=size), _head() + _filler(200),
            "rob_stall_cycles", size)


def _iq_case(size):
    # Consumers of the head load wait in the issue queue; the load itself
    # has issued and left it.
    consumers = [make_alu(0x600 + 4 * i, dest=8 + i % 8, srcs=(5,))
                 for i in range(100)]
    return (CoreConfig(issue_queue_size=size), _head() + consumers,
            "iq_stall_cycles", size + 1)


def _lq_case(size):
    # Every in-flight instruction is a load.
    loads = [make_load(0x600 + 4 * i, dest=8 + i % 8, addr=0x2000 + 8 * i)
             for i in range(100)]
    return (CoreConfig(load_queue_size=size), _head() + loads,
            "lq_stall_cycles", size)


def _sq_case(size):
    stores = [make_store(0x600 + 4 * i, addr=0x8000 + 8 * i, value=i)
              for i in range(100)]
    return (CoreConfig(store_queue_size=size), _head() + stores,
            "sq_stall_cycles", size + 1)


CASES = {"rob": _rob_case, "iq": _iq_case, "lq": _lq_case, "sq": _sq_case}

STALLS = ("rob_stall_cycles", "iq_stall_cycles", "lq_stall_cycles",
          "sq_stall_cycles")


@pytest.mark.parametrize("structure, size", [
    ("rob", 8), ("rob", 24), ("rob", 64),
    ("iq", 4), ("iq", 12),
    ("lq", 4), ("lq", 10),
    ("sq", 4), ("sq", 8),
])
def test_full_structure_stops_dispatch(structure, size):
    """Behind an outstanding miss the window fills to exactly what the
    limiting structure holds, and from then on every cycle is a dispatch
    stall charged to that structure and no other."""
    assert MEMORY_LATENCY > CAP
    config, uops, counter, window = CASES[structure](size)
    config = dataclasses.replace(config, max_cycles=CAP)
    result, core = _run(uops, config)
    stats = result.stats
    assert stats.cycles == CAP and stats.committed == 0
    assert result.extra["rob_max_occupancy"] == window
    fill_cycles = math.ceil(window / config.rename_width)
    assert getattr(stats, counter) >= CAP - fill_cycles
    assert all(getattr(stats, other) == 0
               for other in STALLS if other != counter)
    if structure == "sq":
        assert len(core.store_queue) == size
        assert core.ssn_alloc.ssn_rename - core.ssn_alloc.ssn_commit == size


def test_window_holds_a_whole_short_trace_at_once():
    """Fewer instructions than one dispatch group all enter the window in
    its first cycle: the peak occupancy is the trace length."""
    result, _ = _run(_filler(5))
    assert result.stats.committed == 5
    assert result.extra["rob_max_occupancy"] == 5
    assert all(getattr(result.stats, counter) == 0 for counter in STALLS)


# ---------------------------------------------------------------------------
# Release
# ---------------------------------------------------------------------------

def test_drained_run_leaves_no_store_in_flight():
    config, uops, _, _ = _sq_case(4)
    result, core = _run(uops, config)
    assert result.stats.committed == len(uops)
    assert result.stats.committed_stores == 100
    assert len(core.store_queue) == 0
    assert core.ssn_alloc.ssn_commit == core.ssn_alloc.ssn_rename == 100
    assert core.memory.read(0x8000 + 8 * 99, 8) == 99


def test_measure_stop_leaves_its_in_flight_stores_in_ssn_order():
    """A run stopped by ``stats_measure_instructions`` leaves the younger
    stores in the store queue: exactly the SSNs after the last committed
    one, oldest first."""
    _, uops, _, _ = _sq_case(64)
    result, core = _run(uops, stats_measure_instructions=10)
    alloc = core.ssn_alloc
    # The stop lands on a commit-group boundary.
    committed = result.stats.committed
    assert 10 <= committed < 10 + CoreConfig().commit_width
    assert alloc.ssn_commit == committed - 1      # all but the head load
    assert alloc.ssn_rename > alloc.ssn_commit
    assert [entry.ssn for entry in core.store_queue.entries_in_order()] \
        == list(range(alloc.ssn_commit + 1, alloc.ssn_rename + 1))


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

#: A chain that waits for the head load cannot finish before the load's
#: memory access plus the chain's own latency; one that does not wait
#: overlaps the two.
SERIAL = MEMORY_LATENCY + 3 * CHAIN


def test_consumer_waits_on_its_in_flight_producer():
    dependent, _ = _run(_head(dest=5) + _chain(5))
    independent, _ = _run(_head(dest=5) + _chain(6))
    assert dependent.stats.cycles > SERIAL
    assert independent.stats.cycles < SERIAL


def test_zero_register_never_creates_a_dependence():
    """Writes to the zero register are discarded and its reads are always
    ready: a chain through it runs exactly like an independent chain."""
    through_zero, _ = _run(_head(dest=REG_ZERO) + _chain(REG_ZERO))
    independent, _ = _run(_head(dest=5) + _chain(6))
    assert through_zero.stats.cycles == independent.stats.cycles


@pytest.mark.parametrize("producers, waits", [
    ([make_load(0x400, dest=5, addr=MISS), make_alu(0x404, dest=5)], False),
    ([make_alu(0x404, dest=5), make_load(0x400, dest=5, addr=MISS)], True),
], ids=["alu-youngest", "load-youngest"])
def test_consumer_waits_on_the_youngest_producer(producers, waits):
    """Only the youngest producer of a register before the consumer
    counts: an older slow producer that a fast one has overwritten does
    not delay the chain."""
    result, _ = _run(producers + _chain(5))
    assert (result.stats.cycles > SERIAL) == waits


@pytest.mark.parametrize("load_dest, waits", [(5, True), (6, False)],
                         ids=["overwritten", "untouched"])
def test_commit_keeps_a_younger_mapping(load_dest, waits):
    """An ALU op writes r5 and commits long before the chain on r5
    dispatches.  When the outstanding load also wrote r5, the load is r5's
    youngest producer and the ALU op's commit must leave it mapped, so the
    chain waits for the load; otherwise r5 is architectural by then."""
    uops = [make_alu(0x404, dest=5),
            make_load(0x400, dest=load_dest, addr=MISS)]
    # Enough independent work that the ALU op has committed before the
    # first multiply of the chain dispatches.
    filler = _filler(12 * CoreConfig().rename_width)
    result, _ = _run(uops + filler + _chain(5))
    assert (result.stats.cycles > SERIAL) == waits


# ---------------------------------------------------------------------------
# Squash
# ---------------------------------------------------------------------------

STORED = 0x3000


def _violation_trace():
    """A store whose data waits on the head miss, then a load of the same
    word: only a policy that knows the dependence (the oracle) makes the
    load wait; every other one issues it early, reads the stale value and
    flushes at commit.  The suffix behind that load renames, loads and
    stores, so the flush squashes some of each."""
    suffix = []
    for i in range(6):
        suffix += [
            make_alu(0x500 + 16 * i, dest=7, srcs=(6,)),
            make_store(0x504 + 16 * i, addr=0x4000 + 8 * i, value=i + 1,
                       srcs=(7,)),
            make_load(0x508 + 16 * i, dest=9, addr=0x5000 + 8 * i),
        ]
    head = [make_load(0x400, dest=5, addr=MISS),
            make_store(0x404, addr=STORED, value=7, srcs=(5,)),
            make_load(0x408, dest=6, addr=STORED)]
    return head + suffix, len(suffix)


@pytest.mark.parametrize("policy", [
    "oracle-associative-3", "associative-3", "associative-5-optimistic",
    "associative-5-predictive", "indexed-3-fwd", "indexed-3-fwd+dly",
])
def test_flush_squashes_and_refetches_the_younger_suffix(policy):
    """The load queue holds exactly the trace's 8 loads and the store queue
    one more than its 7 stores, so a flush that left its squashed entries
    behind would stall the refetch."""
    uops, suffix = _violation_trace()
    config = CoreConfig(load_queue_size=8, store_queue_size=8)
    result, core = _run(uops, config, policy=policy)
    stats = result.stats
    flushes = 0 if policy == "oracle-associative-3" else 1
    assert stats.flushes == stats.ordering_violations == flushes
    # The whole suffix was in flight behind the head miss.
    assert stats.squashed_uops == flushes * suffix
    assert all(getattr(stats, counter) == 0 for counter in STALLS)
    assert stats.committed == len(uops)
    assert stats.committed_stores == 7 and stats.committed_loads == 8
    assert len(core.store_queue) == 0
    assert core.ssn_alloc.ssn_commit == core.ssn_alloc.ssn_rename == 7
    assert core.memory.read(STORED, 8) == 7
    assert [core.memory.read(0x4000 + 8 * i, 8) for i in range(6)] \
        == [1, 2, 3, 4, 5, 6]


#: Words the refetched suffix of the export test stores to, one per store.
SUFFIX_WORDS = 0x30_0000


def _export_trace():
    """A store behind a head miss, a load that violates on it, then 60
    stores, each followed by an ALU op, to words of their own."""
    uops = [make_load(0x400, dest=5, addr=MISS),
            make_store(0x404, addr=STORED, value=7, srcs=(5,)),
            make_load(0x408, dest=6, addr=STORED)]
    for i in range(60):
        uops += [make_store(0x40c + 8 * (i % 4), addr=SUFFIX_WORDS + 8 * i,
                            value=i + 1),
                 make_alu(0x410 + 8 * (i % 4), dest=3 + i % 8)]
    return uops


def test_export_after_a_flush_holds_committed_stores_only():
    """A run stopped by ``stats_measure_instructions`` soon after a flush.

    All 60 suffix stores dispatched behind the head miss (SSNs 2-61) and
    were squashed by the load's flush; the refetch had dispatched again
    those up to SSN 33 when the run stopped, and 30 of them were still in
    flight.  The export is the state as of the last commit: the SSN
    counters stand at the 3 committed stores, and the memory image holds
    exactly those, the store to ``STORED`` and the first two suffix stores
    (24 bytes).
    """
    result, core = _run(_export_trace(), policy="associative-3",
                        stats_warmup_instructions=0,
                        stats_measure_instructions=6)
    assert result.stats.flushes == result.stats.ordering_violations == 1
    assert result.stats.committed == 7
    assert (core.ssn_alloc.ssn_commit, core.ssn_alloc.ssn_rename) == (3, 33)
    state = core.export_state()
    assert (state.ssn_alloc.ssn_commit, state.ssn_alloc.ssn_rename) == (3, 3)
    assert state.memory.written_byte_count() == 24
    assert [state.memory.read(addr, 8) for addr
            in (STORED, SUFFIX_WORDS, SUFFIX_WORDS + 8)] == [7, 1, 2]


def _end_state(core):
    """What a continuation must reproduce: the memory image, the SVW, the
    SSN counters and the count of retired instructions."""
    state = core.export_state()
    return (core.memory.state_signature(), core.policy.svw.state_signature(),
            (state.ssn_alloc.ssn_commit, state.ssn_alloc.ssn_rename),
            state.instructions_warmed)


@pytest.mark.parametrize("stop", [1, 3, 6, 20, 50, 100])
def test_a_stopped_run_continues_on_a_new_core(stop):
    """Stop a run after ``stop`` measured instructions (stores in flight,
    and after 6 a flush), export it, import it on a new core and run the
    rest of the trace: the pair ends exactly as one uninterrupted run."""
    uops = _export_trace()
    _result, whole = _run(uops, policy="associative-3")
    result, first = _run(uops, policy="associative-3",
                         stats_warmup_instructions=0,
                         stats_measure_instructions=stop)
    committed = result.stats.committed
    assert committed < len(uops)
    second = OutOfOrderCore(CoreConfig(), make_policy("associative-3"))
    second.import_state(first.export_state())
    second.run(DynamicTrace(name="rest", uops=uops[committed:]),
               warm_memory=False)
    assert _end_state(second) == _end_state(whole)


def test_the_export_counts_the_statistics_warm_up():
    """A run that discards its first 500 instructions' statistics and stops
    1000 measured instructions later has retired about 1500 instructions
    into its state, not the 1000 it measured; a new core that imports the
    state, runs the rest of the trace and exports counts all 2000."""
    trace = build_workload("gzip", instructions=2000, seed=1)
    result, first = _run(list(trace), stats_warmup_instructions=500,
                         stats_measure_instructions=1000)
    warmed = first.export_state().instructions_warmed
    assert 1500 <= warmed < 1500 + CoreConfig().commit_width
    assert result.stats.committed < warmed - 500
    second = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly"))
    second.import_state(first.export_state())
    second.run(trace[warmed:], warm_memory=False)
    assert second.export_state().instructions_warmed == len(trace)
    _result, whole = _run(list(trace))
    assert _end_state(second) == _end_state(whole)


def test_a_fresh_core_exports_its_committed_count():
    core = OutOfOrderCore(CoreConfig(), make_policy("indexed-3-fwd+dly"))
    assert core.export_state().instructions_warmed == 0
    result, core = _run(_export_trace())
    assert core.export_state().instructions_warmed == result.stats.committed
