"""Differential properties: the commit-order facts against the live
structures they stand in for.

:func:`repro.pipeline.commit_facts.compute_commit_facts` replays a trace
once from a start state and records, per load, what the detailed core used
to ask at the load's dispatch and commit.  Here a random start state and a
random trace drive both the facts and a live replay through the real
structures (:class:`~repro.memory.image.MemoryImage`,
:class:`~repro.core.svw.SVWFilter`, :mod:`repro.memory.last_writer`), whose
answers for each load, after every older store and before any younger one,
the facts must equal.  A load's producer is its youngest writer among the
trace's own stores, or 0: a writer from before the trace has committed, and
the core treats it as none (``test_forward_bound.py``).

The start state is never empty: memory holds written words next to
untouched (background) ones, the SVW tables hold writers of addresses that
alias modulo the SSBF size (small tables, accesses that wrap past their
end, and SPCT sizes that differ from the SSBF's), and the next SSN is far
from 1.
Accesses are 1, 2, 4 or 8 bytes at any offset over a few words, so they
land aligned, unaligned within a word and straddling two words.

The register dataflow of the same pass is checked against a rename table
walked in program order, on traces over three registers and the zero
register, where sources are named twice and destinations reuse a source.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.predictors import SVWConfig
from repro.core.svw import SVWFilter
from repro.isa.plane import encode_uops
from repro.isa.registers import REG_ZERO
from repro.isa.uop import (
    MicroOp,
    OpClass,
    make_alu,
    make_branch,
    make_load,
    make_store,
)
from repro.memory import last_writer
from repro.memory.image import MemoryImage
from repro.pipeline.commit_facts import compute_commit_facts

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])

_BASE = 0x8000
#: Offsets span four words; with 16- or 32-entry tables every SVW access
#: aliases another word's.
_SPAN = 32

_access = st.tuples(st.integers(min_value=0, max_value=_SPAN - 1),
                    st.sampled_from([1, 2, 4, 8]))

_start = st.fixed_dictionaries({
    "geometry": st.sampled_from([(16, 16), (32, 16), (16, 64), (2048, 2048)]),
    "memory": st.lists(_access, max_size=8),
    "svw": st.lists(st.tuples(st.integers(min_value=0, max_value=4 * _SPAN),
                              st.sampled_from([1, 2, 4, 8])),
                    min_size=1, max_size=10),
    "ssn": st.integers(min_value=1, max_value=5000),
})

_op = st.tuples(st.sampled_from(["load", "load", "store", "store", "alu"]),
                _access,
                st.integers(min_value=0, max_value=(1 << 64) - 1))


def _value(raw, size):
    return raw & ((1 << (8 * size)) - 1)


def _start_state(start):
    """A non-empty start state; every writer in it is older than the
    trace's first store (SSNs below the returned next SSN)."""
    ssbf_entries, spct_entries = start["geometry"]
    svw = SVWFilter(SVWConfig(ssbf_entries=ssbf_entries,
                              spct_entries=spct_entries))
    memory = MemoryImage()
    next_ssn = start["ssn"] + len(start["svw"])
    ssn = start["ssn"]
    for index, (offset, size) in enumerate(start["memory"]):
        memory.write(_BASE + offset, size, _value(0x0123456789ABCDEF * (index + 3),
                                                  size))
    for offset, size in start["svw"]:
        # Addresses far beyond the span alias into it modulo the table size.
        svw.store_committed(_BASE + offset * 9, size, ssn, 0x900 + 4 * ssn)
        ssn += 1
    return memory, svw, next_ssn


def _trace(ops):
    uops = []
    for index, (kind, (offset, size), raw) in enumerate(ops):
        addr = _BASE + offset
        pc = 0x400 + 4 * index
        if kind == "load":
            uops.append(make_load(pc, dest=1 + index % 8, addr=addr, size=size))
        elif kind == "store":
            uops.append(make_store(pc, addr=addr, value=_value(raw, size),
                                   size=size))
        else:
            uops.append(make_alu(pc, dest=1 + index % 8))
    return encode_uops(uops)


@_SETTINGS
@given(start=_start, ops=st.lists(_op, min_size=1, max_size=40))
def test_facts_match_the_live_structures(start, ops):
    memory, svw, next_ssn = _start_state(start)
    before = (memory.state_signature(), svw.state_signature())
    encoded = _trace(ops)
    facts = compute_commit_facts(encoded, memory, svw, next_ssn)
    # The start state is read, never written.
    assert (memory.state_signature(), svw.state_signature()) == before
    assert len(facts) == len(encoded)

    # Live replay, in program order, on copies of the start state.
    live_memory = memory.copy()
    live_svw = SVWFilter(svw.config)
    live_svw.copy_from(svw)
    live_words = {}
    ssn = next_ssn - 1
    for index, (kind, (offset, size), raw) in enumerate(ops):
        addr = _BASE + offset
        got = (facts.producer_ssn[index], facts.value[index],
               facts.svw_ssn[index], facts.svw_pc[index])
        if kind == "load":
            writer = last_writer.youngest(live_words, addr, size)
            want = ((0 if writer is None else writer[0]),
                    live_memory.read(addr, size),
                    *live_svw.last_writer(addr, size))
            assert got == want, (index, hex(addr), size)
        else:
            assert got == (0, 0, 0, 0), index
        if kind == "store":
            ssn += 1
            pc = 0x400 + 4 * index
            live_memory.write(addr, size, _value(raw, size))
            live_svw.store_committed(addr, size, ssn, pc)
            last_writer.write(live_words, addr, size, (ssn, pc, index))


# ---------------------------------------------------------------------------
# Register dataflow
# ---------------------------------------------------------------------------

#: Few registers, so they are reused; the zero register among them.
_REGS = st.sampled_from([1, 2, 3, REG_ZERO])

_flow_op = st.tuples(
    st.sampled_from(["alu", "alu", "load", "store", "branch"]),
    st.one_of(st.none(), _REGS),
    # Up to three sources, drawn with replacement: a register named twice,
    # and often the instruction's own destination.
    st.lists(_REGS, max_size=3).map(tuple),
    st.integers(min_value=0, max_value=_SPAN - 8),
)


def _flow_trace(ops):
    uops = []
    for index, (kind, dest, srcs, offset) in enumerate(ops):
        pc = 0x400 + 4 * index
        addr = _BASE + offset
        if kind == "load":
            uops.append(make_load(pc, dest=REG_ZERO if dest is None else dest,
                                  addr=addr, srcs=srcs))
        elif kind == "store":
            uops.append(make_store(pc, addr=addr, value=index, srcs=srcs))
        elif kind == "branch":
            uops.append(make_branch(pc, taken=False, srcs=srcs))
        else:
            uops.append(MicroOp(pc=pc, op_class=OpClass.INT_ALU, dest=dest,
                                srcs=srcs))
    return uops


def _rat_walk(uops):
    """Reference dataflow: a rename table walked in program order.  Each
    source reads the table before the instruction's own destination is
    written; the zero register is never renamed."""
    table = {}
    sources = []
    for index, uop in enumerate(uops):
        sources.append(tuple(index - table[src] for src in uop.srcs
                             if src != REG_ZERO and src in table))
        if uop.dest is not None and uop.dest != REG_ZERO:
            table[uop.dest] = index
    consumers = [[] for _ in uops]
    for index, distances in enumerate(sources):
        for distance in distances:
            consumers[index - distance].append(distance)
    return sources, [tuple(distances) for distances in consumers]


def _fresh_facts(encoded):
    return compute_commit_facts(encoded, MemoryImage(), SVWFilter(), 1)


def _lists(facts):
    return (facts.producer_ssn, facts.value, facts.svw_ssn, facts.svw_pc,
            facts.sources, facts.consumers)


@_SETTINGS
@given(ops=st.lists(_flow_op, min_size=1, max_size=60), data=st.data())
def test_dataflow_matches_a_rename_table(ops, data):
    uops = _flow_trace(ops)
    encoded = encode_uops(uops)
    facts = _fresh_facts(encoded)
    sources, consumers = _rat_walk(uops)
    assert facts.sources == sources
    assert facts.consumers == consumers
    for index, distances in enumerate(facts.consumers):
        assert list(distances) == sorted(distances), index
    # Equal tuples are one object: a list slot costs one pointer.
    seen = {}
    for distances in facts.sources + facts.consumers:
        assert seen.setdefault(distances, distances) is distances

    # A window starts with every register architectural: its facts are the
    # trace's, less the producers before the window (and the consumers
    # after it), and equal a fresh computation over the window alone.
    lo = data.draw(st.integers(min_value=0, max_value=len(uops) - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=len(uops)))
    window = _fresh_facts(encoded.slice(lo, hi))
    assert _lists(window) == _lists(_fresh_facts(encode_uops(uops[lo:hi])))
    assert window.sources == [
        tuple(d for d in facts.sources[i] if i - d >= lo)
        for i in range(lo, hi)]
    assert window.consumers == [
        tuple(d for d in facts.consumers[i] if i + d < hi)
        for i in range(lo, hi)]
