"""Differential property: the commit-order load facts against the live
structures they stand in for.

:func:`repro.pipeline.commit_facts.compute_commit_facts` replays a trace
once from a start state and records, per load, what the detailed core used
to ask at the load's dispatch and commit.  Here a random start state and a
random trace drive both the facts and a live replay through the real
structures (:class:`~repro.memory.image.MemoryImage`,
:class:`~repro.core.svw.SVWFilter`, :mod:`repro.memory.last_writer`), whose
answers for each load, after every older store and before any younger one,
the facts must equal.

The start state is never empty: memory holds written words next to
untouched (background) ones, the SVW tables hold writers of addresses that
alias modulo the SSBF size (small tables, accesses that wrap past their
end, and SPCT sizes that differ from the SSBF's), the last-writer map holds
per-byte lists from narrow stores, and the next SSN is far from 1.
Accesses are 1, 2, 4 or 8 bytes at any offset over a few words, so they
land aligned, unaligned within a word and straddling two words.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.predictors import SVWConfig
from repro.core.svw import SVWFilter
from repro.isa.plane import encode_uops
from repro.isa.uop import make_alu, make_load, make_store
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
    "writers": st.lists(_access, min_size=1, max_size=8),
    "ssn": st.integers(min_value=1, max_value=5000),
})

_op = st.tuples(st.sampled_from(["load", "load", "store", "store", "alu"]),
                _access,
                st.integers(min_value=0, max_value=(1 << 64) - 1))


def _value(raw, size):
    return raw & ((1 << (8 * size)) - 1)


def _start_state(start):
    """A non-empty start state; every writer in it is older than the
    trace's first store (SSNs below ``start['ssn']``)."""
    ssbf_entries, spct_entries = start["geometry"]
    svw = SVWFilter(SVWConfig(ssbf_entries=ssbf_entries,
                              spct_entries=spct_entries))
    memory = MemoryImage()
    words = {}
    next_ssn = start["ssn"] + len(start["svw"]) + len(start["writers"])
    ssn = start["ssn"]
    for index, (offset, size) in enumerate(start["memory"]):
        memory.write(_BASE + offset, size, _value(0x0123456789ABCDEF * (index + 3),
                                                  size))
    for offset, size in start["svw"]:
        # Addresses far beyond the span alias into it modulo the table size.
        svw.store_committed(_BASE + offset * 9, size, ssn, 0x900 + 4 * ssn)
        ssn += 1
    for offset, size in start["writers"]:
        last_writer.write(words, _BASE + offset, size, (ssn, 0x900, ssn))
        ssn += 1
    return memory, svw, words, next_ssn


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
    memory, svw, words, next_ssn = _start_state(start)
    before = (memory.state_signature(), svw.state_signature(),
              last_writer.per_byte(words))
    encoded = _trace(ops)
    facts = compute_commit_facts(encoded, memory, svw, words, next_ssn)
    # The start state is read, never written.
    assert (memory.state_signature(), svw.state_signature(),
            last_writer.per_byte(words)) == before
    assert len(facts) == len(encoded)

    # Live replay, in program order, on copies of the start state.
    live_memory = memory.copy()
    live_svw = SVWFilter(svw.config)
    live_svw.copy_from(svw)
    live_words = dict(words)
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
