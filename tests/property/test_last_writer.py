"""Differential property: the word-granular last-writer map against a
per-byte reference.

:mod:`repro.memory.last_writer` keeps the oracle last-writer map per 8-byte
word.  The reference below is the per-byte dict the warmer and the detailed
core kept before: one entry per written byte, the youngest writer found by
walking the bytes in address order, and a squashed store's bytes put back
from its per-byte undo list.  A random operation sequence drives both, and
after every step the canonical per-byte view and every probe must agree.

Stores are 1, 2, 4 or 8 bytes at offsets spanning three words, so they land
aligned, unaligned within a word, and straddling two words.  Squashes undo
a random suffix of the in-flight stores youngest first, as a flush does;
commits retire the oldest in-flight stores, whose writes then stay for
good.  A pickle round trip (a checkpoint snapshot) happens only with
nothing in flight, as between detailed runs.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.memory import last_writer

_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])

_BASE = 0x4000
_STEPS = 80

_op = st.tuples(
    st.sampled_from(["store"] * 6 + ["probe"] * 5
                    + ["squash", "commit", "pickle"]),
    st.integers(min_value=0, max_value=23),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(min_value=1, max_value=6),
)


def _ref_youngest(ref, addr, size):
    best = None
    best_ssn = 0
    for byte in range(addr, addr + size):
        entry = ref.get(byte)
        if entry is not None and entry[0] > best_ssn:
            best_ssn = entry[0]
            best = entry
    return best


def _ref_write(ref, addr, size, entry):
    undo = []
    for byte in range(addr, addr + size):
        undo.append(ref.get(byte))
        ref[byte] = entry
    return undo


def _ref_restore(ref, addr, entry, undo):
    for offset, previous in enumerate(undo):
        byte = addr + offset
        current = ref.get(byte)
        if current is not None and current[1] == entry[1]:
            if previous is None:
                del ref[byte]
            else:
                ref[byte] = previous


@_SETTINGS
@given(ops=st.lists(_op, min_size=1, max_size=_STEPS))
def test_word_map_matches_per_byte_reference(ops):
    words = {}
    ref = {}
    inflight = []   # (addr, size, entry, word undo, byte undo), oldest first
    ssn = 0
    for op, offset, size, count in ops:
        addr = _BASE + offset
        if op == "store":
            ssn += 1
            # (ssn, seq): the detailed core's entry shape.
            entry = (ssn, 1000 + ssn)
            undo = last_writer.write(words, addr, size, entry)
            inflight.append((addr, size, entry, undo,
                             _ref_write(ref, addr, size, entry)))
        elif op == "probe":
            found = last_writer.youngest(words, addr, size)
            assert found == _ref_youngest(ref, addr, size), (addr, size)
        elif op == "squash":
            for _ in range(min(count, len(inflight))):
                addr, size, entry, undo, byte_undo = inflight.pop()
                last_writer.restore(words, addr, size, entry, undo)
                _ref_restore(ref, addr, entry, byte_undo)
                # A squashed SSN is reallocated to the next store.
                ssn -= 1
        elif op == "commit":
            del inflight[:count]
        else:
            inflight.clear()
            copy = pickle.loads(pickle.dumps(words))
            assert last_writer.per_byte(copy) == last_writer.per_byte(words)
            words = copy
        assert last_writer.per_byte(words) == ref
    for offset in range(24):
        for size in (1, 2, 4, 8):
            addr = _BASE + offset
            assert (last_writer.youngest(words, addr, size)
                    == _ref_youngest(ref, addr, size))
    converted = last_writer.map_entries(words, lambda e: (e[0], 0, -1))
    assert last_writer.per_byte(converted) == {
        byte: (entry[0], 0, -1) for byte, entry in ref.items()}


def test_aligned_word_is_one_shared_entry():
    words = {}
    entry = (7, 3)
    assert last_writer.write(words, 0x80, 8, entry) is None
    assert words == {0x80: entry}
    assert last_writer.youngest(words, 0x80, 8) is entry
    narrow = (8, 4)
    undo = last_writer.write(words, 0x82, 2, narrow)
    assert last_writer.youngest(words, 0x80, 8) is narrow
    assert last_writer.youngest(words, 0x80, 2) is entry
    last_writer.restore(words, 0x82, 2, narrow, undo)
    assert words == {0x80: entry}
    last_writer.restore(words, 0x80, 8, entry, None)
    assert words == {}
