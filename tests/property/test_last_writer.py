"""Differential property: the word-granular last-writer map against a
per-byte reference.

:mod:`repro.memory.last_writer` keeps the oracle last-writer map per 8-byte
word.  The reference below is a per-byte dict: one entry per written byte,
the youngest writer found by walking the bytes in address order.  A random
operation sequence drives both, and after every step the canonical per-byte
view and every probe must agree.

Stores are 1, 2, 4 or 8 bytes at offsets spanning three words, so they land
aligned, unaligned within a word, and straddling two words.  A pickle round
trip must keep the map, and a fork that writes into a shallow copy must
leave the original map alone.
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
    st.sampled_from(["store"] * 6 + ["probe"] * 5 + ["fork", "pickle"]),
    st.integers(min_value=0, max_value=23),
    st.sampled_from([1, 2, 4, 8]),
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
    for byte in range(addr, addr + size):
        ref[byte] = entry


@_SETTINGS
@given(ops=st.lists(_op, min_size=1, max_size=_STEPS))
def test_word_map_matches_per_byte_reference(ops):
    words = {}
    ref = {}
    ssn = 0
    for op, offset, size in ops:
        addr = _BASE + offset
        if op == "store":
            ssn += 1
            entry = (ssn, 1000 + ssn)
            last_writer.write(words, addr, size, entry)
            _ref_write(ref, addr, size, entry)
        elif op == "probe":
            found = last_writer.youngest(words, addr, size)
            assert found == _ref_youngest(ref, addr, size), (addr, size)
        elif op == "fork":
            fork = dict(words)
            last_writer.write(fork, addr, size, (ssn + 1,))
            forked = dict(ref)
            _ref_write(forked, addr, size, (ssn + 1,))
            assert last_writer.per_byte(fork) == forked
        else:
            copy = pickle.loads(pickle.dumps(words))
            assert last_writer.per_byte(copy) == last_writer.per_byte(words)
            words = copy
        assert last_writer.per_byte(words) == ref
    for offset in range(24):
        for size in (1, 2, 4, 8):
            addr = _BASE + offset
            assert (last_writer.youngest(words, addr, size)
                    == _ref_youngest(ref, addr, size))


def test_aligned_word_is_one_shared_entry():
    words = {}
    entry = (7, 3)
    last_writer.write(words, 0x80, 8, entry)
    assert words == {0x80: entry}
    assert last_writer.youngest(words, 0x80, 8) is entry
    narrow = (8, 4)
    last_writer.write(words, 0x82, 2, narrow)
    assert last_writer.youngest(words, 0x80, 8) is narrow
    assert last_writer.youngest(words, 0x80, 2) is entry
    # A narrow store turns the word into a fresh list of per-byte writers.
    assert words == {0x80: [entry, entry, narrow, narrow] + [entry] * 4}
