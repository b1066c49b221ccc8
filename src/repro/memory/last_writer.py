"""Word-granular oracle last-writer map.

The oracle dependence tracker names, for every byte of memory, the youngest
store that wrote it: the functional warmer reads it to find a load's
producing store, and the detailed core's commit facts
(:mod:`repro.pipeline.commit_facts`) read it to give the Figure-4 oracle
baseline its exact dependence.  Nearly every access here is an aligned
8-byte word, so the map is kept per word.

**Layout.**  A plain dict maps each aligned word address (``addr & ~7``)
to one of two values:

* the writer entry shared by all 8 bytes of the word (the last store to
  the word covered all of it), or
* a list of 8 per-byte entries, ``None`` for a byte never written (narrow
  and unaligned stores).

A word none of whose bytes was ever written has no key.  An aligned 8-byte
store is one dict store and an aligned 8-byte load one ``get``; narrow and
unaligned accesses take a general path over the (at most two) words they
span.

**Entries** are tuples whose index 0 is the writer's SSN (positive); the
map looks at nothing else.  The functional warmer stores ``(ssn, pc,
index)``; the detailed core's exports add ``(ssn, index)`` entries.

**Immutability.**  A per-byte list is never changed once stored: a narrow
store writes a fresh list.  So a map can be adopted by another owner (a
detailed core importing warmed state) without a copy, and a shallow copy
of it is a private map.

Only this module knows the layout; :func:`per_byte` is the canonical
byte-level view that signatures and tests compare.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

#: Word address -> shared writer entry, or a list of 8 per-byte entries.
LastWriterMap = Dict[int, object]


def youngest(words: LastWriterMap, addr: int, size: int) -> Optional[tuple]:
    """The entry with the largest SSN among the writers of
    ``[addr, addr + size)``, or ``None`` when no byte was written.

    Ties (bytes of one store) resolve to the lowest byte, as a byte walk
    in address order finds it.
    """
    if size == 8 and not addr & 7:
        value = words.get(addr)
        if value.__class__ is not list:
            return value
    best = None
    best_ssn = 0
    for byte in range(addr, addr + size):
        value = words.get(byte & ~7)
        if value.__class__ is list:
            value = value[byte & 7]
        if value is not None and value[0] > best_ssn:
            best_ssn = value[0]
            best = value
    return best


def write(words: LastWriterMap, addr: int, size: int, entry: tuple) -> None:
    """Make ``entry`` the writer of ``[addr, addr + size)``."""
    if size == 8 and not addr & 7:
        words[addr] = entry
        return
    end = addr + size
    word = addr & ~7
    while word < end:
        previous = words.get(word)
        cells = list(previous) if previous.__class__ is list \
            else [previous] * 8
        lo = addr - word if addr > word else 0
        hi = end - word if end < word + 8 else 8
        cells[lo:hi] = [entry] * (hi - lo)
        words[word] = cells
        word += 8


def per_byte(words: LastWriterMap) -> Dict[int, tuple]:
    """The canonical view: byte address -> entry, for every written byte."""
    view: Dict[int, tuple] = {}
    for word, value in words.items():
        if value.__class__ is list:
            for offset, entry in enumerate(value):
                if entry is not None:
                    view[word + offset] = entry
        else:
            for offset in range(8):
                view[word + offset] = value
    return view


def map_entries(words: LastWriterMap,
                convert: Callable[[tuple], tuple]) -> LastWriterMap:
    """A new map holding ``convert(entry)`` in place of every entry."""
    out: LastWriterMap = {}
    for word, value in words.items():
        if value.__class__ is list:
            out[word] = [None if entry is None else convert(entry)
                         for entry in value]
        else:
            out[word] = convert(value)
    return out
