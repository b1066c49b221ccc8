"""Byte-addressable memory image, stored a 64-bit word at a time.

The memory image holds the *architectural* (committed) memory state.  Stores
update it at commit; value-based re-execution reads it at load commit to
obtain the correct load value (all older stores have committed by then, so
the image is exactly the state the load should observe).

The image is sparse: only bytes that have been written are state.  Unwritten
bytes read as a deterministic per-address background pattern so that two
independent simulations of the same trace observe identical "uninitialised"
values (important when comparing the speculative value read at execute time
against the re-executed value at commit time).

Layout.  Nearly every access the detailed core makes is an aligned 8-byte
load or store, so the image is kept per aligned 8-byte word:

* ``_words`` maps the aligned address of every word with at least one
  explicitly written byte to the word's full 64-bit value.  Its unwritten
  bytes hold their background values, so an aligned 8-byte read of such a
  word is one dictionary ``get`` and an aligned 8-byte write is one store.
* ``_written`` maps the same addresses to the 8-bit mask of explicitly
  written bytes (bit ``i`` is the byte at ``word + i``).  Together with
  ``_words`` it is the image's whole state: it is what pickles, copies and
  :meth:`MemoryImage.state_signature` see.

Background words are a pure function of the address, so one bounded memo
serves every image in the process (:func:`_background_word`, an LRU of
:data:`BACKGROUND_MEMO_WORDS` words): a sweep that runs many configurations
of one trace, or loads many snapshot images of one program, hashes each
untouched word once rather than once per image.  The memo is not image
state: pickles, copies and signatures never see it, and an image reads the
same values whether it is warm, cold or evicted.

Unaligned and narrow accesses (rare: a few kernels issue them) merge into
or assemble from the words they span, at most two for accesses of up to
8 bytes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

_WORD_BITS = (1 << 64) - 1

#: Bound of the process-wide background-word memo.  An entry costs about
#: 160 bytes on CPython 3.11, so the full memo is ~2.5 MiB.  One perfbench
#: pass reads 2.4k (``fig4-sweep``) to 5.9k (``sampled-ckpt``) distinct
#: untouched words at seeds 1-3, so neither evicts.
BACKGROUND_MEMO_WORDS = 1 << 14


@lru_cache(maxsize=BACKGROUND_MEMO_WORDS)
def _background_word(base: int) -> int:
    """Background values of the eight bytes at ``base`` (little-endian).

    Each byte is a cheap integer hash of its own address, which keeps
    different addresses from aliasing to the same value too often (that
    would mask mis-forwardings in tests).  Memoised process-wide (see the
    module docstring).
    """
    value = 0
    shift = 0
    for addr in range(base, base + 8):
        x = (addr * 0x9E3779B97F4A7C15) & 0xFFFF_FFFF_FFFF_FFFF
        x ^= x >> 29
        value |= ((x * 0xBF58476D1CE4E5B9 >> 56) & 0xFF) << shift
        shift += 8
    return value


class MemoryImage:
    """Sparse byte-addressable memory held as 64-bit words.

    ``_words`` and ``_written`` are the whole state (see the module
    docstring).
    """

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        self._written: Dict[int, int] = {}

    def _word(self, base: int) -> int:
        """The current value of the aligned word at ``base``."""
        value = self._words.get(base)
        if value is None:
            value = _background_word(base)
        return value

    def write(self, addr: int, size: int, value: int) -> None:
        """Write ``size`` bytes of ``value`` (little-endian) at ``addr``."""
        if size == 8 and not addr & 7 and value >= 0:
            self._words[addr] = value & _WORD_BITS
            self._written[addr] = 0xFF
            return
        if size <= 0:
            raise ValueError("write size must be positive")
        if value < 0:
            raise ValueError("write value must be non-negative")
        # Merge the write into every word it spans: the value, its bit mask
        # and its byte mask are shifted to the first word's offset and
        # consumed one word at a time.
        words = self._words
        written = self._written
        base = addr & ~7
        offset = addr - base
        field = (1 << (8 * size)) - 1
        bits = (value & field) << (8 * offset)
        mask = field << (8 * offset)
        byte_mask = ((1 << size) - 1) << offset
        while byte_mask:
            word_mask = mask & _WORD_BITS
            words[base] = (self._word(base) & ~word_mask) | (bits & _WORD_BITS)
            written[base] = written.get(base, 0) | (byte_mask & 0xFF)
            bits >>= 64
            mask >>= 64
            byte_mask >>= 8
            base += 8

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes (little-endian) at ``addr``."""
        if size == 8 and not addr & 7:
            value = self._words.get(addr)
            if value is None:
                value = _background_word(addr)
            return value
        if size <= 0:
            raise ValueError("read size must be positive")
        base = addr & ~7
        offset = addr - base
        value = 0
        shift = 0
        for word_base in range(base, addr + size, 8):
            value |= self._word(word_base) << shift
            shift += 64
        return (value >> (8 * offset)) & ((1 << (8 * size)) - 1)

    def read_byte(self, addr: int) -> int:
        """Read a single byte."""
        base = addr & ~7
        value = self._words.get(base)
        if value is None:
            value = _background_word(base)
        return (value >> (8 * (addr - base))) & 0xFF

    def is_written(self, addr: int) -> bool:
        """True if the byte at ``addr`` has been explicitly written."""
        base = addr & ~7
        return bool(self._written.get(base, 0) >> (addr - base) & 1)

    def written_byte_count(self) -> int:
        """Number of bytes explicitly written."""
        return sum(mask.bit_count() for mask in self._written.values())

    def copy(self) -> "MemoryImage":
        """Deep copy of the image (used by the functional trace checker)."""
        clone = MemoryImage()
        clone._words = dict(self._words)
        clone._written = dict(self._written)
        return clone

    def clear(self) -> None:
        """Discard all written bytes."""
        self._words.clear()
        self._written.clear()

    def state_signature(self) -> tuple:
        """Hashable snapshot of every explicitly written byte, as sorted
        ``(address, byte)`` pairs."""
        words = self._words
        return tuple(
            (base + i, (words[base] >> (8 * i)) & 0xFF)
            for base, mask in sorted(self._written.items())
            for i in range(8) if mask >> i & 1)
