"""Set-associative cache model.

The cache model tracks hit/miss behaviour only (tags + LRU state); data is
held architecturally by :class:`~repro.memory.image.MemoryImage`.  Latency is
a property of the cache level, and the hierarchy composes levels into a total
load-to-use latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by assoc*line "
                f"({self.assoc}*{self.line_bytes})")
        if self.latency < 1:
            raise ValueError("cache latency must be at least 1 cycle")
        n_sets = self.size_bytes // (self.assoc * self.line_bytes)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: number of sets ({n_sets}) must be a power of two")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(slots=True)
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A single cache level with true-LRU replacement.

    The model is access-order based: every lookup either hits (updating LRU
    position) or misses and fills the line, potentially evicting the LRU way.
    Writes are treated as write-allocate (a store commit touches the line the
    same way a load does), which is adequate for latency modelling.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Per-set list of line tags in LRU order (index 0 = most recent).
        self._sets: Dict[int, List[int]] = {}
        self._set_mask = config.n_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1

    def _index_tag(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line & self._set_mask, line

    def lookup(self, addr: int) -> bool:
        """Probe the cache without modifying state; True on hit."""
        index, tag = self._index_tag(addr)
        return tag in self._sets.get(index, ())

    def access(self, addr: int) -> bool:
        """Access the cache; returns True on hit.

        Misses allocate the line (evicting LRU if the set is full).
        """
        line = addr >> self._line_shift
        sets = self._sets
        index = line & self._set_mask
        ways = sets.get(index)
        if ways is None:
            ways = sets[index] = []
        stats = self.stats
        stats.accesses += 1
        if ways:
            if ways[0] == line:         # MRU fast path (most hits land here)
                stats.hits += 1
                return True
            if line in ways:
                stats.hits += 1
                ways.remove(line)
                ways.insert(0, line)
                return True
        stats.misses += 1
        ways.insert(0, line)
        if len(ways) > self.config.assoc:
            ways.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Access the cache *without* allocating on a miss; True on hit.

        The non-blocking hierarchy's counted lookup: hits update LRU and
        the counters exactly like :meth:`access`, but a missing line is
        installed only when its fill lands (:meth:`touch_line` at MSHR
        retire), not at miss time.
        """
        line = addr >> self._line_shift
        sets = self._sets
        index = line & self._set_mask
        ways = sets.get(index)
        stats = self.stats
        stats.accesses += 1
        if ways:
            if ways[0] == line:         # MRU fast path (most hits land here)
                stats.hits += 1
                return True
            if line in ways:
                stats.hits += 1
                ways.remove(line)
                ways.insert(0, line)
                return True
        stats.misses += 1
        return False

    def touch_line(self, addr: int) -> None:
        """Install a line without counting the access (used for warm-up)."""
        line = addr >> self._line_shift
        sets = self._sets
        index = line & self._set_mask
        ways = sets.get(index)
        if ways is None:
            ways = sets[index] = []
        elif ways and ways[0] == line:
            return                      # already most recently used
        if line in ways:
            ways.remove(line)
        ways.insert(0, line)
        if len(ways) > self.config.assoc:
            ways.pop()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def copy(self) -> "Cache":
        """An exact copy (contents, LRU order and counters) that shares no
        mutable state with this cache."""
        clone = Cache.__new__(Cache)
        clone.config = self.config
        clone.stats = replace(self.stats)
        clone._sets = {index: ways[:] for index, ways in self._sets.items()}
        clone._set_mask = self._set_mask
        clone._line_shift = self._line_shift
        return clone

    def resident_lines(self) -> frozenset:
        """The set of line tags currently resident (LRU order ignored).

        Functional warming replays accesses in program order while the
        detailed core accesses out of order, so LRU *order* differs
        slightly; the warming tests compare residency sets instead.
        """
        return frozenset(tag for ways in self._sets.values() for tag in ways)

    def flush(self) -> None:
        """Invalidate all lines (statistics are preserved)."""
        self._sets.clear()

    def state_signature(self) -> tuple:
        """Hashable snapshot of the full contents *including* LRU order.

        Stricter than :meth:`resident_lines`: used where exactness is the
        contract (checkpoint export/import round trips), not where
        program-order vs execution-order reordering is expected.
        """
        return tuple(sorted((index, tuple(ways))
                            for index, ways in self._sets.items() if ways))


#: Default cache configurations from Section 4.1 of the paper.
DEFAULT_L1_CONFIG = CacheConfig(name="L1D", size_bytes=64 * 1024, assoc=2, line_bytes=64, latency=3)
DEFAULT_L2_CONFIG = CacheConfig(name="L2", size_bytes=1024 * 1024, assoc=8, line_bytes=64, latency=10)
