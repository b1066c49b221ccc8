"""Two-level cache hierarchy with flat main memory.

Composes an L1 data cache, a unified L2, a data TLB, and main memory into a
single ``load latency`` / ``store commit`` interface used by the load-store
unit.  Latencies follow Section 4.1 of the paper: 3-cycle L1, 10-cycle L2,
150-cycle memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.memory.cache import Cache, CacheConfig, DEFAULT_L1_CONFIG, DEFAULT_L2_CONFIG
from repro.memory.mshr import MLPConfig
from repro.memory.tlb import TLB, TLBConfig


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Configuration of the full memory hierarchy.

    ``mlp`` selects the non-blocking model
    (:class:`~repro.memory.mlp.NonBlockingHierarchy`; MSHR-tracked
    outstanding misses, miss coalescing, lazily-filled L2, optional stride
    prefetcher).  It is off by default — this class alone always models the
    blocking scalar-latency hierarchy — and is honoured by
    :func:`repro.memory.mlp.build_hierarchy`, the construction point the
    detailed core and the functional warmer share.
    """

    l1: CacheConfig = DEFAULT_L1_CONFIG
    l2: CacheConfig = DEFAULT_L2_CONFIG
    tlb: TLBConfig = TLBConfig()
    memory_latency: int = 150
    model_tlb: bool = True
    mlp: MLPConfig = MLPConfig()

    def __post_init__(self) -> None:
        if self.memory_latency < 1:
            raise ValueError("memory latency must be at least one cycle")


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate statistics for the hierarchy."""

    load_accesses: int = 0
    store_accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    tlb_misses: int = 0

    def l1_miss_rate(self) -> float:
        """L1 misses per access; 0.0 when nothing was accessed."""
        total = self.load_accesses + self.store_accesses
        return self.l1_misses / total if total else 0.0

    def l2_miss_rate(self) -> float:
        """L2 *local* miss rate (misses per L1 miss); 0.0 when L2 was idle."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0

    def tlb_miss_rate(self) -> float:
        """TLB misses per access; 0.0 when nothing was accessed."""
        total = self.load_accesses + self.store_accesses
        return self.tlb_misses / total if total else 0.0


class MemoryHierarchy:
    """L1 + L2 + memory latency model with an optional TLB."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        self.config = config or MemoryHierarchyConfig()
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.tlb = TLB(self.config.tlb)
        self.stats = HierarchyStats()

    @property
    def l1_latency(self) -> int:
        """The load-to-use latency of an L1 hit (the scheduler's assumption)."""
        return self.config.l1.latency

    def load_latency(self, addr: int) -> int:
        """Latency of a load to ``addr``, updating cache/TLB state."""
        stats = self.stats
        stats.load_accesses += 1
        config = self.config
        latency = config.l1.latency
        if config.model_tlb:
            # Inlined TLB page-cache MRU-hit path (the overwhelmingly common
            # case); anything else goes through Cache.access.
            tlb_cache = self.tlb._cache
            page = addr >> tlb_cache._line_shift
            ways = tlb_cache._sets.get(page & tlb_cache._set_mask)
            if ways and ways[0] == page:
                tlb_stats = tlb_cache.stats
                tlb_stats.accesses += 1
                tlb_stats.hits += 1
            elif not tlb_cache.access(addr):
                stats.tlb_misses += 1
                latency += config.tlb.miss_penalty
        # Inlined L1 MRU-hit path.
        l1 = self.l1
        line = addr >> l1._line_shift
        ways = l1._sets.get(line & l1._set_mask)
        if ways and ways[0] == line:
            l1_stats = l1.stats
            l1_stats.accesses += 1
            l1_stats.hits += 1
            return latency
        if l1.access(addr):
            return latency
        stats.l1_misses += 1
        latency += config.l2.latency
        if self.l2.access(addr):
            return latency
        stats.l2_misses += 1
        return latency + config.memory_latency

    def store_touch(self, addr: int) -> int:
        """Model a store commit touching the hierarchy; returns latency.

        Store commit latency is off the critical path (stores retire into a
        write buffer), so the returned latency is informational only, but the
        line allocation keeps subsequent loads to the same line warm.
        """
        stats = self.stats
        stats.store_accesses += 1
        config = self.config
        latency = config.l1.latency
        if config.model_tlb:
            # Inlined TLB page-cache MRU-hit path (the overwhelmingly common
            # case); anything else goes through Cache.access.
            tlb_cache = self.tlb._cache
            page = addr >> tlb_cache._line_shift
            ways = tlb_cache._sets.get(page & tlb_cache._set_mask)
            if ways and ways[0] == page:
                tlb_stats = tlb_cache.stats
                tlb_stats.accesses += 1
                tlb_stats.hits += 1
            elif not tlb_cache.access(addr):
                stats.tlb_misses += 1
                latency += config.tlb.miss_penalty
        # Inlined L1 MRU-hit path.
        l1 = self.l1
        line = addr >> l1._line_shift
        ways = l1._sets.get(line & l1._set_mask)
        if ways and ways[0] == line:
            l1_stats = l1.stats
            l1_stats.accesses += 1
            l1_stats.hits += 1
            return latency
        if l1.access(addr):
            return latency
        stats.l1_misses += 1
        latency += config.l2.latency
        if self.l2.access(addr):
            return latency
        stats.l2_misses += 1
        return latency + config.memory_latency

    def warm(self, addr: int) -> None:
        """Pre-install the line holding ``addr`` into L1 and L2 (warm-up)."""
        self.l1.touch_line(addr)
        self.l2.touch_line(addr)

    def reset_stats(self) -> None:
        self.stats = HierarchyStats()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.tlb.reset_stats()

    def copy(self) -> "MemoryHierarchy":
        """An exact copy (cache and TLB contents, LRU order, counters) that
        shares no mutable state with this hierarchy."""
        clone = MemoryHierarchy.__new__(type(self))
        clone.config = self.config
        clone.l1 = self.l1.copy()
        clone.l2 = self.l2.copy()
        clone.tlb = self.tlb.copy()
        clone.stats = replace(self.stats)
        return clone

    def state_signature(self) -> tuple:
        """Hashable snapshot of L1 + L2 + TLB contents (exact, LRU order
        included); used by the checkpoint round-trip tests."""
        return (self.l1.state_signature(), self.l2.state_signature(),
                self.tlb.state_signature())
