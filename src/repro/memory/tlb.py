"""TLB model.

The simulator uses identity translation (virtual address == physical
address), so the TLB contributes only latency and statistics.  A TLB miss
adds a fixed page-walk latency to the memory access that caused it, matching
the coarse treatment in the paper's configuration (128-entry, 4-way TLBs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache, CacheConfig, CacheStats


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry and miss penalty."""

    entries: int = 128
    assoc: int = 4
    page_bytes: int = 4096
    miss_penalty: int = 30

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ValueError("TLB geometry parameters must be positive")
        if self.entries % self.assoc != 0:
            raise ValueError("TLB entries must be divisible by associativity")
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page size must be a power of two")


class TLB:
    """A TLB modelled as a small set-associative cache of page numbers."""

    def __init__(self, config: TLBConfig = TLBConfig()) -> None:
        self.config = config
        # Reuse the cache machinery: one "line" per page.
        cache_config = CacheConfig(
            name="TLB",
            size_bytes=config.entries * config.page_bytes,
            assoc=config.assoc,
            line_bytes=config.page_bytes,
            latency=1,
        )
        self._cache = Cache(cache_config)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def access(self, addr: int) -> int:
        """Access the TLB for ``addr``; returns the added latency (0 on hit)."""
        hit = self._cache.access(addr)
        return 0 if hit else self.config.miss_penalty

    def reset_stats(self) -> None:
        self._cache.reset_stats()

    def copy(self) -> "TLB":
        """An exact copy that shares no mutable state with this TLB."""
        clone = TLB.__new__(TLB)
        clone.config = self.config
        clone._cache = self._cache.copy()
        return clone

    def flush(self) -> None:
        self._cache.flush()

    def state_signature(self) -> tuple:
        """Hashable snapshot of the cached page numbers (with LRU order)."""
        return self._cache.state_signature()
