"""Branch target buffer.

A 2K-entry, 4-way set-associative BTB (paper configuration).  The BTB maps a
branch PC to its most recent taken target; a taken branch whose target is not
in the BTB cannot redirect fetch in time and is charged as a misprediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class BTBConfig:
    """BTB geometry."""

    entries: int = 2048
    assoc: int = 4

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ValueError("BTB geometry parameters must be positive")
        if self.entries % self.assoc != 0:
            raise ValueError("BTB entries must be divisible by associativity")
        n_sets = self.entries // self.assoc
        if n_sets & (n_sets - 1):
            raise ValueError("BTB set count must be a power of two")


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, config: Optional[BTBConfig] = None) -> None:
        self.config = config or BTBConfig()
        self._set_mask = (self.config.entries // self.config.assoc) - 1
        # Per-set list of (tag, target) pairs in LRU order.
        self._sets: Dict[int, List[Tuple[int, int]]] = {}
        self.lookups = 0
        self.hits = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc`` or ``None`` on a miss."""
        self.lookups += 1
        tag = pc >> 2
        ways = self._sets.get(tag & self._set_mask)
        if not ways:
            return None
        mru = ways[0]
        if mru[0] == tag:           # MRU fast path (most hits land here)
            self.hits += 1
            return mru[1]
        for i, (entry_tag, target) in enumerate(ways):
            if entry_tag == tag:
                self.hits += 1
                ways.insert(0, ways.pop(i))
                return target
        return None

    def insert(self, pc: int, target: int) -> None:
        """Install or refresh the target for ``pc``."""
        tag = pc >> 2
        index = tag & self._set_mask
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = []
        elif ways and ways[0][0] == tag:
            # MRU refresh: the way keeps its place.
            ways[0] = (tag, target)
            return
        for i, (entry_tag, _) in enumerate(ways):
            if entry_tag == tag:
                ways.pop(i)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self.config.assoc:
            ways.pop()

    def copy(self) -> "BranchTargetBuffer":
        """An exact copy (entries, LRU order, counters)."""
        clone = BranchTargetBuffer.__new__(BranchTargetBuffer)
        clone.config = self.config
        clone._set_mask = self._set_mask
        clone._sets = {index: ways[:] for index, ways in self._sets.items()}
        clone.lookups = self.lookups
        clone.hits = self.hits
        return clone

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def state_signature(self) -> tuple:
        """Hashable snapshot of the full BTB contents (tags, targets, LRU
        order); used by the checkpoint round-trip tests."""
        return tuple(sorted((index, tuple(ways))
                            for index, ways in self._sets.items() if ways))
