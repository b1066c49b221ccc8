"""Forwarding Store Predictor (FSP).

Section 3.2: the FSP maps each load PC to a small set of store PCs from which
the load recently forwarded.  It is a PC-indexed, set-associative table; each
entry holds a valid bit, a partial tag, a partial store PC, and a short
saturating counter.  The associativity determines both how many loads can
share a set and how many store dependences a single load can represent; the
paper finds 2-way associativity adequate.

The FSP is trained at load commit by every committing load (both positively
and negatively); the per-entry counter weighs positive training against
negative with a default ratio of 8:1.  The decision of *when* to train
positively or negatively (correct forwarding, mis-forwarding with an
unpredicted store PC, distance larger than the SQ, not-most-recent
forwarding) lives in the indexed-SQ policy
(:mod:`repro.lsu.policies`); this class provides the mechanical operations:
lookup, strengthen, weaken, and insert.

The table is sparse: ``_sets`` maps a set index to that set's list of
``assoc`` ways, and a set is created (all ways invalid, in way order) on its
first insert.  A set that was never written behaves exactly like one whose
ways are all invalid: reads skip invalid ways, an insert takes the first
invalid way (else the minimum-``(counter, lru)`` victim in way order), and
``state_signature`` lists only valid entries.  So only the sets a run
touches are built, pickled into checkpoint snapshots, and loaded back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.predictors import FSPConfig


@dataclass(slots=True)
class FSPEntry:
    """One FSP entry."""

    valid: bool = False
    tag: int = 0
    store_pc: int = 0          # partial store PC (SAT index bits)
    full_store_pc: int = 0     # full PC retained for statistics/debugging only
    counter: int = 0
    lru: int = 0


@dataclass(slots=True)
class FSPStats:
    """FSP activity counters."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    strengthens: int = 0
    weakens: int = 0
    invalidations: int = 0


class ForwardingStorePredictor:
    """PC-indexed set-associative load-PC -> store-PC predictor.

    ``_sets`` holds only the sets that have been inserted into (set index ->
    ``assoc`` ways); reads use ``_sets.get(index, ())``, so a lookup never
    creates a set.
    """

    def __init__(self, config: Optional[FSPConfig] = None) -> None:
        self.config = config or FSPConfig()
        self.stats = FSPStats()
        self._sets: Dict[int, List[FSPEntry]] = {}
        self._set_mask = self.config.sets - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._store_pc_mask = (1 << self.config.store_pc_bits) - 1
        self._counter_max = (1 << self.config.counter_bits) - 1
        self._tag_shift = self.config.sets.bit_length() - 1
        self._lru_clock = 0

    # -- indexing helpers -------------------------------------------------------

    def _index(self, load_pc: int) -> int:
        return (load_pc >> 2) & self._set_mask

    def _tag(self, load_pc: int) -> int:
        return ((load_pc >> 2) >> self._tag_shift) & self._tag_mask

    def partial_store_pc(self, store_pc: int) -> int:
        """Partial store PC as stored in an entry (and used to index the SAT)."""
        return (store_pc >> 2) & self._store_pc_mask

    # -- prediction -------------------------------------------------------------

    def lookup(self, load_pc: int) -> List[FSPEntry]:
        """Return the (up to ``assoc``) valid entries whose tag matches.

        A hit stamps every returned entry as most recently used.  Counters
        are not consulted: they steer replacement and invalidation only.
        """
        self.stats.lookups += 1
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        matches = [e for e in self._sets.get(pc & self._set_mask, ())
                   if e.valid and e.tag == tag]
        if matches:
            self.stats.hits += 1
            self._lru_clock += 1
            for entry in matches:
                entry.lru = self._lru_clock
        return matches

    # -- training ---------------------------------------------------------------

    def _find(self, load_pc: int, store_pc: int) -> Optional[FSPEntry]:
        index = self._index(load_pc)
        tag = self._tag(load_pc)
        partial = self.partial_store_pc(store_pc)
        for entry in self._sets.get(index, ()):
            if entry.valid and entry.tag == tag and entry.store_pc == partial:
                return entry
        return None

    def strengthen(self, load_pc: int, store_pc: int) -> None:
        """Positive training: reinforce (or create) the load->store dependence."""
        entry = self._find(load_pc, store_pc)
        if entry is None:
            self.insert(load_pc, store_pc)
            return
        self.stats.strengthens += 1
        entry.counter = min(self._counter_max, entry.counter + self.config.positive_weight)
        self._lru_clock += 1
        entry.lru = self._lru_clock

    def weaken(self, load_pc: int, store_pc: int) -> None:
        """Negative training: weaken the dependence; invalidate when exhausted."""
        entry = self._find(load_pc, store_pc)
        if entry is None:
            return
        self.stats.weakens += 1
        entry.counter -= self.config.negative_weight
        if entry.counter < 0:
            entry.valid = False
            entry.counter = 0
            self.stats.invalidations += 1

    def weaken_all(self, load_pc: int) -> None:
        """Weaken every dependence recorded for this load PC."""
        index = self._index(load_pc)
        tag = self._tag(load_pc)
        for entry in self._sets.get(index, ()):
            if entry.valid and entry.tag == tag:
                self.stats.weakens += 1
                entry.counter -= self.config.negative_weight
                if entry.counter < 0:
                    entry.valid = False
                    entry.counter = 0
                    self.stats.invalidations += 1

    def insert(self, load_pc: int, store_pc: int) -> None:
        """Install a new load->store dependence, evicting the weakest way."""
        index = self._index(load_pc)
        tag = self._tag(load_pc)
        partial = self.partial_store_pc(store_pc)
        counter = min(self._counter_max, self.config.positive_weight)
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [FSPEntry() for _ in range(self.config.assoc)]
        self.stats.inserts += 1
        self._lru_clock += 1
        # Reuse an invalid way first.
        for entry in ways:
            if not entry.valid:
                entry.valid = True
                entry.tag = tag
                entry.store_pc = partial
                entry.full_store_pc = store_pc
                entry.counter = counter
                entry.lru = self._lru_clock
                return
        # Evict the entry with the smallest counter (ties broken by LRU).
        victim = min(ways, key=lambda e: (e.counter, e.lru))
        self.stats.evictions += 1
        victim.tag = tag
        victim.store_pc = partial
        victim.full_store_pc = store_pc
        victim.counter = counter
        victim.lru = self._lru_clock

    def invalidate_all(self) -> None:
        """Clear the predictor (SSN wrap handling clears SSN-free state too
        conservatively; provided mainly for tests and wrap modelling).

        Dropping every set is exact: an absent set is an all-invalid one.
        """
        self._sets.clear()

    def copy_from(self, other: "ForwardingStorePredictor") -> None:
        """Take over ``other``'s entries, LRU clock and counters.

        ``other`` has the same geometry.  The entries are copied, in
        ``other``'s set and way order, so the two tables stay independent
        and pickle alike.
        """
        self._sets = {index: [FSPEntry(e.valid, e.tag, e.store_pc,
                                       e.full_store_pc, e.counter, e.lru)
                              for e in ways]
                      for index, ways in other._sets.items()}
        self._lru_clock = other._lru_clock
        self.stats = replace(other.stats)

    def occupancy(self) -> int:
        """Number of valid entries (for diagnostics)."""
        return sum(1 for ways in self._sets.values() for e in ways if e.valid)

    def state_signature(self) -> frozenset:
        """The set of (set index, tag, partial store PC) dependences held.

        Counter and LRU values are excluded: they steer replacement, not
        prediction, and functional warming trains them at a different rate
        than detailed execution.  Warming tests compare dependence *sets*.
        """
        return frozenset(
            (index, entry.tag, entry.store_pc)
            for index, ways in self._sets.items()
            for entry in ways if entry.valid)

    def storage_bits(self) -> int:
        """Approximate storage cost in bits (Section 4.1 sizing discussion)."""
        per_entry = 1 + self.config.tag_bits + self.config.store_pc_bits + self.config.counter_bits
        return per_entry * self.config.entries
