"""Store Alias Table (SAT).

Section 3.2: the SAT maps each store PC to the SSN of the youngest in-flight
instance of that store.  It is untagged (so two store PCs that alias to the
same index overwrite each other's entries, which is a performance issue only)
and each entry holds a single SSN.  The SSN of each store is inserted at
rename.  Like a register alias table, the SAT is repaired on pipeline
flushes, although repair is needed only for performance, not correctness.

Repair is by log (``repair="log"``): each update returns an undo record
that the pipeline replays, youngest first, when stores are squashed, which
restores the table exactly.  The paper's alternative, a budget of 4
full-table checkpoints as in RAT repair, is therefore not modelled.
``repair="none"`` disables repair so its performance effect can be
measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional

from repro.core.predictors import SATConfig


class SATUndoRecord(NamedTuple):
    """Undo record produced by :meth:`StoreAliasTable.update` (log repair).

    A named tuple: one is produced per renamed store on the dispatch hot
    path, and tuple construction is several times cheaper than a (frozen)
    dataclass while keeping the same named, immutable reading surface.
    """

    index: int
    previous_ssn: int


@dataclass(slots=True)
class SATStats:
    """SAT activity counters."""

    updates: int = 0
    lookups: int = 0
    undos: int = 0


class StoreAliasTable:
    """Untagged store-PC -> youngest-in-flight-SSN table."""

    def __init__(self, config: Optional[SATConfig] = None) -> None:
        self.config = config or SATConfig()
        self.stats = SATStats()
        self._table: List[int] = [0] * self.config.entries
        self._index_mask = self.config.entries - 1

    def index_of(self, store_pc: int) -> int:
        """SAT index for a store PC (low-order PC bits, word-aligned)."""
        return (store_pc >> 2) & self._index_mask

    def index_of_partial(self, partial_store_pc: int) -> int:
        """SAT index for an already-partial store PC (as stored in the FSP)."""
        return partial_store_pc & self._index_mask

    # -- main operations --------------------------------------------------------

    def update(self, store_pc: int, ssn: int) -> SATUndoRecord:
        """Record ``ssn`` as the youngest in-flight instance of ``store_pc``.

        Returns an undo record for log-based repair.
        """
        table = self._table
        index = (store_pc >> 2) & self._index_mask
        previous = table[index]
        table[index] = ssn
        self.stats.updates += 1
        return SATUndoRecord(index, previous)

    def lookup(self, store_pc: int) -> int:
        """SSN of the youngest known instance of ``store_pc`` (0 if none)."""
        self.stats.lookups += 1
        return self._table[self.index_of(store_pc)]

    def lookup_partial(self, partial_store_pc: int) -> int:
        """Lookup by partial store PC (the value stored in FSP entries)."""
        self.stats.lookups += 1
        return self._table[self.index_of_partial(partial_store_pc)]

    # -- log-based repair -------------------------------------------------------

    def undo(self, record: SATUndoRecord) -> None:
        """Apply one undo record (youngest squashed store first)."""
        self._table[record.index] = record.previous_ssn
        self.stats.undos += 1

    # -- maintenance ------------------------------------------------------------

    def clear(self) -> None:
        """Clear all entries (SSN wrap handling)."""
        self._table = [0] * self.config.entries

    def copy_from(self, other: "StoreAliasTable") -> None:
        """Take over ``other``'s entries and counters (same geometry; this
        table keeps its own list)."""
        self._table[:] = other._table
        self.stats = replace(other.stats)

    def snapshot(self) -> List[int]:
        """Copy of the table contents (tests and diagnostics)."""
        return list(self._table)

    def state_signature(self) -> tuple:
        """Hashable snapshot of the table contents (exact)."""
        return tuple(self._table)

    def storage_bits(self, ssn_bits: int = 16) -> int:
        """Approximate storage cost in bits."""
        return ssn_bits * self.config.entries
