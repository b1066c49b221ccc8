"""Store Alias Table (SAT).

Section 3.2: the SAT maps each store PC to the SSN of the youngest in-flight
instance of that store.  It is untagged (so two store PCs that alias to the
same index overwrite each other's entries, which is a performance issue only)
and each entry holds a single SSN.  The SSN of each store is inserted at
rename.  Like a register alias table, the SAT is repaired on pipeline
flushes, although repair is needed only for performance, not correctness.

Two repair mechanisms are implemented, mirroring the paper's analogy with RAT
repair: ``log`` (each update returns an undo record that the pipeline
replays, youngest first, when stores are squashed) and ``checkpoint``
(bounded number of full-table snapshots).  ``none`` disables repair so its
performance effect can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional

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
    checkpoints_taken: int = 0
    checkpoints_restored: int = 0
    checkpoint_overflows: int = 0


class StoreAliasTable:
    """Untagged store-PC -> youngest-in-flight-SSN table."""

    def __init__(self, config: Optional[SATConfig] = None) -> None:
        self.config = config or SATConfig()
        self.stats = SATStats()
        self._table: List[int] = [0] * self.config.entries
        self._index_mask = self.config.entries - 1
        self._checkpoints: Dict[int, List[int]] = {}
        self._next_checkpoint_id = 0

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

    # -- checkpoint-based repair ------------------------------------------------

    def checkpoint(self) -> Optional[int]:
        """Take a full-table checkpoint; returns its id, or ``None`` if the
        configured checkpoint budget is exhausted."""
        if len(self._checkpoints) >= self.config.checkpoints:
            self.stats.checkpoint_overflows += 1
            return None
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        self._checkpoints[checkpoint_id] = list(self._table)
        self.stats.checkpoints_taken += 1
        return checkpoint_id

    def restore(self, checkpoint_id: int) -> None:
        """Restore from a checkpoint and discard it along with younger ones."""
        if checkpoint_id not in self._checkpoints:
            raise KeyError(f"unknown SAT checkpoint {checkpoint_id}")
        self._table = list(self._checkpoints[checkpoint_id])
        self.stats.checkpoints_restored += 1
        for cid in list(self._checkpoints):
            if cid >= checkpoint_id:
                del self._checkpoints[cid]

    def release(self, checkpoint_id: int) -> None:
        """Discard a checkpoint without restoring (e.g. the branch committed)."""
        self._checkpoints.pop(checkpoint_id, None)

    # -- maintenance ------------------------------------------------------------

    def clear(self) -> None:
        """Clear all entries (SSN wrap handling)."""
        self._table = [0] * self.config.entries
        self._checkpoints.clear()

    def copy_from(self, other: "StoreAliasTable") -> None:
        """Take over ``other``'s entries, checkpoints and counters (same
        geometry; this table keeps its own list)."""
        self._table[:] = other._table
        self._checkpoints = {cid: list(table)
                             for cid, table in other._checkpoints.items()}
        self._next_checkpoint_id = other._next_checkpoint_id
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
