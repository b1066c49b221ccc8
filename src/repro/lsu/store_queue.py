"""Age-ordered store queue.

The SQ holds one entry per in-flight store in program (age) order.  Each
entry records the store's PC, SSN, physical address, size, value, and an
``executed`` flag (the address/value become known when the store executes).
The structure supports the three operations described in Section 2:

* indexed writes for store execution (:meth:`StoreQueue.write_execute`),
* indexed reads for store commit (:meth:`StoreQueue.release`), and
* the load-execution access, which is either a fully-associative
  search-and-read (:meth:`StoreQueue.associative_search`) or — in the
  paper's design — a direct indexed read of a single predicted entry
  (:meth:`StoreQueue.read_indexed`).

Physical slots are addressed by ``ssn % size`` exactly as in the paper
(Section 3.1), so an indexed read of a predicted SSN whose store has already
committed may observe a *different* store occupying the slot; the address
comparison (and ultimately load re-execution) makes that safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.core.ssn import sq_index


@dataclass(slots=True)
class StoreQueueEntry:
    """One in-flight store."""

    ssn: int
    pc: int
    seq: int                      # dynamic sequence number of the store
    addr: Optional[int] = None    # unknown until the store executes
    size: int = 0
    value: int = 0
    executed: bool = False

    def covers(self, addr: int, size: int) -> bool:
        """True if this (executed) store's write fully covers [addr, addr+size)."""
        if not self.executed or self.addr is None:
            return False
        return self.addr <= addr and addr + size <= self.addr + self.size

    def extract(self, addr: int, size: int) -> int:
        """Extract ``size`` bytes at ``addr`` from this store's value."""
        if not self.covers(addr, size):
            raise ValueError("extract() requires a covering store")
        offset = addr - self.addr
        mask = (1 << (8 * size)) - 1
        return (self.value >> (8 * offset)) & mask


@dataclass(slots=True)
class StoreQueueStats:
    """SQ load-access counters."""

    associative_searches: int = 0
    indexed_reads: int = 0


class StoreQueue:
    """Circular, age-ordered store queue."""

    def __init__(self, size: int = 64) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError("SQ size must be a positive power of two")
        self.size = size
        self.stats = StoreQueueStats()
        self._slots: List[Optional[StoreQueueEntry]] = [None] * size
        # SSN bounds of occupied entries: (oldest_ssn, youngest_ssn], both inclusive
        # via the ordered list below.
        self._entries: Deque[StoreQueueEntry] = deque()   # in age order (oldest first)

    # -- capacity ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    # -- lifecycle --------------------------------------------------------------

    def allocate(self, ssn: int, pc: int, seq: int) -> StoreQueueEntry:
        """Allocate an entry for a renamed store (program order).

        The slot ``ssn`` maps to must be free: an in-flight store in it
        would become unreachable by SSN.  Consecutive SSNs never collide
        while the queue has room, which is how the core allocates them.
        """
        if self.is_full():
            raise RuntimeError("store queue overflow; caller must check is_full()")
        if self._entries and ssn <= self._entries[-1].ssn:
            raise ValueError("stores must be allocated in increasing SSN order")
        slot = sq_index(ssn, self.size)
        occupant = self._slots[slot]
        if occupant is not None:
            raise ValueError(
                f"store SSN {ssn} maps to slot {slot}, which still holds "
                f"in-flight SSN {occupant.ssn}")
        entry = StoreQueueEntry(ssn=ssn, pc=pc, seq=seq)
        self._entries.append(entry)
        self._slots[slot] = entry
        return entry

    def write_execute(self, ssn: int, addr: int, size: int, value: int) -> StoreQueueEntry:
        """Store execution: fill in the address/value of the entry for ``ssn``."""
        entry = self._slots[sq_index(ssn, self.size)]
        if entry is None or entry.ssn != ssn:
            raise KeyError(f"store SSN {ssn} is not in the SQ")
        entry.addr = addr
        entry.size = size
        entry.value = value
        entry.executed = True
        return entry

    def release(self, ssn: int) -> StoreQueueEntry:
        """Store commit: remove the oldest entry (must have SSN ``ssn``)."""
        if not self._entries:
            raise RuntimeError("release from an empty store queue")
        entry = self._entries[0]
        if entry.ssn != ssn:
            raise ValueError(f"stores must commit in order: head SSN {entry.ssn}, got {ssn}")
        self._entries.popleft()
        slot = sq_index(ssn, self.size)
        if self._slots[slot] is entry:
            self._slots[slot] = None
        return entry

    def squash_younger(self, ssn: int) -> List[StoreQueueEntry]:
        """Remove all entries with SSN greater than ``ssn`` (pipeline flush).

        Returns the squashed entries, youngest first, so callers can undo SAT
        updates in the correct order.
        """
        squashed: List[StoreQueueEntry] = []
        while self._entries and self._entries[-1].ssn > ssn:
            entry = self._entries.pop()
            slot = sq_index(entry.ssn, self.size)
            if self._slots[slot] is entry:
                self._slots[slot] = None
            squashed.append(entry)
        return squashed

    # -- load access ------------------------------------------------------------

    def read_indexed(self, ssn: int) -> Optional[StoreQueueEntry]:
        """Indexed (direct) read of the slot named by ``ssn``'s low-order bits.

        This is the paper's speculative access: the returned entry may belong
        to a different store than the one predicted (or the slot may be
        empty); the caller performs the address match.
        """
        self.stats.indexed_reads += 1
        return self._slots[sq_index(ssn, self.size)]

    def associative_search(self, addr: int, size: int, before_ssn: int) -> Optional[StoreQueueEntry]:
        """Fully-associative search for the youngest matching older store.

        Considers only stores with ``ssn <= before_ssn`` (i.e. older than the
        load) whose addresses are known (executed) and that fully cover the
        load's bytes.  Returns the youngest such entry or ``None``.  Entries
        are in SSN order, so when the oldest one is past ``before_ssn`` the
        search is over at once.
        """
        self.stats.associative_searches += 1
        entries = self._entries
        if not entries or entries[0].ssn > before_ssn:
            return None
        end = addr + size
        for entry in reversed(entries):
            if entry.ssn > before_ssn:
                continue
            # StoreQueueEntry.covers, inlined: this is the per-load search.
            if entry.executed:
                start = entry.addr
                if start is not None and start <= addr \
                        and end <= start + entry.size:
                    return entry
        return None

    def entries_in_order(self) -> List[StoreQueueEntry]:
        """All entries, oldest first (diagnostics and tests)."""
        return list(self._entries)
