"""Original Store Sets predictor (SSIT + LFST).

Chrysos & Emer's Store Sets predictor [3] is the inspiration for the paper's
FSP/SAT formulation and is the scheduler used by the first configuration in
Table 1 ("associative store queue with original Store Sets scheduling").  It
is included here both as that baseline and so that unit tests can contrast
its behaviour with the reformulated FSP/SAT scheme:

* The **Store Set ID Table (SSIT)** maps *both* load and store PCs to store
  set identifiers (SSIDs).  Loads and stores that have collided in the past
  are placed in the same set via the set-merging rules of the original paper
  (when a load and store collide, if neither has a set a new set is created;
  if one has a set the other joins it; if both have sets the sets are merged
  by convention toward the smaller SSID).
* The **Last Fetched Store Table (LFST)** maps each SSID to the instruction
  number (here: the SSN) of the most recently fetched/renamed store in that
  set.  A load with a valid SSID must wait for the store named by the LFST;
  a store with a valid SSID also waits for the previous store in its set
  (store-store ordering), which serialises the set.

A squashed store must leave the LFST as its rename found it.  A flush
rewinds the SSNs, so the re-renamed store gets the squashed store's SSN
back; an LFST entry still naming that SSN would make the store wait on
itself and deadlock the pipeline.  :meth:`StoreSetsPredictor.store_squashed`
puts back the previous store's SSN when the LFST still names the squashed
one.  Squashes run youngest first, so this undoes
:meth:`~StoreSetsPredictor.store_renamed` exactly, the way a log repairs
the SAT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.predictors import StoreSetsConfig


@dataclass(slots=True)
class StoreSetsStats:
    """Store Sets activity counters."""

    load_lookups: int = 0
    store_lookups: int = 0
    assignments: int = 0
    merges: int = 0
    lfst_updates: int = 0


_INVALID_SSID = -1


class StoreSetsPredictor:
    """Original Store Sets (SSIT/LFST) memory dependence predictor."""

    def __init__(self, config: Optional[StoreSetsConfig] = None) -> None:
        self.config = config or StoreSetsConfig()
        self.stats = StoreSetsStats()
        self._ssit: List[int] = [_INVALID_SSID] * self.config.ssit_entries
        self._lfst: List[int] = [0] * self.config.lfst_entries
        self._ssit_mask = self.config.ssit_entries - 1
        self._lfst_mask = self.config.lfst_entries - 1
        self._next_ssid = 0

    # -- indexing ---------------------------------------------------------------

    def _ssit_index(self, pc: int) -> int:
        return (pc >> 2) & self._ssit_mask

    def ssid_of(self, pc: int) -> int:
        """The SSID currently assigned to this PC (``-1`` if none)."""
        return self._ssit[self._ssit_index(pc)]

    # -- front-end operations ---------------------------------------------------

    def load_renamed(self, load_pc: int) -> Optional[int]:
        """Return the SSN of the store this load must wait for (or ``None``).

        Mirrors ``ld.INUM = LFST[SSIT[ld.PC]]`` from Table 1.
        """
        self.stats.load_lookups += 1
        ssid = self.ssid_of(load_pc)
        if ssid == _INVALID_SSID:
            return None
        ssn = self._lfst[ssid & self._lfst_mask]
        return ssn if ssn > 0 else None

    def store_renamed(self, store_pc: int, ssn: int) -> Optional[int]:
        """Record a renamed store; returns the SSN of the previous store in
        its set (store-store serialisation), or ``None``.

        Mirrors ``LFST[SSIT[st.PC]] = INUM++`` from Table 1.
        """
        self.stats.store_lookups += 1
        ssid = self.ssid_of(store_pc)
        if ssid == _INVALID_SSID:
            return None
        index = ssid & self._lfst_mask
        previous = self._lfst[index]
        self._lfst[index] = ssn
        self.stats.lfst_updates += 1
        return previous if previous > 0 else None

    def store_committed(self, store_pc: int, ssn: int) -> None:
        """Clear the LFST entry if this store is still the last fetched one."""
        ssid = self.ssid_of(store_pc)
        if ssid == _INVALID_SSID:
            return
        index = ssid & self._lfst_mask
        if self._lfst[index] == ssn:
            self._lfst[index] = 0

    def store_squashed(self, store_pc: int, ssn: int, previous: int) -> None:
        """Undo :meth:`store_renamed` for a squashed store.

        ``previous`` is the SSN :meth:`store_renamed` returned for it (0 for
        none).  The LFST entry goes back to ``previous`` if it still names
        ``ssn``.
        """
        ssid = self.ssid_of(store_pc)
        if ssid == _INVALID_SSID:
            return
        index = ssid & self._lfst_mask
        if self._lfst[index] == ssn:
            self._lfst[index] = previous

    # -- training ---------------------------------------------------------------

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Train on a memory-ordering violation between ``load_pc`` and
        ``store_pc`` using the original set-assignment/merge rules."""
        load_index = self._ssit_index(load_pc)
        store_index = self._ssit_index(store_pc)
        load_ssid = self._ssit[load_index]
        store_ssid = self._ssit[store_index]

        if load_ssid == _INVALID_SSID and store_ssid == _INVALID_SSID:
            ssid = self._allocate_ssid()
            self._ssit[load_index] = ssid
            self._ssit[store_index] = ssid
            self.stats.assignments += 1
        elif load_ssid == _INVALID_SSID:
            self._ssit[load_index] = store_ssid
            self.stats.assignments += 1
        elif store_ssid == _INVALID_SSID:
            self._ssit[store_index] = load_ssid
            self.stats.assignments += 1
        elif load_ssid != store_ssid:
            # Merge: both move to the smaller SSID (declining-SSID convention).
            winner = min(load_ssid, store_ssid)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner
            self.stats.merges += 1

    def _allocate_ssid(self) -> int:
        ssid = self._next_ssid
        self._next_ssid = (self._next_ssid + 1) & self._lfst_mask
        return ssid

    # -- maintenance ------------------------------------------------------------

    def clear(self) -> None:
        """Clear both tables (periodic clearing in the original proposal)."""
        self._ssit = [_INVALID_SSID] * self.config.ssit_entries
        self._lfst = [0] * self.config.lfst_entries
        self._next_ssid = 0

    def copy_from(self, other: "StoreSetsPredictor") -> None:
        """Take over ``other``'s SSIT, LFST, SSID counter and counters (same
        geometry; this predictor keeps its own lists)."""
        self._ssit[:] = other._ssit
        self._lfst[:] = other._lfst
        self._next_ssid = other._next_ssid
        self.stats = replace(other.stats)

    def ssit_signature(self) -> tuple:
        """Hashable snapshot of the SSIT (set-membership structure only).

        The LFST is excluded on purpose: it holds transient youngest-
        in-flight SSNs, which functional warming (where every store commits
        instantly) cannot and need not reproduce.
        """
        return tuple(self._ssit)
