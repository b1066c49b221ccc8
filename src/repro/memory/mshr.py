"""Miss Status Holding Registers and the stride prefetcher.

This module holds the building blocks of the non-blocking memory hierarchy
(:mod:`repro.memory.mlp`): the bounded :class:`MSHRFile` that tracks
outstanding cache misses, and the per-PC :class:`StridePrefetcher` that
speculatively allocates prefetch entries into it.  It deliberately does not
import :mod:`repro.memory.hierarchy`, so the hierarchy config can embed
:class:`MLPConfig` without an import cycle.

The MSHR interface mirrors the synapse32 ``MSHR_REVIEW.md`` design:

* **alloc** — claim the lowest-numbered free entry for a missing line
  (first-fit priority encoding); refuse when the file is full.
* **match** — CAM lookup over the valid entries' line addresses; a hit means
  a fill for that line is already in flight and the request *coalesces*
  onto it (recorded in the entry's word mask) instead of allocating.
* **retire** — a fill completes and frees its entry.

Lines are 64 bytes by default, so the line address drops the bottom 6 bits
and the word mask tracks the 16 4-byte words of the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PrefetchConfig:
    """Stride-prefetcher knobs (inactive unless ``enabled``).

    The prefetcher keeps a small PC-indexed table of ``(last address,
    stride, confidence)`` records; once a PC has repeated the same stride
    ``confidence`` times, each further access issues up to ``degree``
    prefetches at successive stride multiples ahead.  Prefetches allocate
    MSHR entries tagged as prefetch — they never count against demand
    statistics and never claim the file's last free entry.
    """

    enabled: bool = False
    table_entries: int = 64
    degree: int = 2
    confidence: int = 2
    max_outstanding: int = 4

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or self.table_entries & (self.table_entries - 1):
            raise ValueError("prefetch table_entries must be a positive power of two")
        if self.degree < 1:
            raise ValueError("prefetch degree must be at least 1")
        if self.confidence < 1:
            raise ValueError("prefetch confidence must be at least 1")
        if self.max_outstanding < 1:
            raise ValueError("prefetch max_outstanding must be at least 1")


@dataclass(frozen=True)
class MLPConfig:
    """Non-blocking hierarchy knobs (``MemoryHierarchyConfig.mlp``).

    ``enabled`` selects the MLP model at all; the blocking scalar-latency
    hierarchy stays the default.  ``mshr_entries == 1`` **is** the blocking
    model: a single MSHR admits no overlap, so the degenerate configuration
    delegates to the inherited blocking path and is bit-identical to it by
    construction (the golden-anchored degeneracy contract).  Consequently
    the genuinely non-blocking features — the lazily-filled L2 level and
    the prefetcher — require ``mshr_entries >= 2``.
    """

    enabled: bool = False
    mshr_entries: int = 8
    l2_enabled: bool = True
    prefetch: PrefetchConfig = PrefetchConfig()

    def __post_init__(self) -> None:
        if self.mshr_entries < 1:
            raise ValueError("mshr_entries must be at least 1")
        if self.mshr_entries == 1 and (self.l2_enabled or self.prefetch.enabled):
            raise ValueError(
                "mshr_entries=1 is the blocking degenerate mode: it requires "
                "l2_enabled=False and prefetch disabled")


@dataclass(slots=True)
class MLPStats:
    """Counters accumulated by the non-blocking hierarchy.

    ``inflight_sum`` adds the number of in-flight demand misses (including
    the new one) at every demand allocation, so ``inflight_sum /
    demand_misses`` is the average memory-level parallelism observed at
    miss time (``mlp_avg``).  ``occupancy_peak`` is a peak, not a sum.
    """

    demand_misses: int = 0
    misses_coalesced: int = 0
    inflight_sum: int = 0
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    occupancy_peak: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int]:
        """The summable counters (everything except the peak), for the
        core's warm-up delta accounting."""
        return (self.demand_misses, self.misses_coalesced, self.inflight_sum,
                self.prefetch_issued, self.prefetch_useful)

    @property
    def mlp_avg(self) -> float:
        return self.inflight_sum / self.demand_misses if self.demand_misses else 0.0


class MSHREntry:
    """One outstanding miss: the line being filled and when the fill lands."""

    __slots__ = ("index", "line", "fill_cycle", "word_mask", "coalesced",
                 "is_prefetch", "install_l2")

    def __init__(self, index: int, line: int, fill_cycle: int,
                 word_mask: int = 0, coalesced: int = 0,
                 is_prefetch: bool = False, install_l2: bool = False) -> None:
        self.index = index
        self.line = line
        self.fill_cycle = fill_cycle
        self.word_mask = word_mask          # 4-byte words of the line requested
        self.coalesced = coalesced          # secondary misses merged onto this fill
        self.is_prefetch = is_prefetch
        self.install_l2 = install_l2        # line also missed L2 -> install there on fill

    def as_tuple(self) -> tuple:
        return (self.index, self.line, self.fill_cycle, self.word_mask,
                self.coalesced, self.is_prefetch, self.install_l2)


class MSHRFile:
    """A bounded file of miss status holding registers.

    Entries are identified by their index (0 .. entries-1); allocation is
    first-fit (the lowest free index, the review's priority encoder), and
    the line-address CAM holds at most one valid entry per line — a request
    for an in-flight line must :meth:`coalesce`, never double-allocate —
    so a match is trivially the lowest matching index.
    """

    def __init__(self, entries: int, line_bytes: int = 64) -> None:
        if entries < 1:
            raise ValueError("an MSHR file needs at least one entry")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a positive power of two")
        self.entries = entries
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._slots: List[Optional[MSHREntry]] = [None] * entries
        self._by_line: Dict[int, MSHREntry] = {}
        self._demand_inflight = 0

    # ------------------------------------------------------------- queries --

    def word_of(self, addr: int) -> int:
        """The 4-byte word index of ``addr`` within its line."""
        return (addr & (self.line_bytes - 1)) >> 2

    @property
    def occupancy(self) -> int:
        return len(self._by_line)

    @property
    def free_entries(self) -> int:
        return self.entries - len(self._by_line)

    @property
    def full(self) -> bool:
        return len(self._by_line) >= self.entries

    @property
    def demand_inflight(self) -> int:
        return self._demand_inflight

    @property
    def prefetch_inflight(self) -> int:
        return len(self._by_line) - self._demand_inflight

    def match(self, addr: int) -> Optional[MSHREntry]:
        """CAM lookup: the valid entry filling ``addr``'s line, if any."""
        return self._by_line.get(addr >> self._line_shift)

    # ----------------------------------------------------- alloc / coalesce --

    def alloc(self, addr: int, fill_cycle: int, *, is_prefetch: bool = False,
              install_l2: bool = False) -> Optional[MSHREntry]:
        """Claim the lowest free entry for ``addr``'s line; None when full.

        The caller must have checked :meth:`match` first — allocating a
        second entry for an in-flight line would break the one-entry-per-
        line CAM invariant and raises.
        """
        line = addr >> self._line_shift
        if line in self._by_line:
            raise ValueError(f"line {line:#x} already has an in-flight MSHR entry")
        slots = self._slots
        for index in range(self.entries):     # first-fit priority encoder
            if slots[index] is None:
                entry = MSHREntry(index, line, fill_cycle,
                                  word_mask=1 << self.word_of(addr),
                                  is_prefetch=is_prefetch, install_l2=install_l2)
                slots[index] = entry
                self._by_line[line] = entry
                if not is_prefetch:
                    self._demand_inflight += 1
                return entry
        return None

    def coalesce(self, entry: MSHREntry, addr: int) -> None:
        """Merge a secondary miss for ``addr`` onto an in-flight entry.

        A demand miss landing on an in-flight *prefetch* entry promotes it
        to demand — the fill timing is unchanged (the request is already on
        its way), only the accounting class changes.
        """
        entry.word_mask |= 1 << self.word_of(addr)
        entry.coalesced += 1
        if entry.is_prefetch:
            entry.is_prefetch = False
            self._demand_inflight += 1

    # ---------------------------------------------------------------- retire --

    def retire(self, index: int) -> MSHREntry:
        """Free one entry by index (the review's retire_req/retire_id)."""
        entry = self._slots[index]
        if entry is None:
            raise ValueError(f"MSHR entry {index} is not valid")
        self._slots[index] = None
        del self._by_line[entry.line]
        if not entry.is_prefetch:
            self._demand_inflight -= 1
        return entry

    def retire_due(self, now: int) -> List[MSHREntry]:
        """Free every entry whose fill has landed (``fill_cycle <= now``).

        Returned in (fill_cycle, index) order so the caller installs lines
        in the deterministic order the fills completed.
        """
        due = [entry for entry in self._slots
               if entry is not None and entry.fill_cycle <= now]
        if not due:
            return due
        due.sort(key=lambda entry: (entry.fill_cycle, entry.index))
        for entry in due:
            self.retire(entry.index)
        return due

    def state_signature(self) -> tuple:
        """Hashable exact snapshot (geometry + every valid entry)."""
        return (self.entries, self.line_bytes,
                tuple(entry.as_tuple() for entry in self._slots if entry is not None))


class StridePrefetcher:
    """Per-PC stride detector issuing line prefetch candidates.

    ``observe`` is called once per demand load (hit or miss) and returns the
    addresses worth prefetching — the hierarchy decides which of those
    actually allocate (free MSHR capacity, residency, outstanding-prefetch
    budget).  The table is direct-mapped on the low PC bits with full-PC
    tags, like the classic reference-prediction-table design.
    """

    def __init__(self, config: PrefetchConfig) -> None:
        self.config = config
        self._mask = config.table_entries - 1
        # index -> [pc_tag, last_addr, stride, confidence]
        self._table: Dict[int, List[int]] = {}

    def observe(self, pc: int, addr: int) -> List[int]:
        slot = pc & self._mask
        row = self._table.get(slot)
        if row is None or row[0] != pc:
            self._table[slot] = [pc, addr, 0, 0]
            return []
        stride = addr - row[1]
        if stride != 0 and stride == row[2]:
            row[3] += 1
        else:
            row[2] = stride
            row[3] = 0
        row[1] = addr
        if stride == 0 or row[3] < self.config.confidence:
            return []
        return [addr + stride * (k + 1) for k in range(self.config.degree)]

    def state_signature(self) -> tuple:
        return tuple(sorted((slot, tuple(row)) for slot, row in self._table.items()))


#: Names re-exported by :mod:`repro.memory`.
__all__ = [
    "MLPConfig",
    "MLPStats",
    "MSHREntry",
    "MSHRFile",
    "PrefetchConfig",
    "StridePrefetcher",
]
