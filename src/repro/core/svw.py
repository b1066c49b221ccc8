"""Store Vulnerability Window (SVW) support structures.

Section 2 reviews SVW-filtered load re-execution (Roth, ISCA'05), which the
paper's design relies on to detect forwarding mis-predictions and to train
its predictors:

* The **Store Sequence Bloom Filter (SSBF)** is an address-indexed table that
  tracks the SSN of the most recent *committed* store to each (byte)
  address.  A load re-executes only if the SSN in the SSBF entry for its
  address is greater than the SSN recorded in its LQ entry (the SSN of the
  youngest older store to which the load is *not* vulnerable).
* The **Store PC Table (SPCT)** holds the PC of the last committed store to
  write each (byte) address, so a committing load can determine the PC of the
  store it should have forwarded from and train the FSP/DDP.

Both structures are implemented at 1-byte granularity (wide stores make
multiple writes, wide loads multiple reads), which the paper notes can be
banked 8 ways.  An access whose bytes map to consecutive entries without
wrapping past the end of the table reads or writes them as one list slice;
any other access walks its bytes one at a time.  Because the tables are
smaller than memory they alias; aliasing can only cause extra
re-executions (SSBF) or mis-training (SPCT), never incorrect final values,
because re-execution itself is value-based.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.predictors import SVWConfig


@dataclass(slots=True)
class SVWStats:
    """SVW filter statistics."""

    loads_checked: int = 0
    loads_reexecuted: int = 0
    ssbf_writes: int = 0
    spct_writes: int = 0

    @property
    def reexecution_rate(self) -> float:
        return self.loads_reexecuted / self.loads_checked if self.loads_checked else 0.0


class StoreSequenceBloomFilter:
    """Address-indexed table of committed-store SSNs (byte granularity)."""

    def __init__(self, entries: int = 2048, banks: int = 8) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("SSBF entries must be a positive power of two")
        self.entries = entries
        self.banks = banks
        self._table: List[int] = [0] * entries
        self._mask = entries - 1

    def _index(self, byte_addr: int) -> int:
        # Simple address hash; the low bits select the bank in hardware.
        return byte_addr & self._mask

    def update(self, addr: int, size: int, ssn: int) -> None:
        """Record that the store with ``ssn`` committed a write to the bytes
        ``[addr, addr+size)``."""
        mask = self._mask
        start = addr & mask
        if start + size <= self.entries:
            self._table[start:start + size] = [ssn] * size
            return
        table = self._table
        for byte_addr in range(addr, addr + size):
            table[byte_addr & mask] = ssn

    def lookup(self, addr: int, size: int) -> int:
        """SSN of the youngest committed store to any byte of the access."""
        mask = self._mask
        start = addr & mask
        if start + size <= self.entries:
            return max(self._table[start:start + size], default=0)
        table = self._table
        best = 0
        for byte_addr in range(addr, addr + size):
            ssn = table[byte_addr & mask]
            if ssn > best:
                best = ssn
        return best

    def clear(self) -> None:
        self._table = [0] * self.entries

    def storage_bits(self, ssn_bits: int = 16) -> int:
        return ssn_bits * self.entries


class StorePCTable:
    """Address-indexed table of last-committed-store PCs (byte granularity)."""

    def __init__(self, entries: int = 2048, banks: int = 8) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("SPCT entries must be a positive power of two")
        self.entries = entries
        self.banks = banks
        self._table: List[int] = [0] * entries
        self._mask = entries - 1

    def _index(self, byte_addr: int) -> int:
        return byte_addr & self._mask

    def update(self, addr: int, size: int, store_pc: int) -> None:
        """Record ``store_pc`` as the last committed writer of these bytes."""
        mask = self._mask
        start = addr & mask
        if start + size <= self.entries:
            self._table[start:start + size] = [store_pc] * size
            return
        table = self._table
        for byte_addr in range(addr, addr + size):
            table[byte_addr & mask] = store_pc

    def lookup(self, addr: int, size: int) -> int:
        """PC of a committed store that wrote one of the access's bytes.

        When different bytes were last written by different stores, the PC of
        the first byte is returned (hardware reads one bank per byte and the
        training logic uses the youngest; pairing with the SSBF via
        :class:`SVWFilter` provides the youngest-writer variant).
        """
        return self._table[self._index(addr)]

    def clear(self) -> None:
        self._table = [0] * self.entries

    def storage_bits(self, pc_bits: int = 8) -> int:
        return pc_bits * self.entries


class SVWFilter:
    """Combined SSBF + SPCT with the SVW re-execution filter logic."""

    def __init__(self, config: Optional[SVWConfig] = None) -> None:
        self.config = config or SVWConfig()
        self.ssbf = StoreSequenceBloomFilter(self.config.ssbf_entries, self.config.banks)
        self.spct = StorePCTable(self.config.spct_entries, self.config.banks)
        self.stats = SVWStats()

    # -- store commit -----------------------------------------------------------

    def store_committed(self, addr: int, size: int, ssn: int, store_pc: int) -> None:
        """Update both tables when a store commits."""
        self.ssbf.update(addr, size, ssn)
        self.spct.update(addr, size, store_pc)
        self.stats.ssbf_writes += 1
        self.stats.spct_writes += 1

    # -- load re-execution filter -----------------------------------------------

    def needs_reexecution(self, addr: int, size: int, load_svw_ssn: int) -> bool:
        """SVW filter check performed before the re-execution stage.

        ``load_svw_ssn`` is the SSN recorded in the load's LQ entry at
        execution: the SSN of the forwarding store if the load forwarded,
        otherwise the SSN of the youngest committed store at that time.  The
        load re-executes only if a store it is vulnerable to has since
        committed a write to one of its bytes.
        """
        self.stats.loads_checked += 1
        if self.ssbf.lookup(addr, size) > load_svw_ssn:
            self.stats.loads_reexecuted += 1
            return True
        return False

    # -- predictor training helpers ---------------------------------------------

    def last_writer(self, addr: int, size: int) -> Tuple[int, int]:
        """(SSN, PC) of the youngest committed store writing any accessed byte.

        Used at load commit to train the FSP (store PC) and the DDP
        (distance = ``SSNcmt - SSN``).  The byte whose SSBF SSN is largest
        identifies the youngest writer; the SPCT entry for that byte supplies
        the PC.
        """
        ssbf = self.ssbf
        ssbf_table = ssbf._table
        ssbf_mask = ssbf._mask
        spct = self.spct
        start = addr & ssbf_mask
        if 0 < size and start + size <= ssbf.entries \
                and spct._mask == ssbf_mask:
            # One geometry and no wrap: the first byte holding the largest
            # SSN is the youngest writer, exactly as the walk below finds.
            ssns = ssbf_table[start:start + size]
            best_ssn = max(ssns)
            best_pc = spct._table[start + ssns.index(best_ssn)]
            return (best_ssn if best_ssn > 0 else 0), best_pc
        best_ssn = -1
        best_pc = 0
        for byte_addr in range(addr, addr + size):
            ssn = ssbf_table[byte_addr & ssbf_mask]
            if ssn > best_ssn:
                best_ssn = ssn
                best_pc = spct._table[byte_addr & spct._mask]
        return (best_ssn if best_ssn > 0 else 0), best_pc

    def clear(self) -> None:
        """Clear both tables (SSN wrap handling)."""
        self.ssbf.clear()
        self.spct.clear()

    def is_clear(self) -> bool:
        """True when no store has written either table since the filter
        was built or last cleared."""
        ssbf = self.ssbf._table
        spct = self.spct._table
        return ssbf.count(0) == len(ssbf) and spct.count(0) == len(spct)

    def copy_from(self, other: "SVWFilter") -> None:
        """Take over ``other``'s table contents and counters.

        ``other`` has the same geometry; this filter keeps its own lists
        and config, so the two stay independent and pickle alike.
        """
        self.ssbf._table[:] = other.ssbf._table
        self.spct._table[:] = other.spct._table
        self.stats = replace(other.stats)

    def state_signature(self) -> tuple:
        """Hashable snapshot of both tables.

        The SSBF/SPCT are updated only at store commit (program order), so a
        functional replay of a trace prefix must reproduce the detailed
        core's tables *exactly*; the warming unit tests assert this.
        """
        return (tuple(self.ssbf._table), tuple(self.spct._table))
