"""Store Sequence Numbers (SSNs).

Section 3.1 of the paper names stores by their SSNs, monotonically increasing
sequence numbers defined by SVW.  A store is in-flight iff its SSN is greater
than the global committed counter ``SSNcmt``; the SQ index of an in-flight
store is the low-order bits of its SSN (the SQ size is a power of two).

The paper uses 16-bit SSNs and handles wrap-around by draining the pipeline
and clearing every SSN-holding structure when a store with SSN == 0 is
renamed (once every 2^N stores).  The simulator keeps SSNs as unbounded
Python integers for simplicity of comparison, but :class:`SSNAllocator`
reports when a hardware wrap would occur so the pipeline can charge the drain
penalty and so the statistics reflect the 16-bit implementation.
"""

from __future__ import annotations

from dataclasses import dataclass


def sq_index(ssn: int, sq_size: int) -> int:
    """SQ index of the store with the given SSN (low-order bits of the SSN)."""
    if sq_size <= 0 or sq_size & (sq_size - 1):
        raise ValueError(f"SQ size must be a positive power of two, got {sq_size}")
    return ssn & (sq_size - 1)


@dataclass
class SSNAllocator:
    """Allocates SSNs to stores at rename and tracks commit progress.

    Attributes
    ----------
    bits:
        Width of the hardware SSN (16 in the paper).  Wrap events are
        reported every ``2**bits`` allocations.
    ssn_rename:
        SSN of the most recently renamed store (``SSNren`` in the paper).
        The first store receives SSN 1; SSN 0 means "no store".
    ssn_commit:
        SSN of the most recently committed store (``SSNcmt``).
    """

    bits: int = 16
    ssn_rename: int = 0
    ssn_commit: int = 0
    wraps: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.bits <= 64:
            raise ValueError("SSN width must be between 4 and 64 bits")
        # Wrap mask cached for the per-store allocate fast path (the period
        # is a power of two, so ``ssn % period == 0`` is a mask test).
        self._wrap_mask = (1 << self.bits) - 1

    @property
    def period(self) -> int:
        """Number of stores between hardware wrap events."""
        return 1 << self.bits

    def allocate(self) -> int:
        """Allocate the next SSN (called when a store renames).

        Returns the new SSN.  Callers should check :meth:`wrapped` to decide
        whether to model the drain-and-clear wrap procedure.
        """
        ssn = self.ssn_rename = self.ssn_rename + 1
        if not ssn & self._wrap_mask:
            self.wraps += 1
        return ssn

    def wrapped(self, ssn: int) -> bool:
        """True if allocating ``ssn`` corresponds to a hardware wrap event."""
        return not ssn & self._wrap_mask

    def commit(self, ssn: int) -> None:
        """Record that the store with ``ssn`` committed (in program order)."""
        if ssn != self.ssn_commit + 1:
            raise ValueError(
                f"stores must commit in SSN order: expected {self.ssn_commit + 1}, got {ssn}")
        self.ssn_commit = ssn

    def rewind_rename(self, ssn: int) -> None:
        """Rewind ``SSNren`` after a pipeline flush squashes younger stores.

        ``ssn`` is the SSN of the youngest *surviving* store (or ``ssn_commit``
        if no in-flight stores survive).
        """
        if ssn < self.ssn_commit:
            raise ValueError("cannot rewind past the commit point")
        if ssn > self.ssn_rename:
            raise ValueError("cannot rewind forward")
        self.ssn_rename = ssn

    def copy(self) -> "SSNAllocator":
        """An independent allocator with the same counters."""
        return SSNAllocator(self.bits, self.ssn_rename, self.ssn_commit,
                            self.wraps)

    def reset(self) -> None:
        """Reset to the initial state (used between simulations)."""
        self.ssn_rename = 0
        self.ssn_commit = 0
        self.wraps = 0
