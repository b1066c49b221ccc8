"""Return address stack.

A fixed-depth circular return-address stack (32 entries in the paper's
configuration).  Pushes beyond the capacity overwrite the oldest entry; pops
of an empty stack return ``None`` and are counted as underflows.
"""

from __future__ import annotations

from typing import List, Optional


class ReturnAddressStack:
    """Fixed-depth RAS with overflow wrap-around."""

    def __init__(self, depth: int = 32) -> None:
        if depth <= 0:
            raise ValueError("RAS depth must be positive")
        self.depth = depth
        self._stack: List[int] = []
        self.pushes = 0
        self.pops = 0
        self.overflows = 0
        self.underflows = 0

    def push(self, return_pc: int) -> None:
        """Push a return address, discarding the oldest entry on overflow."""
        self.pushes += 1
        self._stack.append(return_pc)
        if len(self._stack) > self.depth:
            self._stack.pop(0)
            self.overflows += 1

    def pop(self) -> Optional[int]:
        """Pop the predicted return address, or ``None`` if the stack is empty."""
        self.pops += 1
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        self._stack.clear()

    def copy(self) -> "ReturnAddressStack":
        """An exact copy (contents and counters)."""
        clone = ReturnAddressStack.__new__(ReturnAddressStack)
        clone.depth = self.depth
        clone._stack = self._stack[:]
        clone.pushes = self.pushes
        clone.pops = self.pops
        clone.overflows = self.overflows
        clone.underflows = self.underflows
        return clone

    def state_signature(self) -> tuple:
        """Hashable snapshot of the stack contents (oldest first)."""
        return tuple(self._stack)
