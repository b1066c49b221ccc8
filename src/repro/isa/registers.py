"""Architectural register model.

The trace ISA uses a flat architectural register space: integer registers
``0 .. INT_REG_COUNT-1`` and floating-point registers
``INT_REG_COUNT .. INT_REG_COUNT+FP_REG_COUNT-1``.  Register ``REG_ZERO`` is
a hard-wired zero register (reads are always ready, writes are discarded),
mirroring the Alpha's ``r31``.
"""

from __future__ import annotations

#: Number of architectural integer registers.
INT_REG_COUNT = 32

#: Number of architectural floating-point registers.
FP_REG_COUNT = 32

#: Total architectural register count.
TOTAL_REG_COUNT = INT_REG_COUNT + FP_REG_COUNT

#: The hard-wired zero register (never creates a dependence).
REG_ZERO = 31


def validate_reg(reg: int) -> int:
    """Validate a register index, returning it unchanged.

    Raises
    ------
    ValueError
        If the index is outside the architectural register space.
    """
    if not 0 <= reg < TOTAL_REG_COUNT:
        raise ValueError(f"register index {reg} outside architectural space [0, {TOTAL_REG_COUNT})")
    return reg
