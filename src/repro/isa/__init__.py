"""Trace micro-op ISA.

The paper evaluates on Alpha AXP binaries.  This reproduction replaces the
Alpha front end with a compact *trace ISA*.  The production representation
is **two-plane** (:mod:`repro.isa.plane`): a
:class:`~repro.isa.plane.StaticProgramPlane` decoded once per static
program (op classes, register tuples, issue-class routing, branch hints,
latencies) plus :class:`~repro.isa.plane.EncodedOps` dynamic streams
carrying only per-instance fields (address / size / store value, branch
outcome / target).  :class:`~repro.isa.uop.MicroOp` remains the one-object
view of a single dynamic instruction — materialised on demand for tests
and examples; the detailed core encodes a micro-op iterable on entry.
"""

from repro.isa.registers import INT_REG_COUNT, FP_REG_COUNT, REG_ZERO
from repro.isa.uop import MemAccess, MicroOp, OpClass
from repro.isa.plane import (EncodedOps, StaticProgramPlane, TraceStats,
                             as_encoded, encode_uops)

__all__ = [
    "EncodedOps",
    "StaticProgramPlane",
    "as_encoded",
    "encode_uops",
    "FP_REG_COUNT",
    "INT_REG_COUNT",
    "MemAccess",
    "MicroOp",
    "OpClass",
    "REG_ZERO",
    "TraceStats",
]
