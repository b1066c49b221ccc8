"""Dynamic micro-op model.

A :class:`MicroOp` is one dynamic instruction as seen by the timing model.
Workload generators (:mod:`repro.workloads`) produce streams of micro-ops;
the out-of-order core (:mod:`repro.pipeline.core`) consumes them.

The model is deliberately register-transfer-level only: a micro-op names its
architectural source and destination registers, its operation class (which
determines execution latency and functional-unit usage), and — for memory
operations — its effective address, access size, and (for stores) the value
written.  Loads do not carry a value; the correct value of a load is defined
by the memory image maintained by the simulator (initial memory contents plus
all older committed stores), exactly as in value-based re-execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class OpClass(enum.IntEnum):
    """Operation classes recognised by the timing model.

    The class determines the execution latency and which per-cycle issue
    budget the operation draws from (see
    :class:`repro.pipeline.config.IssueLimits`).
    """

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    FP_MUL = 3
    FP_DIV = 4
    LOAD = 5
    STORE = 6
    BRANCH = 7
    NOP = 8

    @property
    def is_load(self) -> bool:
        return self is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self is OpClass.STORE

    @property
    def is_memory(self) -> bool:
        return self is OpClass.LOAD or self is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self is OpClass.BRANCH

    @property
    def is_fp(self) -> bool:
        return self in (OpClass.FP_ALU, OpClass.FP_MUL, OpClass.FP_DIV)

    @property
    def is_int(self) -> bool:
        return self in (OpClass.INT_ALU, OpClass.INT_MUL)


#: Default execution latencies (cycles) per operation class.  These follow
#: the configuration in Section 4.1 of the paper (single-cycle integer ALU,
#: pipelined multiplier, multi-cycle FP).  Load latency is *not* listed here:
#: it is computed dynamically from the cache hierarchy and store queue.
DEFAULT_LATENCIES = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.FP_ALU: 4,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 12,
    OpClass.LOAD: 1,      # address generation only; cache/SQ latency is added
    OpClass.STORE: 1,     # address generation / data movement into the SQ
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
}

#: Legal memory access sizes in bytes (the paper assumes a maximum of 8).
VALID_ACCESS_SIZES = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class MemAccess:
    """Memory access descriptor attached to loads and stores.

    Attributes
    ----------
    addr:
        Byte address of the access (full 64-bit virtual address space; the
        simulator performs identity translation, so this is also the
        physical address).
    size:
        Access width in bytes; one of :data:`VALID_ACCESS_SIZES`.
    value:
        For stores, the value written (an unsigned integer fitting in
        ``size`` bytes).  For loads the field is ``None``: load values are
        defined by the memory image plus older stores.
    """

    addr: int
    size: int
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid access size {self.size}; expected one of {VALID_ACCESS_SIZES}")
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if self.value is not None:
            limit = 1 << (8 * self.size)
            if not (0 <= self.value < limit):
                raise ValueError(f"store value {self.value:#x} does not fit in {self.size} bytes")


@dataclass(slots=True)
class MicroOp:
    """One dynamic instruction.

    Attributes
    ----------
    pc:
        Static program counter of the instruction.  Forwarding and delay
        predictors are indexed by this value, so the workload generators are
        careful to give each *static* instruction a stable PC across its
        dynamic instances.
    op_class:
        The :class:`OpClass` of the operation.
    dest:
        Destination architectural register index, or ``None`` if the
        operation produces no register result (stores, branches, nops).
    srcs:
        Tuple of source architectural register indices.
    mem:
        :class:`MemAccess` for loads and stores, ``None`` otherwise.
    is_taken:
        For branches, whether the branch is taken in this dynamic instance.
    target:
        For taken branches, the target PC (used by the BTB model).
    hint_call / hint_return:
        Call/return hints driving the return-address-stack model.
    """

    pc: int
    op_class: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = field(default_factory=tuple)
    mem: Optional[MemAccess] = None
    is_taken: bool = False
    target: Optional[int] = None
    hint_call: bool = False
    hint_return: bool = False

    # Convenience predicates, set once at construction as plain attributes:
    # validation below reads them, and so do callers inspecting views.
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_memory: bool = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op_class = self.op_class
        self.is_load = op_class is OpClass.LOAD
        self.is_store = op_class is OpClass.STORE
        self.is_memory = self.is_load or self.is_store
        self.is_branch = op_class is OpClass.BRANCH
        if self.is_memory and self.mem is None:
            raise ValueError(f"{op_class.name} at pc={self.pc:#x} requires a MemAccess")
        if not self.is_memory and self.mem is not None:
            raise ValueError(f"{op_class.name} at pc={self.pc:#x} must not carry a MemAccess")
        if self.is_store and self.mem is not None and self.mem.value is None:
            raise ValueError(f"store at pc={self.pc:#x} requires a value")
        if self.is_branch and self.is_taken and self.target is None:
            raise ValueError(f"taken branch at pc={self.pc:#x} requires a target")
        if self.dest is not None and self.dest < 0:
            raise ValueError("destination register index must be non-negative")

    @property
    def addr(self) -> Optional[int]:
        return self.mem.addr if self.mem is not None else None

    @property
    def size(self) -> Optional[int]:
        return self.mem.size if self.mem is not None else None


def make_load(pc: int, dest: int, addr: int, size: int = 8, srcs: Tuple[int, ...] = ()) -> MicroOp:
    """Convenience constructor for a load micro-op."""
    return MicroOp(pc=pc, op_class=OpClass.LOAD, dest=dest, srcs=srcs, mem=MemAccess(addr, size))


def make_store(pc: int, addr: int, value: int, size: int = 8, srcs: Tuple[int, ...] = ()) -> MicroOp:
    """Convenience constructor for a store micro-op."""
    return MicroOp(pc=pc, op_class=OpClass.STORE, srcs=srcs, mem=MemAccess(addr, size, value))


def make_alu(pc: int, dest: int, srcs: Tuple[int, ...] = (), op_class: OpClass = OpClass.INT_ALU) -> MicroOp:
    """Convenience constructor for a register-to-register micro-op."""
    return MicroOp(pc=pc, op_class=op_class, dest=dest, srcs=srcs)


def make_branch(pc: int, taken: bool, target: Optional[int] = None, srcs: Tuple[int, ...] = (),
                call: bool = False, ret: bool = False) -> MicroOp:
    """Convenience constructor for a branch micro-op."""
    if taken and target is None:
        target = pc + 64  # synthetic forward target
    return MicroOp(pc=pc, op_class=OpClass.BRANCH, srcs=srcs, is_taken=taken, target=target,
                   hint_call=call, hint_return=ret)
