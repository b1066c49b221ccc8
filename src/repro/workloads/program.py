"""Program builder: the substrate workload kernels are written against.

A :class:`ProgramBuilder` manages the resources a synthetic program needs —
stable static PCs (so the PC-indexed predictors see the same static
instruction across dynamic instances), architectural registers, disjoint
memory regions, and deterministic pseudo-random values — and provides typed
emit helpers that append micro-ops to the trace being built.

Emission is **two-plane** (see :mod:`repro.isa.plane`): a static
instruction's descriptor is interned once into the program's shared
:class:`~repro.isa.plane.StaticProgramPlane` (a per-process cache keyed by
program name, :func:`plane_for`), and each dynamic instance appends only
its static index and dynamic fields, straight onto the six parallel lists
of the :class:`~repro.isa.plane.EncodedOps` under construction — no
per-uop object is ever built on this path.  :meth:`ProgramBuilder.finish`
returns the encoded stream (``len``, ``.stats``, iteration/indexing as
:class:`~repro.isa.uop.MicroOp` views).

A :class:`Kernel` is a small static code fragment: it allocates its PCs,
registers, and memory regions once at construction and then emits one loop
iteration's worth of dynamic micro-ops every time :meth:`Kernel.emit` is
called, as one block (:meth:`ProgramBuilder.emit_block`): it interns its
static instructions at its first emit, in emission order, and afterwards
computes only addresses, store values and branch outcomes.  The per-op
helpers (:meth:`ProgramBuilder.load`, :meth:`~ProgramBuilder.store`, ...)
validate and append one micro-op at a time, for hand-written programs.
Workload composers interleave iterations of several kernels to approximate
a target benchmark profile.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.isa.plane import EncodedOps, StaticProgramPlane
from repro.isa.registers import FP_REG_COUNT, INT_REG_COUNT, REG_ZERO
from repro.isa.uop import VALID_ACCESS_SIZES, OpClass

#: Base of the synthetic code segment; static PCs are allocated upward from here.
CODE_BASE = 0x0040_0000

#: Base of the synthetic data segment; memory regions are allocated upward.
DATA_BASE = 0x1000_0000

#: Region alignment (keeps independently allocated regions on distinct cache lines).
REGION_ALIGN = 64

#: Per-process static-plane cache: program name -> plane.  Segments of one
#: workload are composed against the same deterministic static program
#: (static PCs/registers/regions are allocated identically however the
#: dynamic mix lands), so one plane per workload name is shared by every
#: segment, interval, and configuration simulated in this process.  Planes
#: are append-only — a cached plane is never invalidated, only grown; the
#: cache itself is process-private and rebuilt lazily, and encoded segments
#: that cross process boundaries re-intern on arrival
#: (:meth:`~repro.isa.plane.EncodedOps.rebase`).
_PLANE_REGISTRY: Dict[str, StaticProgramPlane] = {}


def plane_for(name: str) -> StaticProgramPlane:
    """The process-wide static plane of the named program."""
    plane = _PLANE_REGISTRY.get(name)
    if plane is None:
        plane = StaticProgramPlane()
        _PLANE_REGISTRY[name] = plane
    return plane


class ProgramBuilder:
    """Builds one synthetic program / dynamic trace (encoded form)."""

    def __init__(self, name: str, seed: int = 1) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.ops = ops = EncodedOps(plane_for(name), name=name)
        # emit_block's targets: the bound extends of the stream's six
        # dynamic lists.
        self._sidx = ops.sidx.extend
        self._addr = ops.addr.extend
        self._size = ops.size.extend
        self._value = ops.value.extend
        self._taken = ops.taken.extend
        self._target = ops.target.extend
        self._next_pc = CODE_BASE
        self._next_data = DATA_BASE
        self._next_int_reg = 1          # r0 reserved as a generic source
        self._next_fp_reg = INT_REG_COUNT

    # -- resource allocation ----------------------------------------------------

    def alloc_pc(self) -> int:
        """Allocate a new static instruction address."""
        pc = self._next_pc
        self._next_pc += 4
        return pc

    def alloc_pcs(self, count: int) -> List[int]:
        """Allocate ``count`` consecutive static instruction addresses."""
        return [self.alloc_pc() for _ in range(count)]

    def alloc_region(self, size_bytes: int) -> int:
        """Allocate a data region of at least ``size_bytes`` bytes."""
        if size_bytes <= 0:
            raise ValueError("region size must be positive")
        base = self._next_data
        rounded = (size_bytes + REGION_ALIGN - 1) // REGION_ALIGN * REGION_ALIGN
        self._next_data += rounded + REGION_ALIGN
        return base

    def alloc_int_reg(self) -> int:
        """Allocate an integer register (wraps around, excluding the zero reg)."""
        reg = self._next_int_reg
        self._next_int_reg += 1
        if self._next_int_reg >= REG_ZERO:
            self._next_int_reg = 1
        return reg

    def alloc_fp_reg(self) -> int:
        """Allocate a floating-point register (wraps around)."""
        reg = self._next_fp_reg
        self._next_fp_reg += 1
        if self._next_fp_reg >= INT_REG_COUNT + FP_REG_COUNT:
            self._next_fp_reg = INT_REG_COUNT
        return reg

    def alloc_int_regs(self, count: int) -> List[int]:
        return [self.alloc_int_reg() for _ in range(count)]

    def alloc_fp_regs(self, count: int) -> List[int]:
        return [self.alloc_fp_reg() for _ in range(count)]

    def value(self, size: int = 8) -> int:
        """A deterministic pseudo-random store value of the given width."""
        return self.rng.getrandbits(8 * size)

    # -- emission ---------------------------------------------------------------

    def intern(self, pc: int, op_class: OpClass, dest: Optional[int] = None,
               srcs: Sequence[int] = (), call: bool = False,
               ret: bool = False) -> int:
        """The static index of one static instruction of this program,
        interned into the shared plane on first sight (which validates its
        registers)."""
        return self.ops.plane.intern(pc, op_class, dest, tuple(srcs), call,
                                     ret)

    def emit_block(self, sidx: Sequence[int], addr: Sequence[int],
                   size: Sequence[int], value: Sequence[int],
                   taken: Sequence[bool], target: Sequence[int]) -> None:
        """Append a block of micro-ops, given as its six parallel columns
        (the fields of :class:`~repro.isa.plane.EncodedOps`).

        Nothing is validated here: a kernel computes its addresses, sizes
        and values by construction, and the per-op helpers below validate
        before they append.
        """
        self._sidx(sidx)
        self._addr(addr)
        self._size(size)
        self._value(value)
        self._taken(taken)
        self._target(target)

    # Each per-op helper validates its dynamic fields (the old MicroOp
    # construction-time guarantees) and appends one micro-op, with the
    # defaults of :meth:`~repro.isa.plane.EncodedOps.append` for the
    # fields it does not carry.

    def load(self, pc: int, dest: int, addr: int, size: int = 8,
             srcs: Sequence[int] = ()) -> None:
        if size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid access size {size}; "
                             f"expected one of {VALID_ACCESS_SIZES}")
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        self.ops.append(self.intern(pc, OpClass.LOAD, dest, srcs), addr, size)

    def store(self, pc: int, addr: int, value: int, size: int = 8,
              srcs: Sequence[int] = ()) -> None:
        if size not in VALID_ACCESS_SIZES:
            raise ValueError(f"invalid access size {size}; "
                             f"expected one of {VALID_ACCESS_SIZES}")
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if not 0 <= value < (1 << (8 * size)):
            raise ValueError(f"store value {value:#x} does not fit in {size} bytes")
        self.ops.append(self.intern(pc, OpClass.STORE, None, srcs), addr, size,
                        value)

    def alu(self, pc: int, dest: int, srcs: Sequence[int] = (),
            op_class: OpClass = OpClass.INT_ALU) -> None:
        self.ops.append(self.intern(pc, op_class, dest, srcs))

    def branch(self, pc: int, taken: bool, target: Optional[int] = None,
               srcs: Sequence[int] = (), call: bool = False, ret: bool = False) -> None:
        if taken and target is None:
            target = pc + 64
        self.ops.append(self.intern(pc, OpClass.BRANCH, None, srcs, call, ret),
                        taken=taken,
                        target=target if target is not None else -1)

    def nop(self, pc: int) -> None:
        self.ops.append(self.intern(pc, OpClass.NOP))

    # -- finishing --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def finish(self) -> EncodedOps:
        """The encoded trace built so far (shared arrays, not a copy)."""
        return self.ops


class Kernel:
    """Base class for workload kernels.

    A kernel allocates its static resources (PCs, registers, memory regions)
    once in ``__init__`` and emits one dynamic iteration per :meth:`emit`
    call.  Subclasses report how many loads and how many *forwarding* loads
    a typical iteration contains so composers can mix kernels to hit a target
    forwarding rate.
    """

    #: Loads emitted per iteration (approximate, used for mix planning).
    loads_per_iteration: float = 0.0
    #: Loads per iteration expected to forward from an in-flight store.
    forwarding_loads_per_iteration: float = 0.0

    def __init__(self, builder: ProgramBuilder) -> None:
        self.builder = builder

    def emit(self) -> None:
        """Emit one dynamic iteration of the kernel."""
        raise NotImplementedError

    @property
    def forwarding_fraction(self) -> float:
        """Fraction of this kernel's loads that forward."""
        if self.loads_per_iteration == 0:
            return 0.0
        return self.forwarding_loads_per_iteration / self.loads_per_iteration
