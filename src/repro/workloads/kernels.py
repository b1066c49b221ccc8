"""Workload kernels.

Each kernel is a small static code fragment exhibiting one of the store-load
forwarding (or non-forwarding) behaviours discussed in the paper:

* :class:`StackSpillKernel` — register save/restore across a call: loads
  forward from the most recent instance of nearby static stores (the common,
  FSP-friendly case).
* :class:`GlobalRMWKernel` — read-modify-write of a small set of globals,
  each with its own static load/store pair: most-recent forwarding at a
  configurable store distance.
* :class:`NotMostRecentKernel` — the paper's ``X[i] = A * X[i-2]`` loop: the
  load forwards from a store instance that is *not* the most recent instance
  of its static store, the case the FSP cannot capture and the DDP exists
  for (Section 3.3).
* :class:`ManyStoreDepKernel` — one static load that forwards from many
  different static stores, creating FSP associativity/conflict pressure (the
  eon/vortex behaviour described in Section 4.4).
* :class:`WideNarrowKernel` — a wide store forwarded to narrow loads; the
  upper-half load has a different address than the store and therefore
  cannot be captured by indexed forwarding (an occasional pathology).
* :class:`StreamCopyKernel`, :class:`AccumulateKernel`,
  :class:`FPStencilKernel` — streaming loads/stores with no forwarding and a
  configurable working-set size (cache behaviour).
* :class:`PointerChaseKernel` — serially dependent loads over a large
  working set (mcf/art-like memory-bound behaviour, no forwarding).
* :class:`BranchyKernel` — data-dependent branches with configurable
  predictability (branch misprediction background noise).
"""

from __future__ import annotations

import random
from typing import List

from repro.isa.uop import OpClass
from repro.workloads.program import Kernel, ProgramBuilder


def shuffled_range(rng: random.Random, n: int) -> List[int]:
    """``list(range(n))`` permuted exactly as ``rng.shuffle`` permutes it.

    CPython's ``Random.shuffle`` is a Fisher-Yates walk that draws each
    index through ``_randbelow``: ``k = (i + 1).bit_length()`` bits from
    ``getrandbits``, redrawn until the value is at most ``i``.  This loop
    makes the same draws in the same order (so the list and the state
    ``rng`` is left in are identical) without a Python-level call per
    element, and computes ``k`` once per power-of-two block of ``i``.
    """
    order = list(range(n))
    getrandbits = rng.getrandbits
    top = n - 1
    while top > 0:
        k = (top + 1).bit_length()
        stop = (1 << (k - 1)) - 2       # i = stop + 1 is the smallest drawing k bits
        for i in range(top, stop, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        top = stop
    return order


class StackSpillKernel(Kernel):
    """Call-site register save/restore; every restore load forwards."""

    def __init__(self, builder: ProgramBuilder, slots: int = 4, work_ops: int = 4) -> None:
        super().__init__(builder)
        if slots <= 0:
            raise ValueError("slots must be positive")
        self.slots = slots
        self.work_ops = work_ops
        self.loads_per_iteration = float(slots)
        self.forwarding_loads_per_iteration = float(slots)

        self._stack = builder.alloc_region(slots * 8)
        self._regs = builder.alloc_int_regs(min(slots, 6))
        self._work_regs = builder.alloc_int_regs(2)
        self._call_pc = builder.alloc_pc()
        self._store_pcs = builder.alloc_pcs(slots)
        self._work_pcs = builder.alloc_pcs(work_ops)
        self._load_pcs = builder.alloc_pcs(slots)
        self._ret_pc = builder.alloc_pc()

    def emit(self) -> None:
        b = self.builder
        b.branch(self._call_pc, taken=True, target=self._store_pcs[0], call=True)
        for i in range(self.slots):
            src = self._regs[i % len(self._regs)]
            b.store(self._store_pcs[i], self._stack + 8 * i, b.value(8), size=8, srcs=(src,))
        for i in range(self.work_ops):
            dest = self._work_regs[i % 2]
            src = self._work_regs[(i + 1) % 2]
            b.alu(self._work_pcs[i], dest, (src,))
        for i in range(self.slots):
            dest = self._regs[i % len(self._regs)]
            b.load(self._load_pcs[i], dest, self._stack + 8 * i, size=8)
        b.branch(self._ret_pc, taken=True, target=self._call_pc + 4, ret=True)


class GlobalRMWKernel(Kernel):
    """Read-modify-write of ``n_globals`` globals, round-robin.

    Each global has its own static load/store pair, so every load forwards
    from the *most recent* instance of its static store, at a distance of
    ``n_globals`` dynamic stores.
    """

    def __init__(self, builder: ProgramBuilder, n_globals: int = 4, work_ops: int = 2) -> None:
        super().__init__(builder)
        if n_globals <= 0:
            raise ValueError("n_globals must be positive")
        self.n_globals = n_globals
        self.work_ops = work_ops
        self.loads_per_iteration = 1.0
        self.forwarding_loads_per_iteration = 1.0

        self._region = builder.alloc_region(n_globals * 8)
        self._reg = builder.alloc_int_reg()
        self._tmp = builder.alloc_int_reg()
        self._load_pcs = builder.alloc_pcs(n_globals)
        self._work_pcs = builder.alloc_pcs(work_ops)
        self._store_pcs = builder.alloc_pcs(n_globals)
        self._branch_pc = builder.alloc_pc()
        self._index = 0
        self._primed = [False] * n_globals

    def emit(self) -> None:
        b = self.builder
        j = self._index % self.n_globals
        self._index += 1
        addr = self._region + 8 * j
        if not self._primed[j]:
            # First visit: initialise the global so later loads read written data.
            b.store(self._store_pcs[j], addr, b.value(8), size=8, srcs=(self._tmp,))
            self._primed[j] = True
            return
        b.load(self._load_pcs[j], self._reg, addr, size=8)
        for i in range(self.work_ops):
            b.alu(self._work_pcs[i], self._tmp, (self._reg, self._tmp))
        b.store(self._store_pcs[j], addr, b.value(8), size=8, srcs=(self._tmp,))
        b.branch(self._branch_pc, taken=True, target=self._load_pcs[0])


class NotMostRecentKernel(Kernel):
    """The paper's ``X[i] = A * X[i-lag]`` loop (Section 3.2/3.3).

    The load of ``X[i-lag]`` forwards from the store executed ``lag``
    iterations earlier — not the most recent instance of that static store —
    so the FSP/SAT cannot capture it and the DDP must delay it instead.
    """

    def __init__(self, builder: ProgramBuilder, lag: int = 2, elements: int = 4096,
                 fp: bool = True) -> None:
        super().__init__(builder)
        if lag <= 0:
            raise ValueError("lag must be positive")
        self.lag = lag
        self.elements = elements
        self.fp = fp
        self.loads_per_iteration = 1.0
        self.forwarding_loads_per_iteration = 1.0

        self._region = builder.alloc_region(elements * 8)
        self._reg = builder.alloc_fp_reg() if fp else builder.alloc_int_reg()
        self._coef = builder.alloc_fp_reg() if fp else builder.alloc_int_reg()
        self._load_pc = builder.alloc_pc()
        self._mul_pc = builder.alloc_pc()
        self._store_pc = builder.alloc_pc()
        self._branch_pc = builder.alloc_pc()
        self._i = 0

    def emit(self) -> None:
        b = self.builder
        i = self._i
        self._i += 1
        if i < self.lag:
            # Prologue: initialise the first `lag` elements with stores only.
            b.store(self._store_pc, self._region + 8 * (i % self.elements), b.value(8),
                    size=8, srcs=(self._reg,))
            return
        load_addr = self._region + 8 * ((i - self.lag) % self.elements)
        store_addr = self._region + 8 * (i % self.elements)
        b.load(self._load_pc, self._reg, load_addr, size=8)
        op = OpClass.FP_MUL if self.fp else OpClass.INT_MUL
        b.alu(self._mul_pc, self._reg, (self._reg, self._coef), op_class=op)
        b.store(self._store_pc, store_addr, b.value(8), size=8, srcs=(self._reg,))
        b.branch(self._branch_pc, taken=True, target=self._load_pc)


class ManyStoreDepKernel(Kernel):
    """One static load forwarding from many different static stores.

    With more producer store PCs than FSP associativity the load's FSP set
    thrashes, which (without delay prediction) causes frequent flushes — the
    eon/vortex behaviour noted in Section 4.4.
    """

    def __init__(self, builder: ProgramBuilder, n_stores: int = 4, work_ops: int = 3) -> None:
        super().__init__(builder)
        if n_stores <= 0:
            raise ValueError("n_stores must be positive")
        self.n_stores = n_stores
        self.work_ops = max(1, work_ops)
        self.loads_per_iteration = 1.0
        self.forwarding_loads_per_iteration = 1.0

        self._addr = builder.alloc_region(8)
        self._reg = builder.alloc_int_reg()
        self._tmp = builder.alloc_int_reg()
        self._store_pcs = builder.alloc_pcs(n_stores)
        self._work_pcs = builder.alloc_pcs(self.work_ops)
        self._load_pc = builder.alloc_pc()
        self._branch_pc = builder.alloc_pc()
        self._index = 0

    def emit(self) -> None:
        b = self.builder
        k = self._index % self.n_stores
        self._index += 1
        b.store(self._store_pcs[k], self._addr, b.value(8), size=8, srcs=(self._tmp,))
        # A short dependent chain between the store and the load, which the
        # load's address computation consumes.  This mirrors real code (the
        # reload is separated from the producer by address arithmetic) and
        # means the *associative* SQ finds the already-executed store, while
        # the indexed SQ still mis-forwards whenever the FSP's limited
        # associativity fails to name the right producer.
        for i in range(self.work_ops):
            b.alu(self._work_pcs[i], self._tmp, (self._tmp,))
        b.load(self._load_pc, self._reg, self._addr, size=8, srcs=(self._tmp,))
        b.branch(self._branch_pc, taken=True, target=self._store_pcs[0])


class WideNarrowKernel(Kernel):
    """Wide store forwarded to narrow loads.

    The low-half load has the same address as the store and forwards through
    the indexed SQ; the high-half load has a different address and cannot,
    making it a guaranteed indexed-forwarding pathology.
    """

    def __init__(self, builder: ProgramBuilder, work_ops: int = 3) -> None:
        super().__init__(builder)
        self.work_ops = work_ops
        self.loads_per_iteration = 2.0
        self.forwarding_loads_per_iteration = 2.0

        self._addr = builder.alloc_region(8)
        self._reg_lo = builder.alloc_int_reg()
        self._reg_hi = builder.alloc_int_reg()
        self._tmp = builder.alloc_int_reg()
        self._store_pc = builder.alloc_pc()
        self._work_pcs = builder.alloc_pcs(work_ops)
        self._load_lo_pc = builder.alloc_pc()
        self._load_hi_pc = builder.alloc_pc()
        self._branch_pc = builder.alloc_pc()

    def emit(self) -> None:
        b = self.builder
        b.store(self._store_pc, self._addr, b.value(8), size=8, srcs=(self._tmp,))
        for i in range(self.work_ops):
            b.alu(self._work_pcs[i], self._tmp, (self._tmp,))
        b.load(self._load_lo_pc, self._reg_lo, self._addr, size=4)
        b.load(self._load_hi_pc, self._reg_hi, self._addr + 4, size=4)
        b.branch(self._branch_pc, taken=True, target=self._store_pc)


class StreamCopyKernel(Kernel):
    """Streaming copy ``B[i] = f(A[i])``; no store-load forwarding."""

    def __init__(self, builder: ProgramBuilder, working_set_bytes: int = 64 * 1024,
                 stride: int = 8) -> None:
        super().__init__(builder)
        self.stride = stride
        self.elements = max(1, working_set_bytes // (2 * stride))
        self.loads_per_iteration = 1.0
        self.forwarding_loads_per_iteration = 0.0

        self._src = builder.alloc_region(self.elements * stride)
        self._dst = builder.alloc_region(self.elements * stride)
        self._reg = builder.alloc_int_reg()
        self._tmp = builder.alloc_int_reg()
        self._load_pc = builder.alloc_pc()
        self._alu_pc = builder.alloc_pc()
        self._store_pc = builder.alloc_pc()
        self._branch_pc = builder.alloc_pc()
        self._i = 0

    def emit(self) -> None:
        b = self.builder
        offset = (self._i % self.elements) * self.stride
        self._i += 1
        b.load(self._load_pc, self._reg, self._src + offset, size=8)
        b.alu(self._alu_pc, self._tmp, (self._reg,))
        b.store(self._store_pc, self._dst + offset, b.value(8), size=8, srcs=(self._tmp,))
        b.branch(self._branch_pc, taken=True, target=self._load_pc)


class AccumulateKernel(Kernel):
    """Load-and-accumulate over an array; no stores at all."""

    def __init__(self, builder: ProgramBuilder, working_set_bytes: int = 32 * 1024,
                 unroll: int = 2) -> None:
        super().__init__(builder)
        self.unroll = max(1, unroll)
        self.elements = max(1, working_set_bytes // 8)
        self.loads_per_iteration = float(self.unroll)
        self.forwarding_loads_per_iteration = 0.0

        self._src = builder.alloc_region(self.elements * 8)
        self._acc = builder.alloc_int_reg()
        self._regs = builder.alloc_int_regs(self.unroll)
        self._load_pcs = builder.alloc_pcs(self.unroll)
        self._add_pcs = builder.alloc_pcs(self.unroll)
        self._branch_pc = builder.alloc_pc()
        self._i = 0

    def emit(self) -> None:
        b = self.builder
        for u in range(self.unroll):
            offset = ((self._i + u) % self.elements) * 8
            b.load(self._load_pcs[u], self._regs[u], self._src + offset, size=8)
            b.alu(self._add_pcs[u], self._acc, (self._acc, self._regs[u]))
        self._i += self.unroll
        b.branch(self._branch_pc, taken=True, target=self._load_pcs[0])


class FPStencilKernel(Kernel):
    """Three-point FP stencil ``b[i] = f(a[i-1], a[i], a[i+1])``; no forwarding."""

    def __init__(self, builder: ProgramBuilder, working_set_bytes: int = 128 * 1024) -> None:
        super().__init__(builder)
        self.elements = max(4, working_set_bytes // 16)
        self.loads_per_iteration = 3.0
        self.forwarding_loads_per_iteration = 0.0

        self._src = builder.alloc_region(self.elements * 8)
        self._dst = builder.alloc_region(self.elements * 8)
        self._regs = builder.alloc_fp_regs(3)
        self._acc = builder.alloc_fp_reg()
        self._load_pcs = builder.alloc_pcs(3)
        self._fp_pcs = builder.alloc_pcs(2)
        self._store_pc = builder.alloc_pc()
        self._branch_pc = builder.alloc_pc()
        self._i = 1

    def emit(self) -> None:
        b = self.builder
        i = self._i
        self._i += 1
        for k, delta in enumerate((-1, 0, 1)):
            offset = ((i + delta) % self.elements) * 8
            b.load(self._load_pcs[k], self._regs[k], self._src + offset, size=8)
        b.alu(self._fp_pcs[0], self._acc, (self._regs[0], self._regs[1]), op_class=OpClass.FP_ALU)
        b.alu(self._fp_pcs[1], self._acc, (self._acc, self._regs[2]), op_class=OpClass.FP_MUL)
        b.store(self._store_pc, self._dst + (i % self.elements) * 8, b.value(8),
                size=8, srcs=(self._acc,))
        b.branch(self._branch_pc, taken=True, target=self._load_pcs[0])


class PointerChaseKernel(Kernel):
    """Serially dependent loads over shuffled node lists (no forwarding).

    ``chains`` independent traversals are interleaved round-robin: each chain
    is serialised on itself (the load consumes the register the previous load
    of the same chain produced), while separate chains provide memory-level
    parallelism, the way real pointer-chasing code (mcf, ammp) overlaps
    several list walks per outer-loop iteration.
    """

    def __init__(self, builder: ProgramBuilder, nodes: int = 4096, node_bytes: int = 64,
                 chains: int = 6) -> None:
        super().__init__(builder)
        self.nodes = max(2, nodes)
        self.node_bytes = node_bytes
        self.chains = max(1, chains)
        self.loads_per_iteration = 1.0
        self.forwarding_loads_per_iteration = 0.0

        self._region = builder.alloc_region(self.nodes * node_bytes)
        self._ptr_regs = builder.alloc_int_regs(self.chains)
        self._load_pcs = builder.alloc_pcs(self.chains)
        self._alu_pcs = builder.alloc_pcs(self.chains)
        self._order = shuffled_range(builder.rng, self.nodes)
        self._pos = 0
        self._chain = 0

    def emit(self) -> None:
        b = self.builder
        node = self._order[self._pos % self.nodes]
        self._pos += 1
        chain = self._chain
        self._chain = (self._chain + 1) % self.chains
        addr = self._region + node * self.node_bytes
        reg = self._ptr_regs[chain]
        # The load consumes the previous pointer value of its own chain and
        # produces the next one, serialising each chain on itself.
        b.load(self._load_pcs[chain], reg, addr, size=8, srcs=(reg,))
        b.alu(self._alu_pcs[chain], reg, (reg,))


class BranchyKernel(Kernel):
    """ALU work plus a data-dependent branch with configurable predictability."""

    def __init__(self, builder: ProgramBuilder, taken_prob: float = 0.5, work_ops: int = 2) -> None:
        super().__init__(builder)
        if not 0.0 <= taken_prob <= 1.0:
            raise ValueError("taken_prob must be within [0, 1]")
        self.taken_prob = taken_prob
        self.work_ops = work_ops
        self.loads_per_iteration = 0.0
        self.forwarding_loads_per_iteration = 0.0

        self._regs = builder.alloc_int_regs(2)
        self._work_pcs = builder.alloc_pcs(work_ops)
        self._branch_pc = builder.alloc_pc()
        self._target = builder.alloc_pc()

    def emit(self) -> None:
        b = self.builder
        for i in range(self.work_ops):
            b.alu(self._work_pcs[i], self._regs[i % 2], (self._regs[(i + 1) % 2],))
        taken = b.rng.random() < self.taken_prob
        b.branch(self._branch_pc, taken=taken, target=self._target, srcs=(self._regs[0],))


#: All kernel classes, exported for tests that want to iterate over them.
ALL_KERNELS: List[type] = [
    StackSpillKernel,
    GlobalRMWKernel,
    NotMostRecentKernel,
    ManyStoreDepKernel,
    WideNarrowKernel,
    StreamCopyKernel,
    AccumulateKernel,
    FPStencilKernel,
    PointerChaseKernel,
    BranchyKernel,
]
