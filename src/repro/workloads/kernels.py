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

        # call, `slots` stores, `work_ops` ALU ops, `slots` loads, return.
        slot_addrs = tuple(self._stack + 8 * i for i in range(slots))
        quiet = (0,) * work_ops
        self._addr = (0, *slot_addrs, *quiet, *slot_addrs, 0)
        self._size = (0, *(8,) * slots, *quiet, *(8,) * slots, 0)
        self._value_sizes = (8,) * slots
        self._value_tail = (-1,) * (work_ops + slots + 1)
        self._taken = (True, *(False,) * (2 * slots + work_ops), True)
        self._target = (self._store_pcs[0], *(-1,) * (2 * slots + work_ops),
                        self._call_pc + 4)
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            regs = self._regs
            work = self._work_regs
            sidx = self._sidx = (
                b.intern(self._call_pc, OpClass.BRANCH, call=True),
                *[b.intern(pc, OpClass.STORE, srcs=(regs[i % len(regs)],))
                  for i, pc in enumerate(self._store_pcs)],
                *[b.intern(pc, OpClass.INT_ALU, work[i % 2], (work[(i + 1) % 2],))
                  for i, pc in enumerate(self._work_pcs)],
                *[b.intern(pc, OpClass.LOAD, regs[i % len(regs)])
                  for i, pc in enumerate(self._load_pcs)],
                b.intern(self._ret_pc, OpClass.BRANCH, ret=True))
        b.emit_block(sidx, self._addr, self._size,
                     (-1, *map(b.value, self._value_sizes),
                      *self._value_tail),
                     self._taken, self._target)


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

        # Per global: its first visit (one initialising store) and every
        # later one (load, `work_ops` ALU ops, store, branch).
        self._addrs = [self._region + 8 * j for j in range(n_globals)]
        quiet = (0,) * work_ops
        self._body_addr = [(addr, *quiet, addr, 0) for addr in self._addrs]
        self._body_size = (8, *quiet, 8, 0)
        self._body_value_head = (-1,) * (work_ops + 1)
        self._body_taken = (*(False,) * (work_ops + 2), True)
        self._body_target = (*(-1,) * (work_ops + 2), self._load_pcs[0])
        self._store_sidx = [None] * n_globals
        self._body_sidx = [None] * n_globals

    def emit(self) -> None:
        b = self.builder
        j = self._index % self.n_globals
        self._index += 1
        store = self._store_sidx[j]
        if store is None:
            # First visit: initialise the global so later loads read written data.
            store = self._store_sidx[j] = b.intern(
                self._store_pcs[j], OpClass.STORE, srcs=(self._tmp,))
            b.emit_block((store,), (self._addrs[j],), (8,),
                         (b.value(8),), (False,), (-1,))
            return
        sidx = self._body_sidx[j]
        if sidx is None:
            tmp = self._tmp
            sidx = self._body_sidx[j] = (
                b.intern(self._load_pcs[j], OpClass.LOAD, self._reg),
                *[b.intern(pc, OpClass.INT_ALU, tmp, (self._reg, tmp))
                  for pc in self._work_pcs],
                store,
                b.intern(self._branch_pc, OpClass.BRANCH))
        b.emit_block(sidx, self._body_addr[j], self._body_size,
                     (*self._body_value_head, b.value(8), -1),
                     self._body_taken, self._body_target)


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
        self._taken = (False, False, False, True)
        self._target = (-1, -1, -1, self._load_pc)
        self._store_sidx = None
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        i = self._i
        self._i += 1
        if i < self.lag:
            # Prologue: initialise the first `lag` elements with stores only.
            if self._store_sidx is None:
                self._store_sidx = b.intern(self._store_pc, OpClass.STORE,
                                            srcs=(self._reg,))
            b.emit_block((self._store_sidx,),
                         (self._region + 8 * (i % self.elements),), (8,),
                         (b.value(8),), (False,), (-1,))
            return
        sidx = self._sidx
        if sidx is None:
            op = OpClass.FP_MUL if self.fp else OpClass.INT_MUL
            sidx = self._sidx = (
                b.intern(self._load_pc, OpClass.LOAD, self._reg),
                b.intern(self._mul_pc, op, self._reg, (self._reg, self._coef)),
                self._store_sidx,
                b.intern(self._branch_pc, OpClass.BRANCH))
        region = self._region
        b.emit_block(sidx,
                     (region + 8 * ((i - self.lag) % self.elements), 0,
                      region + 8 * (i % self.elements), 0),
                     (8, 0, 8, 0), (-1, -1, b.value(8), -1),
                     self._taken, self._target)


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

        # store, `work_ops` ALU ops, load, branch; one block per store PC.
        quiet = (0,) * self.work_ops
        self._addrs = (self._addr, *quiet, self._addr, 0)
        self._size = (8, *quiet, 8, 0)
        self._value_tail = (-1,) * (self.work_ops + 2)
        self._taken = (*(False,) * (self.work_ops + 2), True)
        self._target = (*(-1,) * (self.work_ops + 2), self._store_pcs[0])
        self._sidx = [None] * n_stores

    def emit(self) -> None:
        b = self.builder
        k = self._index % self.n_stores
        self._index += 1
        sidx = self._sidx[k]
        if sidx is None:
            # A short dependent chain between the store and the load, which
            # the load's address computation consumes.  This mirrors real
            # code (the reload is separated from the producer by address
            # arithmetic) and means the *associative* SQ finds the
            # already-executed store, while the indexed SQ still
            # mis-forwards whenever the FSP's limited associativity fails
            # to name the right producer.
            tmp = self._tmp
            sidx = self._sidx[k] = (
                b.intern(self._store_pcs[k], OpClass.STORE, srcs=(tmp,)),
                *[b.intern(pc, OpClass.INT_ALU, tmp, (tmp,))
                  for pc in self._work_pcs],
                b.intern(self._load_pc, OpClass.LOAD, self._reg, (tmp,)),
                b.intern(self._branch_pc, OpClass.BRANCH))
        b.emit_block(sidx, self._addrs, self._size,
                     (b.value(8), *self._value_tail),
                     self._taken, self._target)


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

        # store, `work_ops` ALU ops, low-half load, high-half load, branch.
        quiet = (0,) * work_ops
        self._addrs = (self._addr, *quiet, self._addr, self._addr + 4, 0)
        self._size = (8, *quiet, 4, 4, 0)
        self._value_tail = (-1,) * (work_ops + 3)
        self._taken = (*(False,) * (work_ops + 3), True)
        self._target = (*(-1,) * (work_ops + 3), self._store_pc)
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            tmp = self._tmp
            sidx = self._sidx = (
                b.intern(self._store_pc, OpClass.STORE, srcs=(tmp,)),
                *[b.intern(pc, OpClass.INT_ALU, tmp, (tmp,))
                  for pc in self._work_pcs],
                b.intern(self._load_lo_pc, OpClass.LOAD, self._reg_lo),
                b.intern(self._load_hi_pc, OpClass.LOAD, self._reg_hi),
                b.intern(self._branch_pc, OpClass.BRANCH))
        b.emit_block(sidx, self._addrs, self._size,
                     (b.value(8), *self._value_tail),
                     self._taken, self._target)


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
        self._target = (-1, -1, -1, self._load_pc)
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            sidx = self._sidx = (
                b.intern(self._load_pc, OpClass.LOAD, self._reg),
                b.intern(self._alu_pc, OpClass.INT_ALU, self._tmp, (self._reg,)),
                b.intern(self._store_pc, OpClass.STORE, srcs=(self._tmp,)),
                b.intern(self._branch_pc, OpClass.BRANCH))
        offset = (self._i % self.elements) * self.stride
        self._i += 1
        b.emit_block(sidx, (self._src + offset, 0, self._dst + offset, 0),
                     (8, 0, 8, 0), (-1, -1, b.value(8), -1),
                     (False, False, False, True), self._target)


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

        # `unroll` (load, add) pairs, then the branch.
        self._size = (*(8, 0) * self.unroll, 0)
        self._value = (-1,) * (2 * self.unroll + 1)
        self._taken = (*(False,) * (2 * self.unroll), True)
        self._target = (*(-1,) * (2 * self.unroll), self._load_pcs[0])
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            acc = self._acc
            pairs = []
            for load_pc, add_pc, reg in zip(self._load_pcs, self._add_pcs,
                                            self._regs):
                pairs += (b.intern(load_pc, OpClass.LOAD, reg),
                          b.intern(add_pc, OpClass.INT_ALU, acc, (acc, reg)))
            sidx = self._sidx = (*pairs, b.intern(self._branch_pc, OpClass.BRANCH))
        i = self._i
        self._i += self.unroll
        src = self._src
        elements = self.elements
        addr = []
        for u in range(self.unroll):
            addr += (src + ((i + u) % elements) * 8, 0)
        addr.append(0)
        b.emit_block(sidx, addr, self._size, self._value, self._taken,
                     self._target)


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
        self._target = (-1,) * 6 + (self._load_pcs[0],)
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            regs = self._regs
            acc = self._acc
            sidx = self._sidx = (
                *[b.intern(pc, OpClass.LOAD, reg)
                  for pc, reg in zip(self._load_pcs, regs)],
                b.intern(self._fp_pcs[0], OpClass.FP_ALU, acc, (regs[0], regs[1])),
                b.intern(self._fp_pcs[1], OpClass.FP_MUL, acc, (acc, regs[2])),
                b.intern(self._store_pc, OpClass.STORE, srcs=(acc,)),
                b.intern(self._branch_pc, OpClass.BRANCH))
        i = self._i
        self._i += 1
        src = self._src
        elements = self.elements
        b.emit_block(sidx,
                     (src + ((i - 1) % elements) * 8, src + (i % elements) * 8,
                      src + ((i + 1) % elements) * 8, 0, 0,
                      self._dst + (i % elements) * 8, 0),
                     (8, 8, 8, 0, 0, 8, 0),
                     (-1, -1, -1, -1, -1, b.value(8), -1),
                     (False,) * 6 + (True,), self._target)


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
        self._sidx = [None] * self.chains

    def emit(self) -> None:
        b = self.builder
        node = self._order[self._pos % self.nodes]
        self._pos += 1
        chain = self._chain
        self._chain = (self._chain + 1) % self.chains
        sidx = self._sidx[chain]
        if sidx is None:
            # The load consumes the previous pointer value of its own chain
            # and produces the next one, serialising each chain on itself.
            reg = self._ptr_regs[chain]
            sidx = self._sidx[chain] = (
                b.intern(self._load_pcs[chain], OpClass.LOAD, reg, (reg,)),
                b.intern(self._alu_pcs[chain], OpClass.INT_ALU, reg, (reg,)))
        b.emit_block(sidx, (self._region + node * self.node_bytes, 0), (8, 0),
                     (-1, -1), (False, False), (-1, -1))


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

        # `work_ops` ALU ops, then the branch.
        self._zeros = (0,) * (work_ops + 1)
        self._value = (-1,) * (work_ops + 1)
        self._quiet = (False,) * work_ops
        self._targets = (*(-1,) * work_ops, self._target)
        self._sidx = None

    def emit(self) -> None:
        b = self.builder
        sidx = self._sidx
        if sidx is None:
            regs = self._regs
            sidx = self._sidx = (
                *[b.intern(pc, OpClass.INT_ALU, regs[i % 2], (regs[(i + 1) % 2],))
                  for i, pc in enumerate(self._work_pcs)],
                b.intern(self._branch_pc, OpClass.BRANCH, srcs=(regs[0],)))
        taken = b.rng.random() < self.taken_prob
        b.emit_block(sidx, self._zeros, self._zeros, self._value,
                     (*self._quiet, taken), self._targets)


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
