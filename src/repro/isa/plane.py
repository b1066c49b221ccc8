"""Two-plane trace representation: shared static plane + thin dynamic plane.

The paper's workloads are small static programs replayed at scale: a 10M
instruction trace touches only a few hundred *static* instructions.  Every
field derivable from the static instruction — operation class, source and
destination register tuples, issue-class routing, branch hints, execution
latency — is therefore decoded exactly once per static program into a
:class:`StaticProgramPlane` (struct-of-arrays indexed by a small *static
index*), and a dynamic instruction stream is a :class:`EncodedOps`: per-uop
static-plane indices plus the few genuinely dynamic fields (address, store
value, branch direction/target).

This replaces per-uop :class:`~repro.isa.uop.MicroOp` object construction on
every hot path (trace composition, the detailed core's dispatch loop,
functional warming) with flat list indexing, and makes segments cheaply
picklable (lists of ints instead of object graphs).  ``MicroOp`` remains the
thin *view* type: :meth:`EncodedOps.view` materialises one on demand for
tests and examples, and :func:`as_encoded` turns micro-op inputs back into
encoded streams.

Encoding is lossless and order-preserving: ``list(encode_uops(uops)) ==
list(uops)`` for any valid micro-op sequence, which is what keeps every
consumer of the encoded form bit-identical to the object form (pinned by
the golden regression tests).

Static indices are *per-plane*: two planes built from different composition
orders may number the same descriptor differently.  Within a process, all
segments of a workload share one registry plane
(:func:`repro.workloads.program.plane_for`); an :class:`EncodedOps` that
crosses a process boundary ships its plane's descriptor table and is
re-interned on arrival (:meth:`EncodedOps.rebase`), so encoded ops are safe
to pickle between pool workers and into the checkpoint store's shared
snapshots, which hold each interval's detailed window
(:class:`repro.sampling.checkpoints.SharedWarmState`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro.isa.registers import validate_reg
from repro.isa.uop import DEFAULT_LATENCIES, MemAccess, MicroOp, OpClass

#: Dispatch-routing kind codes (what the per-uop loop branches on).
KIND_OTHER = 0
KIND_BRANCH = 1
KIND_LOAD = 2
KIND_STORE = 3

_KIND_OF = {
    OpClass.LOAD: KIND_LOAD,
    OpClass.STORE: KIND_STORE,
    OpClass.BRANCH: KIND_BRANCH,
}

#: Issue-bandwidth class of each op class (budget buckets of
#: :class:`~repro.pipeline.config.IssueLimits`).  Lives here — not in the
#: core — because it is static-plane dispatch metadata, precomputed per
#: static instruction.
ISSUE_CLASS_OF = {
    OpClass.INT_ALU: "int",
    OpClass.INT_MUL: "int",
    OpClass.NOP: "int",
    OpClass.FP_ALU: "fp",
    OpClass.FP_MUL: "fp",
    OpClass.FP_DIV: "fp",
    OpClass.BRANCH: "branch",
    OpClass.LOAD: "load",
    OpClass.STORE: "store",
}

#: Positional index of each issue class, in the order the core lays out its
#: per-cycle issue budgets.  Precomputed per static instruction so
#: integer-indexed kernels never hash the class name.
ISSUE_INDEX_OF = {"int": 0, "fp": 1, "branch": 2, "load": 3, "store": 4}

#: A static descriptor: everything about one static instruction.
Descriptor = Tuple[int, OpClass, Optional[int], Tuple[int, ...], bool, bool]


class StaticProgramPlane:
    """Struct-of-arrays over the static instructions of one program.

    Every array is indexed by the *static index* returned from
    :meth:`intern`; the arrays are append-only (a plane only grows), so a
    static index handed out once stays valid for the life of the plane.
    """

    __slots__ = ("descriptors", "pc", "op_class", "dest", "srcs", "kind",
                 "issue_class", "issue_index", "latency", "hint_call",
                 "hint_return", "_intern", "_pc_cache")

    def __init__(self) -> None:
        self.descriptors: List[Descriptor] = []
        self.pc: List[int] = []
        self.op_class: List[OpClass] = []
        self.dest: List[Optional[int]] = []
        self.srcs: List[Tuple[int, ...]] = []
        self.kind: List[int] = []
        self.issue_class: List[str] = []
        self.issue_index: List[int] = []
        self.latency: List[int] = []
        self.hint_call: List[bool] = []
        self.hint_return: List[bool] = []
        self._intern: Dict[Descriptor, int] = {}
        self._pc_cache: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.descriptors)

    def intern(self, pc: int, op_class: OpClass, dest: Optional[int],
               srcs: Tuple[int, ...], hint_call: bool = False,
               hint_return: bool = False) -> int:
        """The static index of a descriptor, interning it on first sight."""
        key = (pc, op_class, dest, srcs, hint_call, hint_return)
        index = self._intern.get(key)
        if index is None:
            if pc < 0:
                raise ValueError(f"negative pc {pc:#x}")
            # Registers are validated once per static instruction, here, so
            # the per-uop hot loops can index per-register tables directly.
            if dest is not None:
                validate_reg(dest)
            for src in srcs:
                validate_reg(src)
            index = len(self.descriptors)
            self.descriptors.append(key)
            self.pc.append(pc)
            self.op_class.append(op_class)
            self.dest.append(dest)
            self.srcs.append(srcs)
            self.kind.append(_KIND_OF.get(op_class, KIND_OTHER))
            issue_class = ISSUE_CLASS_OF[op_class]
            self.issue_class.append(issue_class)
            self.issue_index.append(ISSUE_INDEX_OF[issue_class])
            self.latency.append(DEFAULT_LATENCIES[op_class])
            self.hint_call.append(hint_call)
            self.hint_return.append(hint_return)
            self._intern[key] = index
        return index

    def intern_cached(self, pc: int, op_class: OpClass, dest: Optional[int],
                      srcs: Tuple[int, ...], hint_call: bool = False,
                      hint_return: bool = False) -> int:
        """Like :meth:`intern`, memoised on the PC.

        The emit hot path re-encounters the same static instruction at the
        same PC on every kernel iteration; a single-entry-per-PC cache turns
        the descriptor-tuple hash into a few comparisons.  PCs that alias
        several descriptors simply fall through to :meth:`intern`.
        """
        cached = self._pc_cache.get(pc)
        if (cached is not None and cached[1] is op_class
                and cached[2] == dest and cached[3] == srcs
                and cached[4] == hint_call and cached[5] == hint_return):
            return cached[0]
        index = self.intern(pc, op_class, dest, srcs, hint_call, hint_return)
        self._pc_cache[pc] = (index, op_class, dest, srcs, hint_call,
                              hint_return)
        return index

    def dispatch_arrays(self) -> Tuple[List, ...]:
        """The static dispatch metadata as one tuple of parallel arrays.

        ``(kind, pc, issue_index, latency, hint_call, hint_return)`` —
        everything the detailed core's run loop hoists before it starts,
        batched so the hoist is a single call.  The loop takes register
        dataflow from the trace's commit facts, not from ``dest``/``srcs``.
        """
        return (self.kind, self.pc, self.issue_index, self.latency,
                self.hint_call, self.hint_return)

    @classmethod
    def from_descriptors(cls, descriptors: Sequence[Descriptor]
                         ) -> "StaticProgramPlane":
        """Rebuild a plane from a shipped descriptor table (unpickling)."""
        plane = cls()
        for descriptor in descriptors:
            plane.intern(*descriptor)
        return plane


@dataclass
class TraceStats:
    """Summary statistics over a dynamic trace (:attr:`EncodedOps.stats`)."""

    total: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    int_ops: int = 0
    fp_ops: int = 0
    unique_pcs: int = 0
    unique_load_pcs: int = 0
    unique_store_pcs: int = 0

    @property
    def load_fraction(self) -> float:
        return self.loads / self.total if self.total else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.total if self.total else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.total if self.total else 0.0


class EncodedOps:
    """A dynamic instruction stream over a shared static plane.

    Parallel lists, one entry per dynamic micro-op:

    * ``sidx`` — static-plane index (op class, registers, routing, hints);
    * ``addr`` / ``size`` — effective address and width (0 for non-memory);
    * ``value`` — store value (−1 for loads and non-memory ops: loads carry
      no value by design, see :mod:`repro.isa.uop`);
    * ``taken`` / ``target`` — branch direction and target (−1 = no target).

    Slicing shares the plane and is O(window); :meth:`extend` concatenates,
    re-interning across planes when needed; pickling ships the descriptor
    table so a segment is self-contained across processes.

    ``commit_facts`` holds what the detailed core derives from the stream
    alone, per SVW geometry
    (:func:`repro.pipeline.commit_facts.facts_for_run`), and ``warm_lines``
    the cache lines a fresh core's warm-up leaves, per cache geometry and
    warmed length (:meth:`repro.pipeline.core.OutOfOrderCore._warm_caches`).
    Neither is content, so equality, slicing and pickling ignore them, and
    an alias (:meth:`with_name`) shares them with the arrays.
    """

    __slots__ = ("name", "plane", "sidx", "addr", "size", "value", "taken",
                 "target", "commit_facts", "warm_lines")

    def __init__(self, plane: Optional[StaticProgramPlane] = None,
                 name: str = "") -> None:
        self.name = name
        self.plane = plane if plane is not None else StaticProgramPlane()
        self.sidx: List[int] = []
        self.addr: List[int] = []
        self.size: List[int] = []
        self.value: List[int] = []
        self.taken: List[bool] = []
        self.target: List[int] = []
        self.commit_facts: dict = {}
        self.warm_lines: dict = {}

    # ------------------------------------------------------------- building --

    def append(self, sidx: int, addr: int = 0, size: int = 0,
               value: int = -1, taken: bool = False, target: int = -1) -> None:
        self.sidx.append(sidx)
        self.addr.append(addr)
        self.size.append(size)
        self.value.append(value)
        self.taken.append(taken)
        self.target.append(target)

    def extend(self, other: "EncodedOps") -> None:
        """Append ``other``'s micro-ops (re-interning across planes)."""
        if other.plane is not self.plane:
            other = other.rebase(self.plane)
        self.sidx.extend(other.sidx)
        self.addr.extend(other.addr)
        self.size.extend(other.size)
        self.value.extend(other.value)
        self.taken.extend(other.taken)
        self.target.extend(other.target)

    def rebase(self, plane: StaticProgramPlane) -> "EncodedOps":
        """This stream re-interned onto ``plane`` (shared-plane slices of
        independently built or unpickled segments can then concatenate)."""
        if plane is self.plane:
            return self
        remap = [plane.intern(*descriptor)
                 for descriptor in self.plane.descriptors]
        rebased = EncodedOps(plane, name=self.name)
        rebased.sidx = [remap[si] for si in self.sidx]
        rebased.addr = self.addr
        rebased.size = self.size
        rebased.value = self.value
        rebased.taken = self.taken
        rebased.target = self.target
        return rebased

    def with_name(self, name: str) -> "EncodedOps":
        """A shallow named alias of this stream (shares every array)."""
        named = EncodedOps.__new__(EncodedOps)
        named.name = name
        named.plane = self.plane
        named.sidx = self.sidx
        named.addr = self.addr
        named.size = self.size
        named.value = self.value
        named.taken = self.taken
        named.target = self.target
        named.commit_facts = self.commit_facts
        named.warm_lines = self.warm_lines
        return named

    def dynamic_arrays(self) -> Tuple[List, ...]:
        """The per-uop dynamic fields as one tuple of parallel arrays.

        ``(sidx, addr, size, value, taken, target)`` — the batch-accessor
        counterpart of :meth:`StaticProgramPlane.dispatch_arrays` for the
        dynamic plane.
        """
        return (self.sidx, self.addr, self.size, self.value, self.taken,
                self.target)

    # ------------------------------------------------------------- sequence --

    def __len__(self) -> int:
        return len(self.sidx)

    def slice(self, lo: int, hi: int) -> "EncodedOps":
        out = EncodedOps.__new__(EncodedOps)
        out.name = self.name
        out.plane = self.plane
        out.sidx = self.sidx[lo:hi]
        out.addr = self.addr[lo:hi]
        out.size = self.size[lo:hi]
        out.value = self.value[lo:hi]
        out.taken = self.taken[lo:hi]
        out.target = self.target[lo:hi]
        out.commit_facts = {}
        out.warm_lines = {}
        return out

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self.sidx))
            if step != 1:
                raise ValueError("EncodedOps slicing requires step 1")
            return self.slice(lo, hi)
        return self.view(index)

    def __iter__(self) -> Iterator[MicroOp]:
        for i in range(len(self.sidx)):
            yield self.view(i)

    def view(self, i: int) -> MicroOp:
        """Materialise micro-op ``i`` as a full :class:`MicroOp` (thin view
        for tests and examples)."""
        plane = self.plane
        si = self.sidx[i]
        kind = plane.kind[si]
        mem = None
        if kind == KIND_LOAD:
            mem = MemAccess(self.addr[i], self.size[i])
        elif kind == KIND_STORE:
            mem = MemAccess(self.addr[i], self.size[i], self.value[i])
        target = self.target[i]
        return MicroOp(pc=plane.pc[si], op_class=plane.op_class[si],
                       dest=plane.dest[si], srcs=plane.srcs[si], mem=mem,
                       is_taken=self.taken[i],
                       target=target if target >= 0 else None,
                       hint_call=plane.hint_call[si],
                       hint_return=plane.hint_return[si])

    @property
    def stats(self) -> TraceStats:
        """Trace statistics, computed straight off the arrays."""
        plane = self.plane
        kind = plane.kind
        op_class = plane.op_class
        pcs = plane.pc
        stats = TraceStats(total=len(self.sidx))
        seen = set()
        load_pcs = set()
        store_pcs = set()
        for i, si in enumerate(self.sidx):
            seen.add(pcs[si])
            k = kind[si]
            if k == KIND_LOAD:
                stats.loads += 1
                load_pcs.add(pcs[si])
            elif k == KIND_STORE:
                stats.stores += 1
                store_pcs.add(pcs[si])
            elif k == KIND_BRANCH:
                stats.branches += 1
                if self.taken[i]:
                    stats.taken_branches += 1
            elif op_class[si].is_fp:
                stats.fp_ops += 1
            elif op_class[si].is_int:
                stats.int_ops += 1
        stats.unique_pcs = len(seen)
        stats.unique_load_pcs = len(load_pcs)
        stats.unique_store_pcs = len(store_pcs)
        return stats

    # ------------------------------------------------------------- equality --

    def _content(self) -> List[tuple]:
        descriptors = self.plane.descriptors
        return [(descriptors[si], addr, size, value, taken, target)
                for si, addr, size, value, taken, target
                in zip(self.sidx, self.addr, self.size, self.value,
                       self.taken, self.target)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EncodedOps):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self.plane is other.plane:
            return (self.sidx == other.sidx and self.addr == other.addr
                    and self.size == other.size and self.value == other.value
                    and self.taken == other.taken
                    and self.target == other.target)
        return self._content() == other._content()

    __hash__ = None  # mutable container

    # -------------------------------------------------------------- pickling --

    def __getstate__(self) -> tuple:
        return (self.name, self.plane.descriptors, self.sidx, self.addr,
                self.size, self.value, self.taken, self.target)

    def __setstate__(self, state: tuple) -> None:
        (self.name, descriptors, self.sidx, self.addr, self.size, self.value,
         self.taken, self.target) = state
        self.plane = StaticProgramPlane.from_descriptors(descriptors)
        self.commit_facts = {}
        self.warm_lines = {}


def encode_uops(uops: Iterable[MicroOp],
                plane: Optional[StaticProgramPlane] = None,
                name: str = "") -> EncodedOps:
    """Encode a micro-op sequence onto ``plane`` (fresh plane when ``None``).

    Lossless: ``list(encode_uops(uops)) == list(uops)``.
    """
    encoded = EncodedOps(plane, name=name)
    intern = encoded.plane.intern
    for uop in uops:
        si = intern(uop.pc, uop.op_class, uop.dest, uop.srcs,
                    uop.hint_call, uop.hint_return)
        mem = uop.mem
        if mem is not None:
            value = mem.value if mem.value is not None else -1
            encoded.append(si, mem.addr, mem.size, value)
        else:
            target = uop.target if uop.target is not None else -1
            encoded.append(si, taken=uop.is_taken, target=target)
    return encoded


def as_encoded(trace: Union[EncodedOps, Iterable[MicroOp]],
               name: Optional[str] = None) -> EncodedOps:
    """Coerce an :class:`EncodedOps` or a micro-op iterable to
    :class:`EncodedOps`, preserving content exactly."""
    if isinstance(trace, EncodedOps):
        return trace if name is None or trace.name == name \
            else trace.with_name(name)
    return encode_uops(trace, name=name or "")


__all__ = [
    "KIND_OTHER", "KIND_BRANCH", "KIND_LOAD", "KIND_STORE",
    "ISSUE_CLASS_OF", "ISSUE_INDEX_OF", "StaticProgramPlane", "EncodedOps",
    "TraceStats", "encode_uops", "as_encoded",
]
