"""Commit-order facts: what each instruction sees, fixed by program order.

A load's SVW re-execution check and its FSP/DDP training happen when it
commits, in program order (Sections 2, 3.2 and 3.3).  By then every older
store has committed and no younger one has, so three answers depend only on
the trace and the state the run starts from, never on the SQ configuration
or on timing:

* the value memory holds for the load's bytes (the re-executed value);
* the SVW's answer, :meth:`~repro.core.svw.SVWFilter.last_writer`: the SSN
  of the youngest committed store writing one of the load's bytes (SSBF)
  and that store's PC (SPCT);
* the SSN of the load's true producer, the youngest older store of the
  trace writing one of its bytes (:func:`repro.memory.last_writer.youngest`
  over the trace's own stores; 0: none), which the oracle-scheduled
  baseline waits for.  The detailed core asks at dispatch: a load
  dispatches after every older store and a flush squashes exactly the
  younger ones, so the answer is the same.  It also bounds the load's
  store-queue access: only a store at or before the producer can write the
  load's bytes.

A writer from before the run is left out of the producer, so the replay's
last-writer map starts empty and no map is handed to the core.  Every SSN
a run allocates is above the start state's ``ssn_rename`` and every
store-queue entry is in flight, so such a writer stays committed for the
whole run, and the core treats a committed producer exactly as none: it is
not in flight, it bounds an access that finds no entry, and the oracle's
prediction from it waits for nothing
(``tests/property/test_forward_bound.py``).  A load with writers both
before and during the run gets the in-run one, whose SSN is larger.

Store SSNs are fixed by program order too: a run allocates them at
dispatch, and a flush rewinds the allocator to the first squashed store's
SSN, so the ``k``-th store of a trace always gets ``next_ssn + k``.

Register dataflow is fixed by the trace alone: every run starts with an
empty window, so a source register is read from the youngest older
instruction of the trace that writes it, or from the architectural state
when none does.  The same replay records, per instruction, the distance
back to each source's producer and the distances forward to its consumers,
which the core reads in place of a register alias table and per-producer
wake-up lists.

:func:`compute_commit_facts` replays a trace once in program order from a
start state, which it reads and never writes.
:func:`~repro.pipeline._vector_loop.run_core_loop` reads the results
instead of keeping a last-writer map and probing memory and the SSBF at
every commit.  A trace's configurations share its facts: :func:`facts_for_run`
keeps the facts of a fresh start on the trace
(:attr:`~repro.isa.plane.EncodedOps.commit_facts`, one entry per SVW
geometry), so the six Figure-4 cores of a trace pay one pass, and the
sampling driver memoises each interval window's facts per SVW geometry.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.svw import SVWFilter
from repro.isa.plane import KIND_LOAD, KIND_STORE, EncodedOps
from repro.isa.registers import REG_ZERO, TOTAL_REG_COUNT
from repro.memory.image import MemoryImage
from repro.memory.last_writer import LastWriterMap
from repro.memory.last_writer import write as lw_write
from repro.memory.last_writer import youngest as lw_youngest


class CommitFacts:
    """The commit-order facts of one trace from one start state.

    Six lists indexed by dynamic instruction.  Four hold each load's
    answers at commit, 0 at every non-load:

    * ``producer_ssn`` — the SSN of the load's true producer (0: none);
    * ``value`` — the value memory holds for the load's bytes at commit;
    * ``svw_ssn`` / ``svw_pc`` — the SVW's youngest committed writer of
      the load's bytes at commit (SSN 0: none).

    Two hold every instruction's register dataflow within the trace, as
    tuples of positive distances (equal tuples are one object):

    * ``sources`` — per source register read, in operand order, the
      distance back to its youngest older writer; the zero register and a
      register no older instruction writes are left out, and a register
      named twice appears twice;
    * ``consumers`` — the distances forward to the instructions that read
      this one's result, ascending: the exact inverse of ``sources``.
    """

    __slots__ = ("producer_ssn", "value", "svw_ssn", "svw_pc", "sources",
                 "consumers")

    def __init__(self, producer_ssn: List[int], value: List[int],
                 svw_ssn: List[int], svw_pc: List[int],
                 sources: List[Tuple[int, ...]],
                 consumers: List[Tuple[int, ...]]) -> None:
        self.producer_ssn = producer_ssn
        self.value = value
        self.svw_ssn = svw_ssn
        self.svw_pc = svw_pc
        self.sources = sources
        self.consumers = consumers

    def __len__(self) -> int:
        return len(self.value)


def svw_geometry(svw: SVWFilter) -> Tuple[int, int]:
    """What the facts read of an SVW's configuration: the SSBF and SPCT
    sizes."""
    return (svw.ssbf.entries, svw.spct.entries)


def compute_commit_facts(encoded: EncodedOps, memory: MemoryImage,
                         svw: SVWFilter, next_ssn: int) -> CommitFacts:
    """Replay ``encoded`` in program order and record its facts.

    The start state is the committed memory image, the SVW filter (its
    SSBF and SPCT tables) and the SSN the trace's first store gets.  The
    replay commits every store, in order, into private copies of the two
    structures and into a last-writer map of the trace's own stores, and
    asks them what the detailed core asks, so none of the start state
    changes.  The register dataflow depends on the trace alone.
    """
    plane = encoded.plane
    kind_arr = plane.kind
    pc_arr = plane.pc
    sidx = encoded.sidx
    addr_arr = encoded.addr
    size_arr = encoded.size
    value_arr = encoded.value
    total = len(sidx)
    producer_ssn = [0] * total
    values = [0] * total
    svw_ssn = [0] * total
    svw_pc = [0] * total
    sources = [()] * total
    consumers = [()] * total

    image = memory.copy()
    read = image.read
    write = image.write
    tables = SVWFilter(svw.config)
    tables.copy_from(svw)
    answer = tables.last_writer
    ssbf_update = tables.ssbf.update
    spct_update = tables.spct.update
    # The trace's own stores; only index 0 (the SSN) of an entry is read.
    writers: LastWriterMap = {}
    ssn = next_ssn - 1

    # Per static instruction: the registers it reads and the one it writes
    # (-1: none), the zero register dropped from both.
    src_regs = [tuple(reg for reg in srcs if reg != REG_ZERO)
                for srcs in plane.srcs]
    dest_reg = [-1 if dest is None or dest == REG_ZERO else dest
                for dest in plane.dest]
    # Per register: its youngest writer so far (-1: none) and the distances
    # of the instructions that have read that writer's result.  A writer's
    # consumers are final once the next writer of its register appears.
    reg_writer = [-1] * TOTAL_REG_COUNT
    reg_readers: List[List[int]] = [[] for _ in range(TOTAL_REG_COUNT)]
    intern = {}.setdefault

    for i, si in enumerate(sidx):
        regs = src_regs[si]
        if regs:
            found = []
            for reg in regs:
                writer = reg_writer[reg]
                if writer >= 0:
                    found.append(i - writer)
                    reg_readers[reg].append(i - writer)
            if found:
                distances = tuple(found)
                sources[i] = intern(distances, distances)
        reg = dest_reg[si]
        if reg >= 0:
            writer = reg_writer[reg]
            if writer >= 0:
                readers = tuple(reg_readers[reg])
                consumers[writer] = intern(readers, readers)
                reg_readers[reg] = []
            reg_writer[reg] = i
        kind = kind_arr[si]
        if kind == KIND_LOAD:
            addr = addr_arr[i]
            size = size_arr[i]
            writer = lw_youngest(writers, addr, size)
            if writer is not None:
                producer_ssn[i] = writer[0]
            values[i] = read(addr, size)
            svw_ssn[i], svw_pc[i] = answer(addr, size)
        elif kind == KIND_STORE:
            addr = addr_arr[i]
            size = size_arr[i]
            ssn += 1
            lw_write(writers, addr, size, (ssn,))
            write(addr, size, value_arr[i])
            ssbf_update(addr, size, ssn)
            spct_update(addr, size, pc_arr[si])
    for reg, writer in enumerate(reg_writer):
        if writer >= 0:
            readers = tuple(reg_readers[reg])
            consumers[writer] = intern(readers, readers)
    return CommitFacts(producer_ssn, values, svw_ssn, svw_pc, sources,
                       consumers)


def facts_for_run(encoded: EncodedOps, memory: MemoryImage, svw: SVWFilter,
                  ssn_rename: int) -> CommitFacts:
    """The facts of ``encoded`` for a run from this start state.

    A fresh start (empty memory image, no store renamed, clear SVW tables)
    is the same for every configuration of the trace, so its facts are
    kept on the trace, per SVW geometry; any other start computes its own.
    """
    if ssn_rename or memory.written_byte_count() or not svw.is_clear():
        return compute_commit_facts(encoded, memory, svw, ssn_rename + 1)
    cache = encoded.commit_facts
    key = svw_geometry(svw)
    facts = cache.get(key)
    # A trace extended since its facts were computed has more entries.
    if facts is None or len(facts) != len(encoded):
        facts = cache[key] = compute_commit_facts(encoded, memory, svw, 1)
    return facts
