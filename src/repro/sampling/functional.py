"""Functional warming: fast in-order replay that trains long-lived state.

The cycle-accurate core spends most of its time in per-cycle machinery
(dispatch, wakeup heaps, completion queues).  For sampling, what matters
between measurement intervals is only the **long-lived microarchitectural
state**: branch direction tables, BTB, RAS, cache and TLB contents, the SVW
tables (SSBF/SPCT), the architectural memory image, the SSN counters, and
the PC-indexed dependence predictors (FSP/SAT, store sets, DDP).
:class:`FunctionalWarmer` retires a trace window in program order and
updates exactly that state, skipping the out-of-order timing model — an
order-of-magnitude cheaper per-instruction path.

Two deliberate approximations (shared by all configurations, so relative
comparisons are preserved):

* There is no in-flight window, so every store commits instantly
  (``SSNren == SSNcmt``).  A load is treated as *would-forward* when its
  most recent writer is within ``sq_size`` committed stores **and** within
  ``rob_size`` dynamic instructions — the store would plausibly still have
  been in the SQ of the detailed machine.  Policies use this signal in
  :meth:`~repro.lsu.policies.SQPolicy.warm_segment` to train the FSP /
  store sets the way detailed-mode violations and forwardings would have.
* Caches and the branch predictor are updated in program order rather than
  in (out-of-order) execution order; the SVW tables, memory image, and SSN
  counters are exact, because in the detailed core they are updated at
  commit, which *is* program order.
* Non-blocking hierarchies (``config.memory.mlp``; built through
  :func:`repro.memory.mlp.build_hierarchy` so the warmed structure matches
  what the detailed core adopts) warm through the inherited *blocking*
  access path: program-order replay has no clock to schedule fills
  against, so the MSHR file stays empty and cache tags warm with
  install-at-miss timing.  The detailed warm-up interval then populates
  the in-flight state, exactly as it settles the other short-lived
  structures.

Warming always starts at the first instruction of the trace and runs
continuously: the checkpoint store snapshots it at every interval start.
The warmed state is handed to a detailed core via
:meth:`~repro.pipeline.core.OutOfOrderCore.import_state`, after which a
short detailed warm-up (:class:`~repro.sampling.plan.SamplingPlan`'s *W*)
lets the short-lived state (window occupancy, in-flight dependences, DDP
counters) settle before measurement begins.

**Encoded input** (PR 5): the warm loop consumes two-plane encoded streams
(:class:`~repro.isa.plane.EncodedOps`) natively — static fields come from
the shared plane's arrays, dynamic fields from the stream — and encodes
plain micro-op sequences on entry, so there is exactly one warming fold
whatever the input form.

**Multi-policy warming** (PR 3): everything above except the policy tables is
configuration-independent, so one replay pass can warm several store-queue
policies at once.  This is what lets the checkpoint store
(:mod:`repro.sampling.checkpoints`) amortise a single O(N) functional pass
across every configuration of a sweep, or of one policy group when the
generation stage splits a sweep over several workers.  Most of the
policies' own state is shared too, so each distinct piece of it is warmed
once.  :meth:`FunctionalWarmer.warm` works in three steps per call:

* **The shared pass** retires the micro-ops once, updating the branch
  unit, caches/TLB, memory image, SSN counters, the word-granular
  last-writer map (:mod:`repro.memory.last_writer`) and **the SVW tables,
  once per store** (every configuration keeps the same SSBF/SPCT, which
  stores update at commit).  It records the facts every policy needs,
  once per memory access: a store as ``(pc, ssn, addr, size)``, a load as
  ``(pc, addr, size, dep_ssn, dep_pc, dep_distance, ssn_cmt)`` — its
  youngest writer's SSN and PC, the instruction distance to that writer,
  and ``SSNcmt`` — plus, when some policy's fold reads the SVW (the
  indexed SQ trains on it), the SVW's answer ``(ssn, pc)`` at that load
  (the layout is defined once, in
  :meth:`~repro.lsu.policies.SQPolicy.warm_segment`).
* **One fold per warm class** then replays those records in program order
  through the class representative's ``warm_segment``, with its tables in
  locals.  A warm class (:func:`~repro.lsu.policies.warm_classes`) is a set
  of policies whose folds read and write the same tables: the three
  reformulated associative configurations share FSP/SAT, and
  ``indexed-3-fwd`` shares ``indexed-3-fwd+dly``'s FSP/SAT (only the
  latter trains a DDP, so it represents the class).
* **Derivation**: every other policy copies the SVW tables and, from its
  class representative, the predictor tables and counters into its own
  structures (:meth:`~repro.lsu.policies.SQPolicy.adopt_warm_state`).

So when :meth:`~FunctionalWarmer.warm` returns, each policy holds exactly
the state a warmer of its own would have left, in structures no other
policy shares, and pickles byte-for-byte alike.  Warming cost hardly grows
with the number of configurations.  Warming is still a deterministic fold
over the micro-op stream, so warming ``[0, a)`` then ``[a, b)`` equals one
pass over ``[0, b)``, with one policy or several.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.predictors import SVWConfig
from repro.core.svw import SVWFilter
from repro.frontend.branch_predictor import BranchUnit
from repro.isa.plane import KIND_BRANCH, KIND_LOAD, KIND_STORE, EncodedOps, encode_uops
from repro.isa.uop import MicroOp
from repro.lsu.policies import SQPolicy, warm_classes
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.last_writer import LastWriterMap
from repro.memory.last_writer import write as lw_write
from repro.memory.last_writer import youngest as lw_youngest
from repro.memory.mlp import build_hierarchy
from repro.memory.image import MemoryImage
from repro.core.ssn import SSNAllocator
from repro.pipeline.config import CoreConfig


@dataclass
class FunctionalState:
    """The long-lived machine state produced by a functional replay.

    ``last_writer`` is the oracle last-writer map, in the word layout of
    :mod:`repro.memory.last_writer`: each aligned word maps to the
    ``(ssn, store_pc, instr_index)`` entry of the youngest store writing
    all 8 of its bytes, or to a list of 8 per-byte entries.  A detailed
    core adopts the map as is
    (:meth:`~repro.pipeline.core.OutOfOrderCore.import_state`) and reads
    only the SSN at index 0 of an entry, through its commit facts
    (:mod:`repro.pipeline.commit_facts`).
    """

    config: CoreConfig
    branch_unit: BranchUnit
    hierarchy: MemoryHierarchy
    memory: MemoryImage
    ssn_alloc: SSNAllocator
    policy: SQPolicy
    last_writer: LastWriterMap = field(default_factory=dict)
    instructions_warmed: int = 0


def _skip(*_args) -> None:
    """Stands in for the shared-structure updates a policies-only replay
    skips."""


@dataclass
class _SVWGroup:
    """The policies of one warmer that share an SVW config.

    ``svw`` is the one filter the stores update; ``followers`` are the
    other policies' filters, which copy it after each segment.  ``reads``
    says whether some class of the group folds over the SVW's answers.
    """

    svw: SVWFilter
    followers: List[SVWFilter]
    reads: bool
    classes: List[List[SQPolicy]]


def _svw_records(svw: SVWFilter, records: List[tuple],
                 reads: bool) -> List[tuple]:
    """Replay the stores of ``records`` through ``svw``.

    The shared pass updates one SVW; a warmer whose policies hold several
    SVW configs updates the others here.  With ``reads``, the records come
    back with each load's answer taken from ``svw``.
    """
    store_committed = svw.store_committed
    last_writer = svw.last_writer
    out: List[tuple] = []
    for record in records:
        if len(record) == 4:
            pc, ssn, addr, size = record
            store_committed(addr, size, ssn, pc)
        elif reads:
            record = record[:7] + last_writer(record[1], record[2])
        out.append(record)
    return out


class FunctionalWarmer:
    """Replays micro-ops in order, updating long-lived state only.

    ``policy`` names the single policy to warm (the common case).  Passing
    ``policies`` instead warms several policies through one shared replay:
    the shared structures and the SVW are updated once per micro-op, one
    policy per warm class folds the recorded accesses, and the others
    adopt its state (``policy`` then defaults to the first entry, which
    :attr:`state` and :meth:`export_state` expose).  The policies of one
    warm class must enter in equal states, as fresh policies do.

    ``policies_only`` skips the branch unit, caches/TLB and memory image,
    which no policy fold reads: only the SSN counters, the last-writer map
    and the policies (SVW included) are warmed, so the policies end exactly
    as in a full replay while :attr:`state`'s other structures stay cold.
    A checkpoint-generation job that writes no shared snapshot needs
    nothing more.
    """

    def __init__(self, config: CoreConfig, policy: Optional[SQPolicy] = None,
                 policies: Optional[Sequence[SQPolicy]] = None,
                 policies_only: bool = False) -> None:
        if policies is None:
            if policy is None:
                raise ValueError("provide a policy (or a policies sequence)")
            policies = [policy]
        elif policy is not None and (not policies or policies[0] is not policy):
            raise ValueError("pass either policy or policies, not both")
        self.config = config
        self._policies: List[SQPolicy] = list(policies)
        if not self._policies:
            raise ValueError("at least one policy is required")
        self.state = FunctionalState(
            config=config,
            branch_unit=BranchUnit(config.branch_predictor),
            hierarchy=build_hierarchy(config.memory),
            memory=MemoryImage(),
            ssn_alloc=SSNAllocator(bits=config.ssn_bits),
            policy=self._policies[0],
        )
        #: Dynamic instruction index of the next micro-op (used for the
        #: in-flight-window approximation).
        self._index = 0
        self._policies_only = policies_only
        groups: Dict[SVWConfig, _SVWGroup] = {}
        for members in warm_classes(self._policies):
            representative = members[0]
            svw_config = representative.predictor_config.svw
            group = groups.get(svw_config)
            if group is None:
                group = groups[svw_config] = _SVWGroup(representative.svw,
                                                       [], False, [])
            group.followers.extend(policy.svw for policy in members
                                   if policy.svw is not group.svw)
            group.reads = group.reads or representative.warm_reads_svw
            group.classes.append(members)
        self._svw_groups = list(groups.values())

    @property
    def policies(self) -> List[SQPolicy]:
        """The policies warmed by this replay (first == ``state.policy``)."""
        return self._policies

    # ------------------------------------------------------------------ warm --

    def warm(self, uops: Union[EncodedOps, Sequence[MicroOp]]) -> None:
        """Functionally retire ``uops`` in order.

        The shared pass updates the shared structures (caches, branch
        tables, memory image, SSN counters, last-writer map, SVW) once per
        micro-op and records every load and store; then one policy per
        warm class folds the records
        (:meth:`~repro.lsu.policies.SQPolicy.warm_segment`) and every other
        policy copies the state it shares.

        ``uops`` is an :class:`~repro.isa.plane.EncodedOps` stream on the
        hot path (checkpoint generation); a plain micro-op
        sequence (custom traces) is encoded on entry, so there is exactly
        one warming fold and the two input forms cannot drift.
        """
        if not isinstance(uops, EncodedOps):
            uops = encode_uops(uops)
        state = self.state
        if self._policies_only:
            branch_resolve = load_latency = store_touch = memory_write = _skip
        else:
            branch_resolve = state.branch_unit.predict_and_resolve
            load_latency = state.hierarchy.load_latency
            store_touch = state.hierarchy.store_touch
            memory_write = state.memory.write
        ssn_alloc = state.ssn_alloc
        allocate = ssn_alloc.allocate
        commit = ssn_alloc.commit
        ssn_cmt = ssn_alloc.ssn_commit
        words = state.last_writer
        groups = self._svw_groups
        svw_store = groups[0].svw.store_committed
        svw_read = groups[0].svw.last_writer if groups[0].reads else None
        records: List[tuple] = []
        emit = records.append
        index = self._index

        plane = uops.plane
        kind_arr = plane.kind
        pc_arr = plane.pc
        sidx = uops.sidx
        addr_arr = uops.addr
        size_arr = uops.size

        for i, si in enumerate(sidx):
            kind = kind_arr[si]
            if kind == KIND_LOAD:
                addr = addr_arr[i]
                size = size_arr[i]
                load_latency(addr)
                writer = lw_youngest(words, addr, size)
                if writer is None:
                    dep_ssn = dep_pc = dep_distance = 0
                else:
                    dep_ssn, dep_pc, dep_index = writer
                    dep_distance = index - dep_index
                if svw_read is None:
                    emit((pc_arr[si], addr, size, dep_ssn, dep_pc,
                          dep_distance, ssn_cmt))
                else:
                    # Flat, so the answer tuple is freed at once.
                    last_ssn, last_pc = svw_read(addr, size)
                    emit((pc_arr[si], addr, size, dep_ssn, dep_pc,
                          dep_distance, ssn_cmt, last_ssn, last_pc))
            elif kind == KIND_STORE:
                pc = pc_arr[si]
                addr = addr_arr[i]
                size = size_arr[i]
                ssn = allocate()
                memory_write(addr, size, uops.value[i])
                commit(ssn)
                ssn_cmt = ssn
                store_touch(addr)
                lw_write(words, addr, size, (ssn, pc, index))
                svw_store(addr, size, ssn, pc)
                emit((pc, ssn, addr, size))
            elif kind == KIND_BRANCH:
                target = uops.target[i]
                branch_resolve(pc_arr[si], uops.taken[i],
                               target if target >= 0 else None,
                               plane.hint_call[si], plane.hint_return[si])
            index += 1

        self._index = index
        state.instructions_warmed += len(sidx)
        window = self.config.rob_size
        for position, group in enumerate(groups):
            # The shared pass updated the first group's SVW only.
            if position:
                group_records = _svw_records(group.svw, records, group.reads)
            else:
                group_records = records
            for representative, *members in group.classes:
                representative.warm_segment(group_records, window)
                for member in members:
                    member.adopt_warm_state(representative)
            for follower in group.followers:
                follower.copy_from(group.svw)

    # ---------------------------------------------------------------- export --

    def export_state(self) -> FunctionalState:
        """The warmed state bundle (shared references, not a copy).

        For multi-policy warming the bundle carries the *first* policy; the
        checkpoint store persists the other policies' state individually
        (:func:`repro.sampling.checkpoints.generate_checkpoints`) and
        reassembles per-configuration bundles at load time.
        """
        return self.state
