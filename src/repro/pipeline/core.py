"""Cycle-level out-of-order core.

The core replays a dynamic micro-op trace through a model of the paper's
machine: an 8-wide rename/issue/commit pipeline with a 512-entry ROB,
300-entry issue queue, 128-entry load queue, and 64-entry store queue
(Section 4.1).  The store-queue access behaviour — associative vs. indexed,
ideal vs. realistic latency, with or without delay prediction — is supplied
by an :class:`~repro.lsu.policies.SQPolicy`.

Modelling notes (and deliberate simplifications, shared by *all*
configurations so relative comparisons are preserved):

* The model is trace driven: wrong-path instructions are not fetched.  A
  mispredicted branch instead blocks fetch until the branch resolves plus a
  front-end redirect penalty, the standard trace-driven treatment.
* Scheduler replay is modelled as a penalty added to a load's value-broadcast
  time whenever its actual latency exceeds the latency the scheduler assumed
  when speculatively waking dependants (cache misses, and SQ forwarding when
  the SQ is slower than the cache), plus a replay counter.
* Re-execution-detected violations (memory-ordering violations and the
  indexed SQ's mis-forwardings) flush everything younger than the offending
  load; the load itself commits with the re-executed (correct) value.
* Fetch and decode are folded into dispatch: up to ``rename_width`` trace
  micro-ops enter the window per cycle, at most one taken branch per cycle,
  provided no redirect is pending and no structure is full.  The explicit
  front-end depth appears only in the redirect/flush penalties.

The cycle loop itself is :func:`repro.pipeline._vector_loop.run_core_loop`:
dispatch, issue, wakeup, commit, and flush fused into one pass over
struct-of-arrays in-flight state.  It is event-aware: when nothing is ready
to issue and dispatch cannot make progress, the clock jumps directly to the
next cycle at which anything can happen, with the skipped cycles attributed
to the same stall counters the straight-line loop would have charged
(``CoreConfig.idle_skip`` disables the fast-forward for A/B checking).  The
loop reads the trace as an :class:`~repro.isa.plane.EncodedOps` stream
(what the workload generators produce); :meth:`OutOfOrderCore.run` encodes
a micro-op iterable once on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.frontend.branch_predictor import BranchUnit
from repro.isa.plane import KIND_LOAD, EncodedOps, as_encoded
from repro.lsu.policies import SQPolicy
from repro.lsu.store_queue import StoreQueue
from repro.memory.mlp import NonBlockingHierarchy, build_hierarchy
from repro.memory.image import MemoryImage
from repro.core.ssn import SSNAllocator
from repro.pipeline._vector_loop import run_core_loop
from repro.pipeline.commit_facts import CommitFacts, facts_for_run
from repro.pipeline.config import CoreConfig
from repro.pipeline.stats import SimStats


#: How many leading trace instructions :meth:`OutOfOrderCore._warm_caches`
#: pre-touches the memory lines of.
WARM_INSTRUCTIONS = 4000


def _copy_sets(sets: dict) -> dict:
    """A copy of a cache's per-set tag lists (LRU order included)."""
    return {index: ways[:] for index, ways in sets.items()}


@dataclass
class SimulationResult:
    """Result of simulating one trace under one SQ configuration."""

    workload: str
    policy: str
    stats: SimStats
    config: CoreConfig
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class OutOfOrderCore:
    """Trace-driven cycle-level model of the paper's processor.

    The core owns the long-lived machine state — memory hierarchy, memory
    image, branch unit, SQ policy and SSN counters — plus the store queue
    the policies probe.  It keeps no oracle last-writer map: a load's true
    producer comes from the trace's commit facts, which need none
    (:mod:`repro.pipeline.commit_facts`).  The in-flight window
    exists only inside :meth:`run`, and a core runs once; a later trace
    continues on a new core through :meth:`export_state` and
    :meth:`import_state`.
    """

    #: Abort if no instruction commits for this many consecutive cycles.
    DEADLOCK_LIMIT = 50_000

    def __init__(self, config: CoreConfig, policy: SQPolicy) -> None:
        self.config = config
        self.policy = policy
        #: The statistics of this core's run (empty until it has run).
        self.stats = SimStats()
        self._ran = False

        self.hierarchy = build_hierarchy(config.memory)
        #: The non-blocking hierarchy when one is being modelled, else None
        #: (blocking model *and* the mshr_entries=1 degenerate mode, which
        #: is bit-identical to it).  Gates the MSHR integration: the
        #: issue-stage structural stall and the fill-timed load path.
        self._mlp_hier = self.hierarchy \
            if isinstance(self.hierarchy, NonBlockingHierarchy) \
            and self.hierarchy.nonblocking else None
        self.memory = MemoryImage()
        self.branch_unit = BranchUnit(config.branch_predictor)
        self.store_queue = StoreQueue(config.store_queue_size)
        self.ssn_alloc = SSNAllocator(bits=config.ssn_bits)
        # Instructions retired into this core's state: 0 for a fresh core,
        # the imported state's count after import_state, plus every
        # instruction the run commits.
        self._instructions_warmed = 0

    # ---------------------------------------------------------- state import --

    def import_state(self, state) -> None:
        """Adopt functionally warmed machine state before a detailed run.

        ``state`` is a :class:`~repro.sampling.functional.FunctionalState`:
        its branch unit, memory hierarchy, memory image, SSN counters and
        policy replace this core's freshly constructed ones.  All are
        adopted, not copied, so the core goes on to mutate the state it was
        handed.  No last-writer map is adopted: every writer in the state
        has committed before the run, which the core treats exactly as no
        writer (:mod:`repro.pipeline.commit_facts`).
        Statistics *counters* on the imported components are reset so a
        subsequent run reports only its own activity; the predictive/tag
        state itself stays warm.  The state's ``instructions_warmed`` is
        kept: :meth:`export_state` adds the run's commits to it.
        """
        from repro.lsu.policies import PolicyStats
        from repro.core.svw import SVWStats

        self.hierarchy = state.hierarchy
        self._mlp_hier = self.hierarchy \
            if isinstance(self.hierarchy, NonBlockingHierarchy) \
            and self.hierarchy.nonblocking else None
        self.memory = state.memory
        self.branch_unit = state.branch_unit
        self.ssn_alloc = state.ssn_alloc
        self.policy = state.policy
        self._instructions_warmed = state.instructions_warmed
        self.hierarchy.reset_stats()
        self.branch_unit.reset_stats()
        self.policy.stats = PolicyStats()
        self.policy.svw.stats = SVWStats()

    def export_state(self):
        """Export the core's long-lived state, symmetric to :meth:`import_state`.

        Returns a :class:`~repro.sampling.functional.FunctionalState` bundling
        the live branch unit, memory hierarchy, memory image and policy and
        the SSN counters — everything a subsequent :meth:`import_state` (on
        this or another core) adopts.  Serialising the bundle (the
        checkpoint store pickles it) freezes a copy.

        The in-flight window (the ROB, issue queue and load queue, store
        queue contents, pending completions) lives only inside a run and is
        not exported: the bundle continues on a fresh core, since a core
        runs once (:meth:`run`).  The state is the one as of the run's last
        commit, so a run stopped by ``stats_measure_instructions`` with
        stores in flight continues exactly: a new core that imports the
        bundle and runs the rest of the trace (from the first uncommitted
        instruction) ends as one uninterrupted run would.  The exported
        SSN counters are a copy whose ``ssn_rename`` is back at
        ``ssn_commit`` (the in-flight stores rename again on the new core).
        The bundle hands on no last-writer map: every store in the state
        has committed.
        ``instructions_warmed`` counts every instruction retired into the
        state: the start state's count (0 for a fresh core) plus every
        instruction the run committed, its statistics warm-up included.
        """
        from repro.sampling.functional import FunctionalState

        return FunctionalState(
            config=self.config,
            branch_unit=self.branch_unit,
            hierarchy=self.hierarchy,
            memory=self.memory,
            ssn_alloc=replace(self.ssn_alloc,
                              ssn_rename=self.ssn_alloc.ssn_commit),
            policy=self.policy,
            instructions_warmed=self._instructions_warmed,
        )

    # ------------------------------------------------------------------ run --

    def run(self, trace, warm_memory: bool = True,
            stats_warmup_fraction: float = 0.0,
            stats_warmup_instructions: Optional[int] = None,
            stats_measure_instructions: Optional[int] = None,
            commit_facts: Optional[CommitFacts] = None) -> SimulationResult:
        """Simulate ``trace`` to completion and return the result.

        A core runs once: every run starts from an empty window at cycle 0,
        and a second call raises :class:`RuntimeError` (the caches,
        predictors and their statistics would carry the first run into
        it).  To continue from where a run left off, hand its long-lived
        state to a new core with :meth:`export_state` and
        :meth:`import_state`.  A call rejected for its arguments leaves the
        core unused.

        ``trace`` is an :class:`~repro.isa.plane.EncodedOps` stream or any
        iterable of micro-ops, which is encoded once on entry, so every
        input form runs the same loop.  The result is named after
        ``trace.name`` (``"trace"`` for a nameless input).

        ``stats_warmup_fraction`` discards the statistics accumulated over the
        first fraction of committed instructions (while keeping all
        microarchitectural state: caches, predictors, branch history), the
        same role the paper's 8% warm-up plays for its samples.  The reported
        ``cycles`` likewise cover only the measured region.

        ``stats_warmup_instructions`` is the exact-count form of the same
        knob (used by the sampling subsystem, whose detailed warm-up is
        specified in instructions); it overrides the fraction when given.

        ``stats_measure_instructions`` stops the simulation once that many
        *post-warm-up* instructions have committed, leaving younger
        instructions in flight.  Interval sampling uses this so a measured
        region ends mid-steady-state (window still full) instead of
        charging the interval for the pipeline drain that a full run would
        have overlapped with subsequent instructions.

        Every load's answers at commit — its committed value, the SVW's
        youngest committed writer and its true producer store — depend only
        on the trace and the state the run starts from
        (:mod:`repro.pipeline.commit_facts`).  ``commit_facts`` hands them
        in precomputed from exactly this core's start state (the sampling
        driver shares one computation across the configurations of an
        interval); without it the core computes them, and from a fresh
        start it reuses those the trace already holds.
        """
        if not 0.0 <= stats_warmup_fraction < 1.0:
            raise ValueError("stats_warmup_fraction must be in [0, 1)")
        name = getattr(trace, "name", "") or "trace"
        encoded = as_encoded(trace)
        total = len(encoded)
        if stats_warmup_instructions is not None:
            if not 0 <= stats_warmup_instructions < max(total, 1):
                raise ValueError(
                    "stats_warmup_instructions must be in [0, len(trace))")
            warmup_committed = stats_warmup_instructions
        else:
            warmup_committed = int(total * stats_warmup_fraction)
        stop_committed = total
        if stats_measure_instructions is not None:
            if stats_measure_instructions <= 0:
                raise ValueError("stats_measure_instructions must be positive")
            stop_committed = min(total,
                                 warmup_committed + stats_measure_instructions)
        if self._ran:
            raise RuntimeError(
                "this core has already run; continue on a new core with "
                "export_state() and import_state()")
        self._ran = True
        if warm_memory:
            self._warm_caches(encoded)
        if commit_facts is None:
            commit_facts = facts_for_run(encoded, self.memory,
                                         self.policy.svw,
                                         self.ssn_alloc.ssn_rename)

        stats, rob_max_occupancy, committed = run_core_loop(
            self, encoded, commit_facts, warmup_committed, stop_committed)
        self.stats = stats
        self._instructions_warmed += committed
        extra = {
            "branch_misprediction_rate": self.branch_unit.misprediction_rate,
            "svw_reexecution_rate": self.policy.svw.stats.reexecution_rate,
            "l1_miss_rate": self.hierarchy.stats.l1_miss_rate(),
            "rob_max_occupancy": float(rob_max_occupancy),
        }
        if stats.mshr_modeled:
            extra["mlp_avg"] = stats.mlp_avg
            extra["mshr_occupancy"] = float(stats.mshr_occupancy)
        return SimulationResult(workload=name, policy=self.policy.name,
                                stats=stats, config=self.config, extra=extra)

    def _warm_caches(self, encoded: EncodedOps) -> None:
        """Pre-touch the lines referenced by the first portion of the trace.

        The paper warms caches/predictors for 8% of each sample; touching the
        first few thousand accesses approximates starting from a warm state
        without perturbing the timing statistics.

        From empty caches, the lines this leaves in L1 and L2 (LRU order
        included) depend only on the trace's first
        :data:`WARM_INSTRUCTIONS` memory accesses and the two cache
        geometries, so the first fresh core keeps a copy on the trace
        (:attr:`~repro.isa.plane.EncodedOps.warm_lines`, keyed by the L1
        and L2 configs and the warmed length) and every later fresh core of
        the same geometry copies it in instead of touching the lines.
        Caches that already hold lines (an imported state) are touched as
        always.  Warming counts no access either way."""
        hierarchy = self.hierarchy
        caches = (hierarchy.l1, hierarchy.l2)
        sidx = encoded.sidx
        length = min(len(sidx), WARM_INSTRUCTIONS)
        fresh = not any(cache._sets for cache in caches)
        if fresh:
            key = (caches[0].config, caches[1].config, length)
            lines = encoded.warm_lines.get(key)
            if lines is not None:
                for cache, sets in zip(caches, lines):
                    cache._sets = _copy_sets(sets)
                return
        warm = hierarchy.warm
        kind = encoded.plane.kind
        addr = encoded.addr
        for i in range(length):
            if kind[sidx[i]] >= KIND_LOAD:   # loads and stores carry mem
                warm(addr[i])
        if fresh:
            encoded.warm_lines[key] = tuple(_copy_sets(cache._sets)
                                            for cache in caches)
