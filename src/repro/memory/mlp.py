"""Non-blocking memory hierarchy: MSHR-tracked misses, lazy fills, prefetch.

:class:`NonBlockingHierarchy` extends the blocking
:class:`~repro.memory.hierarchy.MemoryHierarchy` with memory-level
parallelism: a demand load that misses L1 allocates an entry in a bounded
:class:`~repro.memory.mshr.MSHRFile` and completes at a deterministic fill
cycle; a second miss to the same line *coalesces* onto the in-flight entry
(no new entry, no new memory request); and when the file is full the load
must structurally stall in the issue stage
(:meth:`NonBlockingHierarchy.load_would_block`).  Lines are installed into
the caches when their fill lands — lazily, at the next access or stall
probe on or after the fill cycle — not at miss time, so cache contents
evolve exactly as the fill timeline dictates while needing no event queue
of their own.

Two deliberate contracts:

* **Degeneracy anchor.** ``mshr_entries == 1`` *is* the blocking model:
  :meth:`load_access` delegates to the inherited scalar-latency path, so
  the degenerate configuration is bit-identical to
  :class:`~repro.memory.hierarchy.MemoryHierarchy` by construction (and
  golden-tested end to end).  Note the direction this implies for sweeps:
  the blocking model charges each miss its full latency but lets the
  *core* overlap any number of such loads — it is MLP-optimistic — so a
  bounded MSHR file can only add structural stalls, and more entries move
  CPI back *toward* the blocking anchor.
* **Stores stay blocking.** Store commits retire into a write buffer off
  the critical path (see ``store_touch``); modelling store misses in the
  MSHR file would only consume entries that demand loads need, so only
  demand loads and prefetches allocate.

The stride prefetcher (:class:`~repro.memory.mshr.StridePrefetcher`)
trains on demand loads and allocates *prefetch* MSHR entries subject to
three guards — it never claims the file's last free entry, never exceeds
its outstanding budget, and never duplicates a resident or in-flight line —
and its traffic is kept out of the demand counters entirely: prefetch
probes use non-counting lookups, and usefulness is scored when a demand
access hits a prefetched line (or coalesces onto an in-flight prefetch).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace
from typing import Optional, Set

from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.memory.mshr import MLPStats, MSHRFile, StridePrefetcher


def build_hierarchy(config: Optional[MemoryHierarchyConfig] = None) -> MemoryHierarchy:
    """The hierarchy ``config`` asks for: blocking by default, non-blocking
    when ``config.mlp.enabled`` — the single construction point used by the
    detailed core and the functional warmer."""
    config = config or MemoryHierarchyConfig()
    if config.mlp.enabled:
        return NonBlockingHierarchy(config)
    return MemoryHierarchy(config)


class NonBlockingHierarchy(MemoryHierarchy):
    """MSHR-based non-blocking extension of the blocking hierarchy.

    The blocking interface (``load_latency``, ``store_touch``, ``warm``) is
    inherited unchanged — the functional warmer replays through it in
    program order, which leaves the MSHR file empty by design (warming has
    no clock to schedule fills against).  The detailed core calls
    :meth:`load_access` / :meth:`load_would_block` instead.
    """

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        super().__init__(config)
        mlp = self.config.mlp
        self.mlp_config = mlp
        #: True outside the mshr_entries==1 degenerate mode; the core keys
        #: its MSHR integration (issue-stage gate, MLP counters) off this.
        self.nonblocking = mlp.mshr_entries > 1
        self.mshr = MSHRFile(mlp.mshr_entries, line_bytes=self.config.l1.line_bytes)
        self.prefetcher = (StridePrefetcher(mlp.prefetch)
                           if mlp.prefetch.enabled else None)
        self.mlp_stats = MLPStats()
        #: Lines installed by a prefetch and not yet touched by demand.
        self._prefetched: Set[int] = set()

    # ------------------------------------------------------------- demand --

    def load_access(self, addr: int, now: int, pc: int = 0) -> int:
        """Latency of a demand load issued at cycle ``now``.

        Returns the load-to-use latency exactly as the blocking model would
        (hit latency, or miss latency derived from the fill cycle), after
        retiring any fills due by ``now``.  The caller is expected to have
        held the load while :meth:`load_would_block` was true, so a primary
        miss here always finds a free entry.
        """
        if not self.nonblocking:
            # Degeneracy anchor: one MSHR admits no overlap, so the
            # inherited blocking path *is* the model (bit-identical).
            return MemoryHierarchy.load_latency(self, addr)
        stats = self.stats
        stats.load_accesses += 1
        config = self.config
        latency = config.l1.latency
        if config.model_tlb:
            tlb_cache = self.tlb._cache
            page = addr >> tlb_cache._line_shift
            ways = tlb_cache._sets.get(page & tlb_cache._set_mask)
            if ways and ways[0] == page:
                tlb_stats = tlb_cache.stats
                tlb_stats.accesses += 1
                tlb_stats.hits += 1
            elif not tlb_cache.access(addr):
                stats.tlb_misses += 1
                latency += config.tlb.miss_penalty
        self._retire_due(now)
        l1 = self.l1
        line = addr >> l1._line_shift
        if l1.probe(addr):
            prefetched = self._prefetched
            if prefetched and line in prefetched:
                prefetched.discard(line)
                self.mlp_stats.prefetch_useful += 1
            self._train_prefetcher(pc, addr, now)
            return latency
        stats.l1_misses += 1
        mshr = self.mshr
        mstats = self.mlp_stats
        entry = mshr.match(addr)
        if entry is not None:
            # Secondary miss: coalesce onto the in-flight fill.  A demand
            # landing on a prefetch entry proves the prefetch useful.
            was_prefetch = entry.is_prefetch
            mshr.coalesce(entry, addr)
            mstats.misses_coalesced += 1
            if was_prefetch:
                mstats.prefetch_useful += 1
                self._prefetched.discard(line)
            self._train_prefetcher(pc, addr, now)
            return max(1, entry.fill_cycle - now)
        # Primary miss: probe L2 and allocate the fill.
        latency += config.l2.latency
        if self.mlp_config.l2_enabled:
            l2_hit = self.l2.probe(addr)
        else:
            l2_hit = self.l2.access(addr)     # blocking L2: install at miss
        install_l2 = False
        if not l2_hit:
            stats.l2_misses += 1
            latency += config.memory_latency
            install_l2 = self.mlp_config.l2_enabled
        entry = mshr.alloc(addr, now + latency, install_l2=install_l2)
        if entry is None:
            # The issue stage gates on load_would_block, so a full file here
            # means the caller bypassed the gate; fall back to blocking
            # semantics (charge the latency, install immediately) rather
            # than corrupting the CAM.
            self.l1.touch_line(addr)
            if install_l2:
                self.l2.touch_line(addr)
            return latency
        mstats.demand_misses += 1
        mstats.inflight_sum += mshr.demand_inflight
        occupancy = mshr.occupancy
        if occupancy > mstats.occupancy_peak:
            mstats.occupancy_peak = occupancy
        self._train_prefetcher(pc, addr, now)
        return latency

    def load_would_block(self, addr: int, now: int) -> bool:
        """True when a load to ``addr`` cannot issue at ``now``: the line is
        neither resident nor in flight and the MSHR file is full.

        Retires due fills first, so a stalled load un-blocks on exactly the
        cycle an entry frees — the structural stall's deterministic "fill
        event".  Uses non-counting probes only: a stalled cycle must not
        perturb any statistic.
        """
        if not self.nonblocking:
            return False
        mshr = self.mshr
        if not mshr.full:
            return False
        self._retire_due(now)
        if not mshr.full:
            return False
        return not (self.l1.lookup(addr) or mshr.match(addr) is not None)

    # ------------------------------------------------------------ internals --

    def _retire_due(self, now: int) -> None:
        """Install every fill that has landed by ``now`` into the caches."""
        mshr = self.mshr
        if not mshr.occupancy:
            return
        line_bytes = self.config.l1.line_bytes
        for entry in mshr.retire_due(now):
            addr = entry.line * line_bytes
            self.l1.touch_line(addr)
            if entry.install_l2:
                self.l2.touch_line(addr)
            if entry.is_prefetch:
                self._prefetched.add(entry.line)

    def _train_prefetcher(self, pc: int, addr: int, now: int) -> None:
        prefetcher = self.prefetcher
        if prefetcher is None:
            return
        targets = prefetcher.observe(pc, addr)
        if not targets:
            return
        mshr = self.mshr
        mlp = self.mlp_config
        mstats = self.mlp_stats
        for target in targets:
            if target < 0:
                continue
            if mshr.prefetch_inflight >= mlp.prefetch.max_outstanding:
                break
            if mshr.free_entries <= 1:        # never claim the last entry
                break
            if self.l1.lookup(target) or mshr.match(target) is not None:
                continue
            # Non-counting L2 residency probe: prefetch traffic must not
            # pollute demand hit/miss statistics.
            latency = self.config.l1.latency + self.config.l2.latency
            l2_resident = mlp.l2_enabled and self.l2.lookup(target)
            install_l2 = False
            if not l2_resident:
                latency += self.config.memory_latency
                install_l2 = mlp.l2_enabled
            entry = mshr.alloc(target, now + latency, is_prefetch=True,
                               install_l2=install_l2)
            if entry is None:
                break
            mstats.prefetch_issued += 1
            occupancy = mshr.occupancy
            if occupancy > mstats.occupancy_peak:
                mstats.occupancy_peak = occupancy

    # ----------------------------------------------------------- state I/O --

    def drain(self, now: Optional[int] = None) -> None:
        """Complete every outstanding fill (for tests / explicit handoffs).

        Installs the lines as if their fills had landed; ``now`` is ignored
        beyond documentation (all entries are treated as due).
        """
        line_bytes = self.config.l1.line_bytes
        slots = [entry for entry in self.mshr._slots if entry is not None]
        slots.sort(key=lambda entry: (entry.fill_cycle, entry.index))
        for entry in slots:
            self.mshr.retire(entry.index)
            addr = entry.line * line_bytes
            self.l1.touch_line(addr)
            if entry.install_l2:
                self.l2.touch_line(addr)
            if entry.is_prefetch:
                self._prefetched.add(entry.line)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.mlp_stats = MLPStats()

    def copy(self) -> "NonBlockingHierarchy":
        """An exact copy (the blocking hierarchy's state plus the MSHR file,
        the prefetcher table and the prefetched lines) that shares no
        mutable state with this hierarchy."""
        clone = super().copy()
        clone.mlp_config = self.mlp_config
        clone.nonblocking = self.nonblocking
        # Small structures; one deep copy keeps the MSHR file's slot and
        # line maps pointing at the same entries.
        clone.mshr, clone.prefetcher = deepcopy((self.mshr, self.prefetcher))
        clone.mlp_stats = replace(self.mlp_stats)
        clone._prefetched = set(self._prefetched)
        return clone

    def state_signature(self) -> tuple:
        signature = super().state_signature()
        return signature + (
            self.mshr.state_signature(),
            self.prefetcher.state_signature() if self.prefetcher is not None else (),
            tuple(sorted(self._prefetched)),
        )
