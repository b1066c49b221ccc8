"""Suite composer: profiles -> dynamic traces.

Given a :class:`~repro.workloads.profiles.WorkloadProfile`, the composer
instantiates the kernel mix implied by the profile's knobs and interleaves
kernel iterations until the requested dynamic instruction budget is reached.
The mix is solved so that the fraction of loads that forward approximates
the profile's ``forward_rate`` (calibrated to Table 3 of the paper).

Traces are defined **segment-wise** so that paper-scale (10M-instruction)
traces support random access without being materialised: a trace of length
``N`` is the concatenation of independently composed segments of
``TRACE_SEGMENT_UOPS`` micro-ops each.  Segment ``i`` is composed with a
seed derived from ``(seed, i)`` against the *same static program* (static
PCs and data regions are allocated deterministically by the profile, so
every segment reuses the same static instructions — like successive phases
of one looping program), which keeps PC-indexed predictor state meaningful
across segment boundaries.  ``build_workload_window`` composes only the
segments overlapping a requested ``[start, stop)`` window; the statistical
sampling subsystem (:mod:`repro.sampling`) is built on it.  Traces that fit
in a single segment are bit-identical to the old single-compose definition,
because composition is prefix-stable: ``compose(n)`` is a prefix of
``compose(m)`` for ``n <= m``.  Longer traces — including the 40k
``DEFAULT_INSTRUCTIONS`` — change content at the first segment boundary;
the result cache invalidates itself through the workload source
fingerprint, and no test or benchmark pins multi-segment trace content.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.plane import EncodedOps
from repro.workloads.kernels import (
    AccumulateKernel,
    BranchyKernel,
    FPStencilKernel,
    GlobalRMWKernel,
    ManyStoreDepKernel,
    NotMostRecentKernel,
    PointerChaseKernel,
    StackSpillKernel,
    StreamCopyKernel,
    WideNarrowKernel,
)
from repro.workloads.profiles import (
    MEDIA, INT, FP,
    PROFILES,
    SENSITIVITY_BENCHMARKS,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.program import Kernel, ProgramBuilder

#: Suites in presentation order (matches Table 3 / Figure 4).
ALL_SUITES: Tuple[str, ...] = (MEDIA, INT, FP)

#: Default dynamic-instruction budget per workload used by the benchmarks.
DEFAULT_INSTRUCTIONS = 40_000

#: Length of one independently composed trace segment.  Traces up to this
#: length are a single segment, identical to the pre-segmentation scheme
#: (covers every existing test and the 8k benchmark default); longer traces
#: (e.g. the 40k ``DEFAULT_INSTRUCTIONS``) change content at segment
#: boundaries.  The value balances segment amortisation against
#: random-access cost: a sampling interval window pays for composing its
#: segments from their starts, so smaller segments make interval jobs
#: cheaper.
TRACE_SEGMENT_UOPS = 16_384


@dataclass
class _WeightedKernel:
    kernel: Kernel
    weight: float


class WorkloadComposer:
    """Builds the kernel mix for one profile and emits the trace."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        self.profile = profile
        self.builder = ProgramBuilder(profile.name, seed=seed)
        self._rng = random.Random(seed ^ 0xC0FFEE)
        self._forwarding_pool = self._build_forwarding_pool()
        self._background_pool = self._build_background_pool()
        self._branchy = BranchyKernel(self.builder, taken_prob=profile.branch_taken_prob)
        self._forward_prob = self._solve_forwarding_probability()

    # -- kernel pools -----------------------------------------------------------

    def _build_forwarding_pool(self) -> List[_WeightedKernel]:
        profile = self.profile
        builder = self.builder
        pool: List[_WeightedKernel] = []
        if profile.forward_rate <= 0.0:
            return pool

        special = profile.not_most_recent + profile.fsp_pressure + profile.wide_narrow
        base = max(0.0, 1.0 - special)
        # Split the plain (FSP-friendly) share between stack spills and
        # global read-modify-writes.
        if base > 0.0:
            pool.append(_WeightedKernel(
                StackSpillKernel(builder, slots=profile.stack_slots), base * 0.6))
            pool.append(_WeightedKernel(
                GlobalRMWKernel(builder, n_globals=profile.forwarding_distance), base * 0.4))
        if profile.not_most_recent > 0.0:
            pool.append(_WeightedKernel(
                NotMostRecentKernel(builder, lag=2), profile.not_most_recent))
        if profile.fsp_pressure > 0.0:
            pool.append(_WeightedKernel(
                ManyStoreDepKernel(builder, n_stores=6), profile.fsp_pressure))
        if profile.wide_narrow > 0.0:
            pool.append(_WeightedKernel(WideNarrowKernel(builder), profile.wide_narrow))
        return pool

    def _build_background_pool(self) -> List[_WeightedKernel]:
        profile = self.profile
        builder = self.builder
        working_set = profile.working_set_kb * 1024
        pool: List[_WeightedKernel] = []
        remaining = max(0.0, 1.0 - profile.pointer_chase - profile.fp_fraction)
        pool.append(_WeightedKernel(
            StreamCopyKernel(builder, working_set_bytes=working_set), remaining * 0.5))
        pool.append(_WeightedKernel(
            AccumulateKernel(builder, working_set_bytes=working_set // 2), remaining * 0.5))
        if profile.fp_fraction > 0.0:
            pool.append(_WeightedKernel(
                FPStencilKernel(builder, working_set_bytes=working_set), profile.fp_fraction))
        if profile.pointer_chase > 0.0:
            nodes = max(64, working_set // 64)
            pool.append(_WeightedKernel(
                PointerChaseKernel(builder, nodes=nodes, chains=profile.pointer_chains),
                profile.pointer_chase))
        return pool

    # -- mix solving ------------------------------------------------------------

    @staticmethod
    def _pool_load_rates(pool: Sequence[_WeightedKernel]) -> Tuple[float, float]:
        """Weighted (loads/iteration, forwarding loads/iteration) of a pool."""
        total_weight = sum(item.weight for item in pool)
        if total_weight <= 0.0:
            return 0.0, 0.0
        loads = sum(item.weight * item.kernel.loads_per_iteration for item in pool) / total_weight
        fwd = sum(item.weight * item.kernel.forwarding_loads_per_iteration
                  for item in pool) / total_weight
        return loads, fwd

    def _solve_forwarding_probability(self) -> float:
        """Probability of picking a forwarding-kernel iteration so the
        load-weighted forwarding fraction matches the profile target."""
        target = self.profile.forward_rate
        if target <= 0.0 or not self._forwarding_pool:
            return 0.0
        fwd_loads, fwd_forwarding = self._pool_load_rates(self._forwarding_pool)
        bg_loads, _ = self._pool_load_rates(self._background_pool)
        if fwd_forwarding <= 0.0:
            return 0.0
        # target = q*Ff / (q*Lf + (1-q)*Ln)  =>  q = t*Ln / (Ff - t*Lf + t*Ln)
        denom = fwd_forwarding - target * fwd_loads + target * bg_loads
        if denom <= 0.0:
            return 1.0
        return min(1.0, max(0.0, target * bg_loads / denom))

    # -- composition ------------------------------------------------------------

    def _pick(self, pool: Sequence[_WeightedKernel]) -> Kernel:
        weights = [item.weight for item in pool]
        choice = self._rng.choices(pool, weights=weights, k=1)[0]
        return choice.kernel

    def compose(self, instructions: int) -> EncodedOps:
        """Emit kernel iterations until at least ``instructions`` micro-ops."""
        if instructions <= 0:
            raise ValueError("instruction budget must be positive")
        profile = self.profile
        while len(self.builder) < instructions:
            if self._forwarding_pool and self._rng.random() < self._forward_prob:
                self._pick(self._forwarding_pool).emit()
            elif self._background_pool:
                self._pick(self._background_pool).emit()
            if profile.branchy > 0.0 and self._rng.random() < profile.branchy:
                self._branchy.emit()
        return self.builder.finish().truncated(instructions)


# ---------------------------------------------------------------------------
# Segmented composition
# ---------------------------------------------------------------------------

def _segment_seed(seed: int, index: int) -> int:
    """Deterministic per-segment seed; segment 0 keeps the user's seed so
    single-segment traces are bit-identical to the unsegmented scheme."""
    if index == 0:
        return seed
    return (seed ^ (0x9E3779B97F4A7C15 * index)) & 0x7FFF_FFFF_FFFF_FFFF


#: Per-process segment memo: (name, seed, segment index, length) ->
#: :class:`~repro.isa.plane.EncodedOps`.  Sampling jobs for the same
#: workload (across configurations) re-touch the same segments; memoising
#: them keeps window regeneration cheap.
_SEGMENT_CACHE: Dict[Tuple[str, int, int, int], EncodedOps] = {}
_SEGMENT_CACHE_LIMIT = 12


def _segment_disk_store():
    """The on-disk segment memo (None when checkpointing is disabled).

    Composed segments are expensive relative to unpickling, and sampling
    jobs across processes, configurations, and runs re-touch the same
    segments; the checkpoint store memoises them content-addressed (keyed
    over the workload-source fingerprint, so edits invalidate).  Imported
    lazily: the workloads package must not depend on the sampling package
    at import time.
    """
    from repro.sampling.checkpoints import segment_store

    return segment_store()


def _compose_segment(name: str, seed: int, index: int, length: int,
                     disk_memo: bool = False) -> EncodedOps:
    """Compose (and memoise) segment ``index`` of a workload, truncated to
    ``length`` micro-ops (composition is prefix-stable, so a shorter final
    segment equals the prefix of the full segment).

    Segments are encoded (:class:`~repro.isa.plane.EncodedOps`): the static
    plane is shared process-wide per workload, and a segment unpickled from
    the disk memo is re-interned onto that shared plane so every cached
    segment concatenates without remapping.
    """
    from repro.workloads.program import plane_for

    key = (name, seed, index, length)
    uops = _SEGMENT_CACHE.get(key)
    if uops is None:
        store = _segment_disk_store() if disk_memo else None
        disk_key = None
        if store is not None:
            from repro.sampling.checkpoints import segment_key

            disk_key = segment_key(name, seed, index, length)
            uops = store.get(disk_key)
            if uops is not None:
                uops = uops.rebase(plane_for(name))
        if uops is None:
            profile = get_profile(name)
            composer = WorkloadComposer(profile, seed=_segment_seed(seed, index))
            uops = composer.compose(length)
            if store is not None:
                store.put(disk_key, uops)
        while len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_LIMIT:
            _SEGMENT_CACHE.pop(next(iter(_SEGMENT_CACHE)))
        _SEGMENT_CACHE[key] = uops
    return uops


def build_workload_window(name: str, instructions: int, seed: int,
                          start: int, stop: int,
                          disk_memo: bool = False) -> EncodedOps:
    """Micro-ops ``[start, stop)`` of the workload's trace, composing only
    the segments that overlap the window.

    Equivalent to ``build_workload(name, instructions, seed)[start:stop]``
    but with cost proportional to the window's segment span rather than to
    ``instructions``; this is what lets interval-sampling jobs regenerate
    their slice of a 10M-instruction trace without materialising it.  The
    window is returned in encoded form (:class:`~repro.isa.plane.EncodedOps`
    over the workload's shared static plane); callers must not mutate it —
    a window covered by exactly one whole segment aliases the per-process
    segment memo.

    ``disk_memo=True`` additionally memoises the touched segments in the
    checkpoint store (when ``REPRO_CHECKPOINTS`` enables it) — an explicit
    opt-in for callers that re-read the same segments across processes or
    runs (checkpoint generation's stitched chunk jobs and their
    compose-ahead; encoded segments unpickle cheaper than they recompose).
    It stays off by default: a library call must not write stores into the
    caller's working directory as a side effect, and one-shot windows cost
    more to write through than the memo can repay — checkpointed interval
    jobs use the store's per-interval *window* memo instead
    (:func:`repro.sampling.checkpoints.window_key`), which is what removed
    the window-regeneration hot loop.
    """
    from repro.workloads.program import plane_for

    if not 0 <= start <= stop <= instructions:
        raise ValueError(f"window [{start}, {stop}) outside trace [0, {instructions})")
    segment = TRACE_SEGMENT_UOPS
    window: Optional[EncodedOps] = None
    for index in range(start // segment, (max(stop - 1, start)) // segment + 1):
        seg_base = index * segment
        seg_len = min(segment, instructions - seg_base)
        if seg_len <= 0:
            break
        seg_uops = _compose_segment(name, seed, index, seg_len,
                                    disk_memo=disk_memo)
        lo = max(start - seg_base, 0)
        hi = min(stop - seg_base, seg_len)
        if hi <= lo:
            continue
        if window is None and (lo, hi) == (0, seg_len) and stop <= seg_base + seg_len:
            # Whole-segment single-span window: alias the memoised segment.
            return seg_uops
        if window is None:
            window = EncodedOps(plane_for(name), name=name)
        window.extend(seg_uops if (lo, hi) == (0, seg_len)
                      else seg_uops.slice(lo, hi))
    if window is None:
        window = EncodedOps(plane_for(name), name=name)
    return window


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def workload_names(suite: Optional[str] = None) -> List[str]:
    """Names of all proxy workloads, optionally restricted to one suite."""
    if suite is None:
        return [profile.name for profile in PROFILES]
    return [profile.name for profile in PROFILES if profile.suite == suite]


def sensitivity_workloads() -> List[str]:
    """The nine benchmarks used by the Figure 5 sensitivity study."""
    return list(SENSITIVITY_BENCHMARKS)


def build_workload(name: str, instructions: int = DEFAULT_INSTRUCTIONS,
                   seed: int = 1) -> EncodedOps:
    """Build the proxy trace for one named benchmark (encoded form).

    The trace is the concatenation of its ``TRACE_SEGMENT_UOPS``-long
    segments (see the module docstring); traces that fit in one segment are
    bit-identical to a direct single compose.  The returned
    :class:`~repro.isa.plane.EncodedOps` supports the old
    :class:`~repro.isa.trace.DynamicTrace` reading surface (``len``,
    iteration/indexing as micro-op views, ``.stats``, ``.uops``) and is what
    the detailed core's run loop consumes directly.
    """
    if instructions <= 0:
        raise ValueError("instruction budget must be positive")
    # Full-trace materialisation streams every segment exactly once; bypass
    # the disk segment memo so full-detail runs don't flood the checkpoint
    # store with segments only sampling windows ever re-read.
    return build_workload_window(name, instructions, seed, 0, instructions,
                                 disk_memo=False).with_name(name)


def build_suite(suite: str, instructions: int = DEFAULT_INSTRUCTIONS,
                seed: int = 1) -> Dict[str, EncodedOps]:
    """Build every workload in a suite; returns name -> trace."""
    return {name: build_workload(name, instructions=instructions, seed=seed)
            for name in workload_names(suite)}
