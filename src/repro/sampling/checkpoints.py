"""Checkpointed functional warming: one O(N) pass per workload, shared on disk.

Bounded functional warming (PR 2) keeps sampled runs ``O(sampled)`` but
cannot reproduce machine history older than its horizon, which leaves a
recorded lukewarm CPI bias on cache-heavy workloads at paper-scale counts.
This module removes that bias at amortised cost: a **single full-trace
functional pass per workload** serialises the warmed machine state at every
interval start into a content-addressed on-disk **checkpoint store**, and
every interval job of every configuration in a sweep then *loads* its
snapshot (via :meth:`~repro.pipeline.core.OutOfOrderCore.import_state`)
instead of re-warming.  Because snapshots carry full history, the remaining
error is detailed-warmup-only — the faithful SMARTS configuration — while
the O(N) replay is paid once per workload rather than once per
``(configuration, interval)``.

Storage layout (one pickle per entry, exactly like the result cache):

* **shared snapshots** — branch predictor/BTB/RAS, caches/TLB, memory
  image, SSN counters, and the oracle last-writer map are identical for
  every store-queue configuration, so they are stored once per
  ``(workload, plan, core config, interval)``.
* **policy snapshots** — the per-configuration predictor state (SVW tables,
  FSP/SAT, store sets, DDP) is stored per ``(configuration, sq_size,
  predictor overrides)`` on top of the shared key.  One
  :class:`~repro.sampling.functional.FunctionalWarmer` pass warms *all*
  missing configurations simultaneously (the shared structures update once
  per micro-op).
* **trace windows** — the same store memoises each interval's composed
  detailed-window micro-ops (written during the generation pass, tiny next
  to the segments they straddle), so checkpointed interval jobs stop
  re-emitting trace content entirely.  Windows and segments are stored in
  encoded two-plane form (:class:`~repro.isa.plane.EncodedOps`, schema v2):
  flat arrays that unpickle far cheaper than they recompose, which is what
  lets sharded generation share whole composed chunks through the segment
  memo (``build_workload_window(..., disk_memo=True)`` in
  :mod:`repro.workloads.suites`).

Keys cover the trace identity, the sampling plan, the core configuration,
and SHA-256 fingerprints of the workload-generator and simulator sources —
editing a simulator source or changing the plan invalidates every snapshot
automatically, so restoring a stale store (e.g. from a CI cache) is always
safe.  Corrupt or truncated snapshot files are repaired in place: the
affected interval recomputes the exact same full-history state in-process
(never a silently-lukewarm result, never a crash).

**Sharded generation** (PR 4): the O(N) generation pass itself is
decomposed into a grid of pool-sized **shard jobs** — contiguous
segment-aligned trace *chunks* crossed with *policy groups* — and stitched
back together through **boundary snapshots**:

* a *policy group* warms a subset of a sweep's configurations through its
  own full replay (policies are independent folds over the shared replay
  stream, so per-group passes are bit-identical to the one multi-policy
  pass; the group carrying ``write_shared`` also emits the shared
  snapshots and window memos);
* a *chunk* job resumes a group's replay from the previous chunk's
  exported :class:`BoundaryState` (stitch handoff through the store) and
  emits the snapshots of the intervals whose detailed-warmup start falls
  inside its chunk.  Because functional warming is a deterministic fold,
  the stitched snapshots are **bit-identical** to the single-pass ones
  (validated at handoff, unit- and CI-tested end to end);
* jobs are fanned out **chunk-major** over the engine pool: a worker whose
  boundary has not arrived yet *precomposes its chunk's trace segments*
  while it waits, which moves composition — the largest share of the pass
  — off the sequential stitch chain.  A handoff that never arrives (or
  arrives damaged) falls back to an exact in-process prefix recompute:
  slower, never wrong.

Environment knobs::

    REPRO_CHECKPOINTS=0         # disable (sampled runs fall back to bounded
                                # functional warming, the PR 2 behaviour)
    REPRO_CHECKPOINT_DIR=...    # store location, default .repro-checkpoints/
                                # (safe to delete at any time)
    REPRO_CHECKPOINT_SHARDS=K   # trace chunks per generation chain
                                # (<= 0 or unset: sized from the worker
                                # count; 1 disables trace sharding)

``ExperimentSettings.checkpoints`` / ``ExperimentSettings.checkpoint_shards``
override the environment per run (``None`` means "follow the environment").
"""

from __future__ import annotations

import json
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exec import fingerprint as _fingerprint
from repro.exec.cache import ResultCache, _canonical
from repro.exec.resilience import _env_bool, _env_int
from repro.memory.last_writer import LastWriterMap, per_byte
from repro.sampling.functional import FunctionalState, FunctionalWarmer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings

#: Bumped when the snapshot payload layout changes incompatibly.
#: v2: trace windows and segments are stored in encoded two-plane form
#: (:class:`~repro.isa.plane.EncodedOps`) instead of micro-op object lists.
#: v3: blobs carry the store's integrity frame (magic + SHA-256 checksum,
#: see :mod:`repro.exec.cache`), so pre-frame snapshots are keyed away
#: instead of mass-quarantined on upgrade.
#: v4: snapshots may carry a non-blocking hierarchy
#: (:class:`~repro.memory.mlp.NonBlockingHierarchy`: MSHR file, stride
#: prefetcher table, prefetched-line set) when ``core.memory.mlp`` is
#: enabled; the ``core`` key already distinguishes MLP configurations, but
#: the payload class set changed, so old readers are keyed away.
#: v5: policy snapshots hold sparse FSP and DDP tables (a dict from set index
#: to that set's ways, holding only the sets written so far) instead of the
#: dense list of every set.
#: v6: the shared snapshot's memory image is held per 64-bit word (a dict of
#: word values and a dict of written-byte masks) instead of per byte.
#: v7: the shared snapshot's oracle last-writer map is held per 64-bit word
#: (:mod:`repro.memory.last_writer`: one shared writer entry, or a list of 8
#: per-byte entries) instead of per byte.
CHECKPOINT_SCHEMA_VERSION = 7

#: Default store directory (relative to the current working directory).
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: A policy identity: (configuration name, SQ size, predictor overrides).
PolicyIdentity = Tuple[str, int, Optional["PredictorSuiteConfig"]]


def checkpoints_enabled() -> bool:
    """Whether checkpointed warming is enabled by the environment."""
    return _env_bool("REPRO_CHECKPOINTS")


def resolve_checkpointed(settings) -> bool:
    """Whether a sampled run with ``settings`` uses checkpointed warming.

    ``settings.checkpoints`` wins when not ``None``; otherwise the
    ``REPRO_CHECKPOINTS`` environment default applies.  Never true for
    non-sampled settings.
    """
    if getattr(settings, "sampling", None) is None:
        return False
    explicit = getattr(settings, "checkpoints", None)
    if explicit is None:
        return checkpoints_enabled()
    return bool(explicit)


def resolve_checkpoint_shards(settings=None) -> int:
    """The requested trace-chunk count per generation chain.

    ``settings.checkpoint_shards`` wins when not ``None``; otherwise the
    ``REPRO_CHECKPOINT_SHARDS`` environment variable applies.  ``0`` (also
    any value <= 0, or nothing configured) means *auto*: the generation
    planner sizes chunks from the worker count.  Purely an execution knob —
    stitched sharded generation is bit-identical to the single pass, so it
    never participates in snapshot or result-cache keys.
    """
    explicit = getattr(settings, "checkpoint_shards", None) \
        if settings is not None else None
    if explicit is None:
        explicit = _env_int(
            "REPRO_CHECKPOINT_SHARDS", 0,
            "use 0 (or unset) to size shards from the worker count",
            minimum=0)
    return max(0, int(explicit))


class CheckpointStore(ResultCache):
    """Content-addressed snapshot/segment store (pickle per entry).

    Reuses the result cache's atomic-write/corruption-tolerant blob
    machinery under its own default directory and environment knob.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory
                         or os.environ.get("REPRO_CHECKPOINT_DIR")
                         or DEFAULT_CHECKPOINT_DIR)

    def contains(self, key: str) -> bool:
        """Cheap existence check (no deserialisation; corruption is only
        discovered — and repaired — at load time).  Entries held by the
        in-memory fallback of a degraded (``ENOSPC``) directory count."""
        return self._path(key).exists() or key in self._memory()


# --------------------------------------------------------------------- keys --

def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _shared_payload(workload: str, settings: "ExperimentSettings") -> dict:
    """The configuration-independent part of every snapshot key."""
    plan = _canonical(settings.sampling)
    if isinstance(plan, dict):
        # Snapshots cover [0, detailed_start) and windows
        # [detailed_start, measure_end + overrun): neither depends on the
        # bounded-warming horizon, so toggling that knob (e.g. to compare
        # the bounded mode) must not invalidate the store.
        plan.pop("functional_warmup", None)
    return {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "workload": workload,
        "instructions": settings.instructions,
        "seed": settings.seed,
        "plan": plan,
        "core": _canonical(settings.core),
        "trace_sources": _fingerprint.workload_fingerprint(),
        "simulator_sources": _fingerprint.simulator_fingerprint(),
    }


def shared_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of the shared (configuration-independent) snapshot of one interval."""
    payload = _shared_payload(workload, settings)
    payload["kind"] = "functional-shared"
    payload["interval"] = interval_index
    return _digest(payload)


def policy_key(workload: str, settings: "ExperimentSettings",
               identity: PolicyIdentity, interval_index: int) -> str:
    """Key of one configuration's policy snapshot of one interval."""
    config_name, sq_size, predictors = identity
    payload = _shared_payload(workload, settings)
    payload["kind"] = "functional-policy"
    payload["interval"] = interval_index
    payload["config"] = config_name
    payload["sq_size"] = sq_size
    payload["predictors"] = _canonical(predictors)
    return _digest(payload)


def segment_key(name: str, seed: int, index: int, length: int) -> str:
    """Key of one composed trace segment (workload sources fingerprinted)."""
    return _digest({
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "kind": "trace-segment",
        "workload": name,
        "seed": seed,
        "segment": index,
        "length": length,
        "trace_sources": _fingerprint.workload_fingerprint(),
    })


def window_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of one interval's composed detailed-window micro-ops.

    A checkpointed interval simulates only ``[detailed_start, measure_end +
    overrun)`` — a small fraction of a 16384-uop segment — so the
    generation pass memoises exactly that slice; interval jobs then load a
    few thousand micro-ops instead of composing (or unpickling) every
    overlapping segment.  This is the hot-loop fix for the window
    regeneration cost that dominated interval jobs.
    """
    payload = _shared_payload(workload, settings)
    payload["kind"] = "trace-window"
    payload["interval"] = interval_index
    return _digest(payload)


def boundary_key(workload: str, settings: "ExperimentSettings",
                 identities: Sequence[PolicyIdentity], position: int) -> str:
    """Key of one generation chain's stitch handoff at ``position``.

    Covers the chain's policy-group identity list (different groups at the
    same boundary carry different policy state) on top of the shared
    payload; boundary blobs are transient — consumed by the next chunk job
    and discarded once the whole generation stage has stitched.
    """
    payload = _shared_payload(workload, settings)
    payload["kind"] = "functional-boundary"
    payload["position"] = position
    payload["identities"] = [_identity_token(identity)
                             for identity in identities]
    return _digest(payload)


def segment_store() -> Optional[CheckpointStore]:
    """The store used for the on-disk trace-segment memo, or ``None`` when
    checkpointing is disabled by the environment."""
    if not checkpoints_enabled():
        return None
    return CheckpointStore()


# ---------------------------------------------------------------- snapshots --

@dataclass
class SharedWarmState:
    """The configuration-independent half of a functional snapshot.

    ``last_writer`` is the warmer's word-granular oracle last-writer map
    (:mod:`repro.memory.last_writer`; ``(ssn, store_pc, instr_index)``
    entries, one per word or 8 per word), pickled as is: a detailed core
    that imports the snapshot adopts the unpickled map without a copy.
    The other fields are the live structures of the same names in
    :class:`~repro.sampling.functional.FunctionalState`.
    """

    branch_unit: object
    hierarchy: object
    memory: object
    ssn_alloc: object
    last_writer: LastWriterMap
    instructions_warmed: int


def _shared_snapshot(state: FunctionalState) -> SharedWarmState:
    return SharedWarmState(
        branch_unit=state.branch_unit,
        hierarchy=state.hierarchy,
        memory=state.memory,
        ssn_alloc=state.ssn_alloc,
        last_writer=state.last_writer,
        instructions_warmed=state.instructions_warmed,
    )


def _assemble(settings: "ExperimentSettings", shared: SharedWarmState,
              policy) -> FunctionalState:
    return FunctionalState(
        config=settings.core,
        branch_unit=shared.branch_unit,
        hierarchy=shared.hierarchy,
        memory=shared.memory,
        ssn_alloc=shared.ssn_alloc,
        policy=policy,
        last_writer=shared.last_writer,
        instructions_warmed=shared.instructions_warmed,
    )


def shared_signature(shared: SharedWarmState) -> tuple:
    """Canonical equality signature of one shared snapshot.

    Composes the per-structure ``state_signature()`` methods (exactly the
    structures :meth:`~repro.pipeline.core.OutOfOrderCore.import_state`
    adopts), so two snapshots with equal signatures warm a detailed core
    identically — the equality the stitched-vs-single-pass bit-identity
    tests and the CI sharded-generation smoke assert per interval.  The
    last-writer map enters as its canonical sorted per-byte view, so the
    signature does not depend on the map's storage layout.
    """
    return (
        shared.branch_unit.state_signature(),
        shared.hierarchy.state_signature(),
        shared.memory.state_signature(),
        (shared.ssn_alloc.bits, shared.ssn_alloc.ssn_rename,
         shared.ssn_alloc.ssn_commit, shared.ssn_alloc.wraps),
        tuple(sorted(per_byte(shared.last_writer).items())),
        shared.instructions_warmed,
    )


@dataclass
class BoundaryState:
    """One generation chain's stitch handoff at a chunk boundary.

    Carries the full resumable replay state — the shared half plus every
    policy of the chain's group, warmed over ``[0, position)`` — so the
    next chunk's worker continues the fold exactly where this one stopped.
    """

    shared: SharedWarmState
    policies: List
    position: int


# --------------------------------------------------------------- generation --

@dataclass(frozen=True)
class CheckpointJobSpec:
    """One checkpoint-generation pass, described by value (pool-friendly).

    ``identities`` names the policy snapshots to produce (may be empty when
    only the shared snapshots are missing); ``write_shared`` asks for the
    shared snapshots too.  The pass always replays the full warming prefix
    once, warming every listed policy simultaneously.
    """

    workload: str
    settings: "ExperimentSettings"
    identities: Tuple[PolicyIdentity, ...]
    write_shared: bool
    directory: str


def _identity_token(identity: PolicyIdentity) -> str:
    config_name, sq_size, predictors = identity
    return json.dumps({"config": config_name, "sq_size": sq_size,
                       "predictors": _canonical(predictors)},
                      sort_keys=True, default=repr)


def plan_generation(store: CheckpointStore, interval_specs: Sequence,
                    ) -> Tuple[List[CheckpointJobSpec], int]:
    """Work out which generation passes a set of interval jobs still needs.

    ``interval_specs`` are (typically cache-missed) checkpointed
    :class:`~repro.exec.jobs.IntervalJobSpec`; they are grouped by shared
    identity (workload, trace length, seed, plan, core configuration), and
    each group is probed for missing shared/policy snapshots across *all*
    intervals of its plan.  Returns ``(requests, total_identities)`` where
    ``total_identities`` counts every (group, configuration) pair seen —
    ``total_identities - sum(len(r.identities) for r in requests)`` is the
    number whose *policy* snapshots are already present.  A group whose
    policy snapshots all hit but whose shared snapshots are damaged still
    yields a request (``write_shared=True``, empty ``identities``): such a
    pass regenerates shared state only, so "no work done" is ``requests ==
    []`` (the engine's ``checkpoint_passes`` stat), not merely "zero
    generated identities".
    """
    groups: Dict[str, dict] = {}
    for spec in interval_specs:
        payload = _shared_payload(spec.workload, spec.settings)
        token = json.dumps(payload, sort_keys=True, default=repr)
        group = groups.setdefault(token, {
            "workload": spec.workload, "settings": spec.settings,
            "identities": {},
        })
        identity = (spec.config_name, spec.settings.sq_size, spec.predictors)
        group["identities"].setdefault(_identity_token(identity), identity)

    requests: List[CheckpointJobSpec] = []
    total_identities = 0
    directory = str(store.directory)
    for group in groups.values():
        workload = group["workload"]
        settings = group["settings"]
        count = settings.sampling.num_intervals(settings.instructions)
        identities = list(group["identities"].values())
        total_identities += len(identities)
        write_shared = any(
            not store.contains(shared_key(workload, settings, i))
            for i in range(count))
        missing = [identity for identity in identities
                   if any(not store.contains(policy_key(workload, settings,
                                                        identity, i))
                          for i in range(count))]
        if write_shared or missing:
            requests.append(CheckpointJobSpec(
                workload=workload, settings=settings,
                identities=tuple(missing), write_shared=write_shared,
                directory=directory))
    return requests, total_identities


def generate_checkpoints(store: CheckpointStore, workload: str,
                         settings: "ExperimentSettings",
                         identities: Sequence[PolicyIdentity],
                         write_shared: bool = True) -> int:
    """One full functional pass: snapshot every interval start into ``store``.

    Warms all ``identities`` simultaneously (plus the shared structures) and
    writes one shared snapshot (when ``write_shared``) and one policy
    snapshot per identity at each interval's detailed-warmup start.  Returns
    the number of snapshot points written.

    This is the single-pass reference: it executes one
    :class:`ShardJobSpec` covering the whole warming span, the same code
    path sharded generation stitches in chunks — there is exactly one
    emission implementation, so the two schemes cannot drift.
    """
    plan = settings.sampling
    if plan is None:
        raise ValueError("settings carry no sampling plan")
    windows = plan.intervals(settings.instructions)
    span = windows[-1].detailed_start
    return run_shard_job(ShardJobSpec(
        workload=workload, settings=settings, identities=tuple(identities),
        write_shared=write_shared, chunk_index=0, chunk_start=0,
        chunk_end=span, last=True, boundaries=(0,),
        directory=str(store.directory)))


def interval_window_uops(workload: str, settings: "ExperimentSettings",
                         window, disk_memo: bool = False):
    """Compose the micro-ops a checkpointed interval simulates in detail:
    ``[detailed_start, measure_end + overrun)``."""
    from repro.sampling.driver import _overrun
    from repro.workloads.suites import build_workload_window

    stop = min(settings.instructions,
               window.measure_end + _overrun(settings.core))
    return build_workload_window(workload, settings.instructions,
                                 settings.seed, window.detailed_start, stop,
                                 disk_memo=disk_memo)


def run_checkpoint_job(request: CheckpointJobSpec) -> int:
    """Execute one generation request as a single unsharded pass."""
    store = CheckpointStore(request.directory)
    return generate_checkpoints(store, request.workload, request.settings,
                                request.identities,
                                write_shared=request.write_shared)


# ----------------------------------------------------------------- sharding --

#: How long a chunk job waits for its stitch handoff before falling back to
#: an exact in-process prefix recompute.  Generous: the chain ahead of it is
#: replaying real trace prefixes, and a premature fallback costs O(prefix).
_BOUNDARY_WAIT_SECONDS = 900.0

#: Poll cadence while waiting (the handoff lands as one atomic rename).
_BOUNDARY_POLL_SECONDS = 0.01


@dataclass(frozen=True)
class ShardJobSpec:
    """One stitched chunk of one generation chain, described by value.

    A *chain* is a policy group's full-trace replay; ``boundaries`` lists
    the chain's chunk start positions (segment-aligned, ``boundaries[0] ==
    0``) and this job covers ``[chunk_start, chunk_end)``, emitting the
    snapshots of every interval whose detailed-warmup start lies inside
    (the ``last`` chunk also owns ``detailed_start == chunk_end``).  Jobs
    with ``chunk_index > 0`` resume from the previous chunk's
    :class:`BoundaryState`; jobs that are not ``last`` export their own at
    ``chunk_end``.
    """

    workload: str
    settings: "ExperimentSettings"
    identities: Tuple[PolicyIdentity, ...]
    write_shared: bool
    chunk_index: int
    chunk_start: int
    chunk_end: int
    last: bool
    boundaries: Tuple[int, ...]
    directory: str
    #: Read/write composed segments through the on-disk segment memo.  Set
    #: by the planner whenever the generation grid has more than one job
    #: (several chains re-read the same segments, and compose-ahead workers
    #: share what they precompose); a lone single-pass job composes in
    #: memory only, so it cannot flood the store with segments nothing
    #: re-reads.
    disk_memo: bool = False
    #: Which generation chain this chunk belongs to (the planner's chain
    #: ordinal).  Purely an execution-plan coordinate: it lets the
    #: dispatcher express the stitch order ``chain[k-1] -> chain[k]`` as
    #: an explicit job dependency instead of pool-FIFO luck, and never
    #: reaches a store key.
    chain: int = 0


def plan_shard_jobs(store: CheckpointStore,
                    requests: Sequence[CheckpointJobSpec],
                    workers: int = 1,
                    ) -> Tuple[List[ShardJobSpec], Dict[str, int]]:
    """Decompose generation requests into a chunk-major shard-job list.

    Each request (one workload group) is split along two axes:

    * **policy groups** — its identities are dealt round-robin into up to
      ``workers // len(requests)`` chains (policies are independent folds
      over the shared replay stream, so per-group passes reproduce the one
      multi-policy pass exactly); group 0 inherits the request's
      ``write_shared`` duty (shared snapshots + window memos).
    * **trace chunks** — each chain's warming span is cut on
      ``TRACE_SEGMENT_UOPS`` boundaries into K contiguous chunks
      (``REPRO_CHECKPOINT_SHARDS`` / ``settings.checkpoint_shards``;
      *auto* sizes K to soak up workers left idle by the chain count),
      stitched at run time through :class:`BoundaryState` handoffs.

    The returned list is ordered chunk-major across every chain, which —
    executed FIFO with ``chunksize=1`` — guarantees a job's handoff
    producer is always dispatched before (or with) the job itself, so
    in-worker boundary waits cannot deadlock the pool.
    """
    from repro.workloads.suites import TRACE_SEGMENT_UOPS

    directory = str(store.directory)
    chains: List[Tuple[CheckpointJobSpec, Tuple[PolicyIdentity, ...], bool]] = []
    for request in requests:
        identities = list(request.identities)
        if not identities:
            chains.append((request, (), request.write_shared))
            continue
        group_count = min(len(identities),
                          max(1, workers // max(1, len(requests))))
        for g in range(group_count):
            chains.append((request, tuple(identities[g::group_count]),
                           request.write_shared and g == 0))

    per_chain: List[Tuple[List[int], Tuple]] = []
    max_chunks = 1
    for request, identities, write_shared in chains:
        settings = request.settings
        windows = settings.sampling.intervals(settings.instructions)
        span = windows[-1].detailed_start
        segments = max(1, -(-span // TRACE_SEGMENT_UOPS))
        chunks = resolve_checkpoint_shards(settings)
        if chunks <= 0:
            chunks = max(1, workers // max(1, len(chains)))
        chunks = min(chunks, segments)
        base, extra = divmod(segments, chunks)
        bounds = [0]
        position = 0
        for i in range(chunks):
            position += base + (1 if i < extra else 0)
            bounds.append(min(position * TRACE_SEGMENT_UOPS, span))
        max_chunks = max(max_chunks, chunks)
        per_chain.append((bounds, (request, identities, write_shared)))

    total_jobs = sum(len(bounds) - 1 for bounds, _chain in per_chain)
    jobs: List[ShardJobSpec] = []
    for chunk_index in range(max_chunks):
        for chain_id, (bounds, (request, identities, write_shared)) \
                in enumerate(per_chain):
            if chunk_index >= len(bounds) - 1:
                continue
            jobs.append(ShardJobSpec(
                workload=request.workload, settings=request.settings,
                identities=identities, write_shared=write_shared,
                chunk_index=chunk_index,
                chunk_start=bounds[chunk_index],
                chunk_end=bounds[chunk_index + 1],
                last=chunk_index == len(bounds) - 2,
                boundaries=tuple(bounds[:-1]),
                directory=directory,
                disk_memo=total_jobs > 1,
                chain=chain_id))
    return jobs, {
        "checkpoint_chains": len(chains),
        "checkpoint_shards": max_chunks,
        "checkpoint_shard_jobs": len(jobs),
    }


def _fresh_policies(spec: ShardJobSpec) -> List:
    from repro.harness.runner import make_policy

    if spec.identities:
        return [make_policy(config_name, sq_size=sq_size, predictors=predictors)
                for config_name, sq_size, predictors in spec.identities]
    # Shared-only regeneration: any policy drives the shared structures
    # identically; a base policy is the cheapest stand-in.
    from repro.lsu.policies import SQPolicy

    return [SQPolicy(sq_size=spec.settings.sq_size)]


def _load_boundary(spec: ShardJobSpec, store: CheckpointStore,
                   position: int) -> Optional[BoundaryState]:
    """Load and stitch-validate a boundary handoff (``None`` when absent,
    corrupt, or inconsistent with this chain — all handled by fallback)."""
    state = store.get(boundary_key(spec.workload, spec.settings,
                                   spec.identities, position))
    if (isinstance(state, BoundaryState)
            and state.position == position
            and len(state.policies) == max(1, len(spec.identities))
            and state.shared.instructions_warmed == position):
        return state
    return None


def _await_boundary(spec: ShardJobSpec,
                    store: CheckpointStore) -> Optional[BoundaryState]:
    """Wait for this chunk's handoff, precomposing the chunk meanwhile.

    Trace composition is state-independent, so the wait is productive: the
    worker composes the segments its warm loop is about to read, which
    takes composition — the largest share of the pass — off the sequential
    stitch chain.  Precomposition covers the *whole* chunk and writes
    through the on-disk segment memo (``disk_memo=True``): segments are
    encoded two-plane streams that unpickle far cheaper than they
    recompose, so a segment evicted from the small per-process memo — or
    needed by another chain's worker — is reloaded, not recomposed.  (The
    old object-list encoding pickled *slower* than recomposition, which
    capped compose-ahead at ~10 in-memory segments per chunk.)
    """
    from repro.workloads.suites import TRACE_SEGMENT_UOPS, build_workload_window

    settings = spec.settings
    segment = TRACE_SEGMENT_UOPS
    next_segment = spec.chunk_start // segment
    last_segment = max(spec.chunk_end - 1, spec.chunk_start) // segment
    deadline = time.monotonic() + _BOUNDARY_WAIT_SECONDS
    while True:
        boundary = _load_boundary(spec, store, spec.chunk_start)
        if boundary is not None:
            return boundary
        if next_segment <= last_segment:
            lo = next_segment * segment
            hi = min(lo + segment, settings.instructions)
            if hi > lo:
                build_workload_window(spec.workload, settings.instructions,
                                      settings.seed, lo, hi, disk_memo=True)
            next_segment += 1
            continue
        if time.monotonic() > deadline:
            return None
        time.sleep(_BOUNDARY_POLL_SECONDS)


def _advance(warmer: FunctionalWarmer, spec: ShardJobSpec, position: int,
             target: int) -> int:
    """Warm ``[position, target)`` segment-aligned.

    ``spec.disk_memo`` routes segment composition through the encoded
    on-disk segment memo on sharded grids (chains share composed segments;
    the compose-ahead of waiting workers is consumed here); a lone
    single-pass job composes in memory, as the original single pass did.
    """
    from repro.workloads.suites import TRACE_SEGMENT_UOPS, build_workload_window

    settings = spec.settings
    while position < target:
        step = min(target,
                   (position // TRACE_SEGMENT_UOPS + 1) * TRACE_SEGMENT_UOPS)
        warmer.warm(build_workload_window(
            spec.workload, settings.instructions, settings.seed,
            position, step, disk_memo=spec.disk_memo))
        position = step
    return position


def _resume_warmer(spec: ShardJobSpec,
                   store: CheckpointStore) -> FunctionalWarmer:
    """A warmer holding the exact replay state at ``spec.chunk_start``.

    Chunk 0 starts cold (fresh policies, the single pass's construction);
    later chunks adopt their stitch handoff.  A handoff that never arrives
    or fails validation walks back to the newest earlier boundary still
    present — or to a cold start — and recomputes the exact prefix
    in-process: slower, never wrong, never silently different.
    """
    settings = spec.settings
    base: Optional[BoundaryState] = None
    if spec.chunk_index > 0:
        base = _await_boundary(spec, store)
        if base is None:
            for position in reversed(spec.boundaries[1:spec.chunk_index]):
                base = _load_boundary(spec, store, position)
                if base is not None:
                    break
    if base is None:
        warmer = FunctionalWarmer(settings.core, policies=_fresh_policies(spec))
        position = 0
    else:
        warmer = FunctionalWarmer(
            settings.core, policies=base.policies,
            state=_assemble(settings, base.shared, base.policies[0]),
            start_index=base.position)
        position = base.position
    _advance(warmer, spec, position, spec.chunk_start)
    return warmer


def run_shard_job(spec: ShardJobSpec) -> int:
    """Execute one stitched chunk job; returns snapshot points written.

    Resumes the chain's replay at ``chunk_start``, emits the snapshots of
    the intervals this chunk owns (shared + window memo when
    ``write_shared``, one policy snapshot per group identity), and — unless
    this is the chain's last chunk — warms through to ``chunk_end`` and
    exports the next handoff.
    """
    store = CheckpointStore(spec.directory)
    settings = spec.settings
    plan = settings.sampling
    if plan is None:
        raise ValueError("shard spec has no sampling plan")
    windows = plan.intervals(settings.instructions)
    mine = [window for window in windows
            if spec.chunk_start <= window.detailed_start < spec.chunk_end
            or (spec.last and window.detailed_start == spec.chunk_end)]

    warmer = _resume_warmer(spec, store)
    position = spec.chunk_start
    for window in mine:
        position = _advance(warmer, spec, position, window.detailed_start)
        if spec.write_shared:
            store.put(shared_key(spec.workload, settings, window.index),
                      _shared_snapshot(warmer.state))
            # Memoise the interval's detailed window too (it is tiny next
            # to the segments it straddles, and every configuration's
            # interval job re-reads it).
            store.put(window_key(spec.workload, settings, window.index),
                      interval_window_uops(spec.workload, settings, window,
                                           disk_memo=False))
        for identity, policy in zip(spec.identities, warmer.policies):
            store.put(policy_key(spec.workload, settings, identity,
                                 window.index), policy)
    if not spec.last:
        position = _advance(warmer, spec, position, spec.chunk_end)
        store.put(boundary_key(spec.workload, settings, spec.identities,
                               spec.chunk_end),
                  BoundaryState(shared=_shared_snapshot(warmer.state),
                                policies=list(warmer.policies),
                                position=spec.chunk_end))
    return len(mine)


def execute_generation(store: CheckpointStore,
                       requests: Sequence[CheckpointJobSpec],
                       jobs: int = 1) -> Dict[str, int]:
    """Run the generation stage for ``requests``, sharded over ``jobs``.

    Plans the (chunk x policy-group) shard grid and fans it out through
    the execution-backend seam (:func:`repro.exec.dispatch.dispatch`),
    with each chunk's handoff producer expressed as an **explicit job
    dependency** (``chain[k-1] -> chain[k]``) rather than relying on
    pool-FIFO dispatch order: the supervised pool dispatch-gates (a
    consumer may run alongside its producer and compose ahead while
    waiting in-worker), and the serial backend runs the chunk-major plan
    order — both preserve the deadlock-freedom invariant.  A crashed or
    hung shard job is retried — shard jobs are idempotent folds, and
    consumers of a retried producer's handoff either keep waiting within
    their bounded window or walk back and recompute the prefix.
    Afterwards the transient boundary handoffs are discarded — once
    stitched they are dead weight, and sweeping them keeps CI-persisted
    stores lean.  Returns the shard counters for the engine's
    ``last_run_stats``.
    """
    from repro.exec.backend import DispatchJob, resolve_backend
    from repro.exec.dispatch import dispatch

    shard_jobs, stats = plan_shard_jobs(store, requests, workers=jobs)
    if shard_jobs:
        workers = min(jobs, len(shard_jobs))
        position_of = {(job.chain, job.chunk_index): position
                       for position, job in enumerate(shard_jobs)}
        dispatch_jobs = [
            DispatchJob(
                index=position, payload=job,
                label=f"{job.workload}:chunk{job.chunk_index}",
                deps=((position_of[(job.chain, job.chunk_index - 1)],)
                      if job.chunk_index > 0 else ()))
            for position, job in enumerate(shard_jobs)]
        dispatch(resolve_backend(workers), run_shard_job, dispatch_jobs,
                 scope="shard", chunksize=1)
    for job in shard_jobs:
        if not job.last:
            store.discard(boundary_key(job.workload, job.settings,
                                       job.identities, job.chunk_end))
    return stats


# ------------------------------------------------------------------ loading --

def load_interval_window(spec, window):
    """The detailed-window micro-ops of one checkpointed interval.

    Served from the store's window memo when possible; a missing or
    corrupt blob falls back to composing the window from its segments
    (bit-identical by construction) and repairs the store entry.
    """
    store = CheckpointStore(spec.checkpoint_dir)
    key = window_key(spec.workload, spec.settings, spec.interval_index)
    uops = store.get(key)
    if uops is not None:
        return uops
    # Compose without the (environment-located) segment memo: the repaired
    # window blob below lands in *this* spec's store, keeping explicitly
    # isolated runs from writing anywhere else.
    uops = interval_window_uops(spec.workload, spec.settings, window,
                                disk_memo=False)
    store.put(key, uops)
    return uops


def load_interval_state(spec, window) -> FunctionalState:
    """The warmed machine state at ``window.detailed_start`` for one interval.

    Loads the shared + policy snapshots of a checkpointed
    :class:`~repro.exec.jobs.IntervalJobSpec` and assembles them into a
    :class:`~repro.sampling.functional.FunctionalState`.  A missing,
    truncated, or otherwise unreadable snapshot never fails the job and
    never degrades its accuracy: the exact full-history state is recomputed
    in-process (a functional replay of ``[0, detailed_start)``) and the
    store entries are repaired, keeping serial/parallel/cached runs
    bit-identical whatever the store's condition.
    """
    from repro.harness.runner import make_policy
    from repro.workloads.suites import TRACE_SEGMENT_UOPS, build_workload_window

    store = CheckpointStore(spec.checkpoint_dir)
    settings = spec.settings
    identity = (spec.config_name, settings.sq_size, spec.predictors)
    skey = shared_key(spec.workload, settings, spec.interval_index)
    pkey = policy_key(spec.workload, settings, identity, spec.interval_index)
    shared = store.get(skey)
    policy = store.get(pkey)
    if isinstance(shared, SharedWarmState) and policy is not None:
        return _assemble(settings, shared, policy)

    # Exact in-process fallback + store repair.
    warmer = FunctionalWarmer(
        settings.core,
        make_policy(spec.config_name, sq_size=settings.sq_size,
                    predictors=spec.predictors))
    position = 0
    while position < window.detailed_start:
        chunk_end = min(window.detailed_start, position + TRACE_SEGMENT_UOPS)
        warmer.warm(build_workload_window(
            spec.workload, settings.instructions, settings.seed,
            position, chunk_end, disk_memo=False))
        position = chunk_end
    state = warmer.export_state()
    store.put(skey, _shared_snapshot(state))
    store.put(pkey, state.policy)
    return state
