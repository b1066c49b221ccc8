"""Checkpointed functional warming: one O(N) pass per workload, shared on disk.

Every sampled run warms continuously, as SMARTS does: a **single
full-trace functional pass per workload** serialises the warmed machine
state at every interval start into a content-addressed on-disk
**checkpoint store**, and every interval job of every configuration in a
sweep then *loads* its snapshot (via
:meth:`~repro.pipeline.core.OutOfOrderCore.import_state`).  Because
snapshots carry full history, the remaining error is detailed-warmup-only,
and the O(N) replay is paid once per workload rather than once per
``(configuration, interval)``.

Storage layout (one pickle per entry, exactly like the result cache):

* **shared snapshots** — branch predictor/BTB/RAS, caches/TLB, memory
  image and SSN counters are identical for every store-queue
  configuration, so they are stored once per ``(workload, plan, core
  config, interval)``.  The warmer's oracle last-writer map is not
  stored: a detailed core needs no writer from before its run
  (:mod:`repro.pipeline.commit_facts`).
* **policy snapshots** — the per-configuration predictor state (SVW tables,
  FSP/SAT, store sets, DDP) is stored per ``(configuration, sq_size,
  predictor overrides)`` on top of the shared key.  One
  :class:`~repro.sampling.functional.FunctionalWarmer` pass warms *all*
  missing configurations simultaneously (the shared structures and the SVW
  update once per micro-op, and the predictor tables once per warm
  class).
* **trace windows** — the same store memoises each interval's composed
  detailed-window micro-ops (written during the generation pass, tiny next
  to the segments they straddle), so interval jobs stop re-emitting
  trace content entirely.  Windows are stored in encoded
  two-plane form (:class:`~repro.isa.plane.EncodedOps`, schema v2): flat
  arrays that unpickle far cheaper than they recompose.

Keys cover the trace identity, the sampling plan, the core configuration,
and SHA-256 fingerprints of the workload-generator and simulator sources —
editing a simulator source or changing the plan invalidates every snapshot
automatically, so restoring a stale store (e.g. from a CI cache) is always
safe.  Corrupt or truncated snapshot files are repaired in place: the
affected interval recomputes the exact same full-history state in-process
(never a silently-lukewarm result, never a crash).

**Generation jobs**: the engine runs one generation job per (workload,
policy group).  :func:`split_policy_groups` deals a request's *warm
classes* (:func:`~repro.lsu.policies.warm_classes`: configurations whose
warming folds share their tables, such as ``indexed-3-fwd`` and
``indexed-3-fwd+dly``) round-robin into up to ``jobs //
len(requests)`` groups, so no class is folded by two jobs.  Each group
replays the whole warming prefix once through :func:`generate_checkpoints`,
folding once per class.  A group's pass warms each of its policies
exactly as the one multi-policy pass would, because every policy ends a
pass with the state a warmer of its own would have left.  Group 0 keeps
the request's ``write_shared`` duty (shared snapshots and window memos);
the other groups skip the shared structures no policy reads
(:class:`~repro.sampling.functional.FunctionalWarmer`'s
``policies_only``).  The jobs have no dependencies on each other and fan
out through the engine's dispatcher (:func:`execute_generation`).

The store lives in ``.repro-checkpoints/`` unless ``REPRO_CHECKPOINT_DIR``
moves it (see :mod:`repro.exec.options`); it is safe to delete at any time.
"""

from __future__ import annotations

import json
import hashlib
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exec import fingerprint as _fingerprint
from repro.exec import options as _options
from repro.exec.cache import ResultCache, _canonical
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
#: (one shared writer entry, or a list of 8 per-byte entries) instead of per
#: byte.
#: v8: the shared snapshot carries no oracle last-writer map.
CHECKPOINT_SCHEMA_VERSION = 8

#: A policy identity: (configuration name, SQ size, predictor overrides).
PolicyIdentity = Tuple[str, int, Optional["PredictorSuiteConfig"]]


class CheckpointStore(ResultCache):
    """Content-addressed snapshot store (pickle per entry).

    Reuses the result cache's atomic-write/corruption-tolerant blob
    machinery under its own default directory and environment knob.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory or _options.checkpoint_dir())

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
    return {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "workload": workload,
        "instructions": settings.instructions,
        "seed": settings.seed,
        "plan": _canonical(settings.sampling),
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


def window_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of one interval's composed detailed-window micro-ops.

    An interval simulates only ``[detailed_start, measure_end +
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


# ---------------------------------------------------------------- snapshots --

@dataclass
class SharedWarmState:
    """The configuration-independent half of a functional snapshot: the
    live structures of the same names in
    :class:`~repro.sampling.functional.FunctionalState`."""

    branch_unit: object
    hierarchy: object
    memory: object
    ssn_alloc: object
    instructions_warmed: int


def _shared_snapshot(state: FunctionalState) -> SharedWarmState:
    return SharedWarmState(
        branch_unit=state.branch_unit,
        hierarchy=state.hierarchy,
        memory=state.memory,
        ssn_alloc=state.ssn_alloc,
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
        instructions_warmed=shared.instructions_warmed,
    )


def shared_signature(shared: SharedWarmState) -> tuple:
    """Canonical equality signature of one shared snapshot.

    Composes the per-structure ``state_signature()`` methods (exactly the
    structures :meth:`~repro.pipeline.core.OutOfOrderCore.import_state`
    adopts), so two snapshots with equal signatures warm a detailed core
    identically — the equality the policy-group bit-identity tests and the
    CI policy-group generation smoke assert per interval.
    """
    return (
        shared.branch_unit.state_signature(),
        shared.hierarchy.state_signature(),
        shared.memory.state_signature(),
        (shared.ssn_alloc.bits, shared.ssn_alloc.ssn_rename,
         shared.ssn_alloc.ssn_commit, shared.ssn_alloc.wraps),
        shared.instructions_warmed,
    )


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

    ``interval_specs`` are (typically cache-missed)
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


def _warm_span(warmer: FunctionalWarmer, workload: str,
               settings: "ExperimentSettings", position: int,
               target: int) -> int:
    """Warm ``[position, target)`` one trace segment at a time."""
    from repro.workloads.suites import TRACE_SEGMENT_UOPS, build_workload_window

    while position < target:
        step = min(target,
                   (position // TRACE_SEGMENT_UOPS + 1) * TRACE_SEGMENT_UOPS)
        warmer.warm(build_workload_window(
            workload, settings.instructions, settings.seed, position, step))
        position = step
    return position


def generate_checkpoints(store: CheckpointStore, workload: str,
                         settings: "ExperimentSettings",
                         identities: Sequence[PolicyIdentity],
                         write_shared: bool = True) -> int:
    """One full functional pass: snapshot every interval start into ``store``.

    Warms all ``identities`` simultaneously and writes one policy snapshot
    per identity at each interval's detailed-warmup start; with
    ``write_shared`` it also warms the shared structures and writes one
    shared snapshot and window memo there (without it, the pass warms
    only what the policies read).  Returns the number of snapshot points
    written.  This is the only generation loop: every generation job runs
    it over its own policy group.
    """
    from repro.harness.runner import make_policy
    from repro.lsu.policies import SQPolicy

    plan = settings.sampling
    if plan is None:
        raise ValueError("settings carry no sampling plan")
    # Shared-only regeneration: any policy drives the shared structures
    # identically; a base policy is the cheapest stand-in.
    policies = [make_policy(name, sq_size=sq_size, predictors=predictors)
                for name, sq_size, predictors in identities] \
        or [SQPolicy(sq_size=settings.sq_size)]
    warmer = FunctionalWarmer(settings.core, policies=policies,
                              policies_only=not write_shared)
    windows = plan.intervals(settings.instructions)
    position = 0
    for window in windows:
        position = _warm_span(warmer, workload, settings, position,
                              window.detailed_start)
        if write_shared:
            store.put(shared_key(workload, settings, window.index),
                      _shared_snapshot(warmer.state))
            # Memoise the interval's detailed window too (it is tiny next
            # to the segments it straddles, and every configuration's
            # interval job re-reads it).
            store.put(window_key(workload, settings, window.index),
                      interval_window_uops(workload, settings, window))
        for identity, policy in zip(identities, policies):
            store.put(policy_key(workload, settings, identity, window.index),
                      policy)
    return len(windows)


def interval_window_uops(workload: str, settings: "ExperimentSettings",
                         window):
    """Compose the micro-ops an interval simulates in detail:
    ``[detailed_start, measure_end + overrun)``."""
    from repro.sampling.driver import _overrun
    from repro.workloads.suites import build_workload_window

    stop = min(settings.instructions,
               window.measure_end + _overrun(settings.core))
    return build_workload_window(workload, settings.instructions,
                                 settings.seed, window.detailed_start, stop)


def run_checkpoint_job(request: CheckpointJobSpec) -> int:
    """Execute one generation job: one pass over its policy group."""
    store = CheckpointStore(request.directory)
    return generate_checkpoints(store, request.workload, request.settings,
                                request.identities,
                                write_shared=request.write_shared)


def _warm_class_indices(identities: Sequence[PolicyIdentity]) -> List[int]:
    """The warm class of each identity, numbered in order of first
    appearance.  A name :func:`~repro.harness.runner.make_policy` does not
    know forms a class of its own (its generation job reports it)."""
    from repro.harness.runner import make_policy

    keys: Dict[object, int] = {}
    indices = []
    for identity in identities:
        name, sq_size, predictors = identity
        try:
            key = make_policy(name, sq_size=sq_size,
                              predictors=predictors).warm_class_key()
        except ValueError:
            key = identity
        indices.append(keys.setdefault(key, len(keys)))
    return indices


def split_policy_groups(requests: Sequence[CheckpointJobSpec],
                        jobs: int = 1) -> List[CheckpointJobSpec]:
    """Split generation requests into one job per (workload, policy group).

    Each request's warm classes are dealt round-robin into up to ``jobs //
    len(requests)`` groups, one generation job each, so every class is
    folded by exactly one job; a group lists its identities in request
    order, and group 0 keeps the request's ``write_shared`` duty.  A
    request that cannot be split (one worker per request, or at most one
    class) stays one job.
    """
    groups_per_request = max(1, jobs // max(1, len(requests)))
    if groups_per_request == 1:
        return list(requests)
    split: List[CheckpointJobSpec] = []
    for request in requests:
        classes = _warm_class_indices(request.identities)
        count = max(1, min(len(set(classes)), groups_per_request))
        split.extend(replace(request,
                             identities=tuple(
                                 identity for identity, index
                                 in zip(request.identities, classes)
                                 if index % count == group),
                             write_shared=request.write_shared and group == 0)
                     for group in range(count))
    return split


def execute_generation(requests: Sequence[CheckpointJobSpec],
                       jobs: int = 1, retries: Optional[int] = None,
                       timeout: Optional[float] = None) -> int:
    """Run the generation stage for ``requests`` over ``jobs`` workers.

    Splits the requests into policy-group jobs (:func:`split_policy_groups`)
    and hands them to the dispatcher (:func:`repro.exec.dispatch.dispatch`)
    with the worker count: one worker or one job runs in-process, more run
    the supervised pool.  The jobs are independent deterministic passes,
    so a crashed or hung job is simply retried (``retries`` and
    ``timeout`` as in :func:`~repro.exec.dispatch.dispatch`).  Returns the
    number of generation jobs, the engine's ``checkpoint_jobs`` stat.
    """
    from repro.exec.dispatch import DispatchJob, dispatch

    generation_jobs = split_policy_groups(requests, jobs)
    if generation_jobs:
        dispatch(min(jobs, len(generation_jobs)), run_checkpoint_job,
                 [DispatchJob(job, f"generation {position} ({job.workload})")
                  for position, job in enumerate(generation_jobs)],
                 scope="shard", chunksize=1, retries=retries,
                 timeout=timeout)
    return len(generation_jobs)


# ------------------------------------------------------------------ loading --

def load_interval_window(spec, window):
    """The detailed-window micro-ops of one interval.

    Served from the store's window memo when possible; a missing or
    corrupt blob falls back to composing the window from its segments
    (bit-identical by construction) and repairs the store entry.
    """
    store = CheckpointStore(spec.checkpoint_dir)
    key = window_key(spec.workload, spec.settings, spec.interval_index)
    uops = store.get(key)
    if uops is not None:
        return uops
    uops = interval_window_uops(spec.workload, spec.settings, window)
    store.put(key, uops)
    return uops


def load_interval_state(spec, window) -> FunctionalState:
    """The warmed machine state at ``window.detailed_start`` for one interval.

    Loads the shared + policy snapshots of an
    :class:`~repro.exec.jobs.IntervalJobSpec` and assembles them into a
    :class:`~repro.sampling.functional.FunctionalState`.  A missing,
    truncated, or otherwise unreadable snapshot never fails the job and
    never degrades its accuracy: the exact full-history state is recomputed
    in-process (a functional replay of ``[0, detailed_start)``) and the
    store entries are repaired, keeping serial/parallel/cached runs
    bit-identical whatever the store's condition.
    """
    from repro.harness.runner import make_policy

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
    _warm_span(warmer, spec.workload, settings, 0, window.detailed_start)
    state = warmer.export_state()
    store.put(skey, _shared_snapshot(state))
    store.put(pkey, state.policy)
    return state
