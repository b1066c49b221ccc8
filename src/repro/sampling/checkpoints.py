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
  config, interval)``, together with the interval's detailed window: the
  micro-ops ``[detailed_start, measure_end + overrun)``, composed during
  the generation pass (tiny next to the segments they straddle) and held
  in encoded two-plane form (:class:`~repro.isa.plane.EncodedOps`), so
  interval jobs never re-emit trace content.  The warmer's oracle
  last-writer map is not stored: a detailed core needs no writer from
  before its run (:mod:`repro.pipeline.commit_facts`).
* **policy snapshots** — the per-configuration predictor state (SVW tables,
  FSP/SAT, store sets, DDP) is stored per ``(configuration, sq_size,
  predictor overrides)`` on top of the shared key.  One
  :class:`~repro.sampling.functional.FunctionalWarmer` pass warms *all*
  missing configurations simultaneously (the shared structures and the SVW
  update once per micro-op, and the predictor tables once per warm
  class).

An interval job reads two blobs: its shared snapshot and its
configuration's policy snapshot.  Inside an engine run the shared one is
decoded once per interval and process: the engine runs the configurations
of an interval back to back, and the run's interval record
(:func:`interval_record`) hands each of them but the last an exact
structural copy of the decoded snapshot, and the last the snapshot itself.

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
the request's ``write_shared`` duty (the shared snapshots);
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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exec import fingerprint as _fingerprint
from repro.exec import options as _options
from repro.exec.jobs import IntervalJobSpec
from repro.exec.cache import ResultCache, _canonical
from repro.isa.plane import EncodedOps
from repro.sampling.functional import FunctionalState, FunctionalWarmer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings
    from repro.pipeline.commit_facts import CommitFacts

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
#: v9: the shared snapshot carries the interval's detailed window, which
#: was a blob of its own.
CHECKPOINT_SCHEMA_VERSION = 9

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


def _derive_key(workload: str, settings: "ExperimentSettings",
                interval_index: int,
                identity: Optional[PolicyIdentity]) -> str:
    """The key of one interval's shared snapshot (``identity`` ``None``)
    or of one configuration's policy snapshot."""
    payload = _shared_payload(workload, settings)
    payload["interval"] = interval_index
    if identity is None:
        payload["kind"] = "functional-shared"
    else:
        config_name, sq_size, predictors = identity
        payload["kind"] = "functional-policy"
        payload["config"] = config_name
        payload["sq_size"] = sq_size
        payload["predictors"] = _canonical(predictors)
    return _digest(payload)


@lru_cache(maxsize=4096)
def _memoised_key(schema: int, trace_sources: str, simulator_sources: str,
                  workload: str, settings: "ExperimentSettings",
                  interval_index: int,
                  identity: Optional[PolicyIdentity]) -> str:
    """:func:`_derive_key`, memoised on its arguments and on everything
    else the key covers: the schema version and the source fingerprints.
    A sampled run asks for each key at planning, dispatch and load time."""
    return _derive_key(workload, settings, interval_index, identity)


def shared_key(workload: str, settings: "ExperimentSettings",
               interval_index: int) -> str:
    """Key of the shared (configuration-independent) snapshot of one interval."""
    return _memoised_key(CHECKPOINT_SCHEMA_VERSION,
                         _fingerprint.workload_fingerprint(),
                         _fingerprint.simulator_fingerprint(),
                         workload, settings, interval_index, None)


def policy_key(workload: str, settings: "ExperimentSettings",
               identity: PolicyIdentity, interval_index: int) -> str:
    """Key of one configuration's policy snapshot of one interval."""
    return _memoised_key(CHECKPOINT_SCHEMA_VERSION,
                         _fingerprint.workload_fingerprint(),
                         _fingerprint.simulator_fingerprint(),
                         workload, settings, interval_index, identity)


# ---------------------------------------------------------------- snapshots --

@dataclass
class SharedWarmState:
    """The configuration-independent half of a functional snapshot: the
    live structures of the same names in
    :class:`~repro.sampling.functional.FunctionalState`, and the
    interval's detailed ``window`` (:func:`interval_window_uops`)."""

    branch_unit: object
    hierarchy: object
    memory: object
    ssn_alloc: object
    instructions_warmed: int
    window: EncodedOps

    def copy(self) -> "SharedWarmState":
        """An exact structural copy that shares no mutable state with this
        snapshot (the window's arrays are copied; its static plane, which
        only ever grows, is shared)."""
        return SharedWarmState(
            branch_unit=self.branch_unit.copy(),
            hierarchy=self.hierarchy.copy(),
            memory=self.memory.copy(),
            ssn_alloc=self.ssn_alloc.copy(),
            instructions_warmed=self.instructions_warmed,
            window=self.window.slice(0, len(self.window)),
        )


def _shared_snapshot(state: FunctionalState,
                     window: EncodedOps) -> SharedWarmState:
    return SharedWarmState(
        branch_unit=state.branch_unit,
        hierarchy=state.hierarchy,
        memory=state.memory,
        ssn_alloc=state.ssn_alloc,
        instructions_warmed=state.instructions_warmed,
        window=window,
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
    shared snapshot, window included, there (without it, the pass warms
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
                      _shared_snapshot(warmer.state, interval_window_uops(
                          workload, settings, window)))
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

#: Where an interval job's shared snapshot comes from: its checkpoint
#: directory and the snapshot's key.
SharedLocation = Tuple[Optional[str], str]


def shared_location(spec: IntervalJobSpec) -> SharedLocation:
    """The shared snapshot an interval job loads."""
    return (spec.checkpoint_dir,
            shared_key(spec.workload, spec.settings, spec.interval_index))


class _IntervalRecord:
    """The decoded shared snapshot of the interval loaded last, where it
    came from, the commit facts of its window from it (per SVW geometry),
    and how many of the run's loads of each shared snapshot are still to
    come."""

    __slots__ = ("loads", "location", "shared", "facts")

    def __init__(self) -> None:
        self.loads: Dict[SharedLocation, int] = {}
        self.hold(None, None)

    def expect(self, jobs: Sequence) -> None:
        """Count each shared snapshot's loads among ``jobs``, the jobs the
        run is about to simulate."""
        self.loads = Counter(shared_location(job) for job in jobs
                             if isinstance(job, IntervalJobSpec))

    def hold(self, location: Optional[SharedLocation],
             shared: Optional[SharedWarmState]) -> None:
        self.location = location
        self.shared = shared
        self.facts: Dict[Tuple[int, int], "CommitFacts"] = {}

    def lend(self, shared: SharedWarmState) -> SharedWarmState:
        """``shared`` for one job that loads the held location: a copy of
        the held snapshot while later loads of it are to come, and the
        snapshot itself, which the record then lets go of (keeping its
        facts), for the last one.  A snapshot the record does not hold (a
        repaired one) is the job's."""
        location = self.location
        left = self.loads[location] = self.loads.get(location, 0) - 1
        if shared is not self.shared:
            return shared
        if left:
            return shared.copy()
        self.location = self.shared = None
        return shared


#: The interval record of the engine run executing in this process (pool
#: workers inherit the run's when they fork): ``None`` outside a run, where
#: every load decodes its own blobs.
_RECORD: Optional[_IntervalRecord] = None


@contextmanager
def interval_record() -> Iterator[_IntervalRecord]:
    """Keep one interval record while the block runs, and drop it after.

    The engine runs a sampled run's interval jobs inside this block, grouped
    by shared snapshot, so the configurations of one interval decode its
    shared snapshot once and share its window's commit facts
    (:func:`load_interval_state`, :func:`interval_facts`).  Once told the
    jobs it is about to simulate (:meth:`_IntervalRecord.expect`), the
    record hands the last of them to load an interval the decoded snapshot
    itself, and every earlier load a copy (so too every load it was not
    told of).  Blocks nest; an inner one keeps a record of its own.
    """
    global _RECORD
    outer = _RECORD
    _RECORD = _IntervalRecord()
    try:
        yield _RECORD
    finally:
        _RECORD = outer


def interval_facts() -> Dict[Tuple[int, int], "CommitFacts"]:
    """The commit-facts memo of the interval :func:`load_interval_state`
    loaded last: the record's, or an empty throwaway dict outside a run."""
    return _RECORD.facts if _RECORD is not None else {}


def load_interval_state(spec, window) -> Tuple[FunctionalState, EncodedOps]:
    """The warmed machine state at ``window.detailed_start`` for one
    interval, and the interval's detailed window.

    Loads the shared + policy snapshots of an
    :class:`~repro.exec.jobs.IntervalJobSpec` and assembles them into a
    :class:`~repro.sampling.functional.FunctionalState`.  Inside
    :func:`interval_record`, the shared snapshot is decoded once per
    interval: the record keeps it, every job but the interval's last gets
    an exact structural copy (:meth:`SharedWarmState.copy`), and the last
    takes the decoded snapshot.  The store stays the only source of
    snapshot state.  A missing, truncated, or otherwise unreadable
    snapshot never fails the job and never degrades its accuracy: the exact
    full-history state is recomputed in-process (a functional replay of
    ``[0, detailed_start)``), the window is recomposed from its segments,
    and the store entries are repaired, keeping serial/parallel/cached runs
    bit-identical whatever the store's condition.
    """
    from repro.harness.runner import make_policy

    store = CheckpointStore(spec.checkpoint_dir)
    settings = spec.settings
    identity = (spec.config_name, settings.sq_size, spec.predictors)
    location = shared_location(spec)
    skey = location[1]
    pkey = policy_key(spec.workload, settings, identity, spec.interval_index)
    record = _RECORD
    if record is not None and record.location == location:
        shared = record.shared
    else:
        shared = store.get(skey)
        if not isinstance(shared, SharedWarmState):
            shared = None
        elif record is not None:
            record.hold(location, shared)
    policy = store.get(pkey)

    if shared is None or policy is None:
        # Exact in-process fallback + store repair.
        warmer = FunctionalWarmer(
            settings.core,
            make_policy(spec.config_name, sq_size=settings.sq_size,
                        predictors=spec.predictors))
        _warm_span(warmer, spec.workload, settings, 0, window.detailed_start)
        state = warmer.export_state()
        shared = _shared_snapshot(state, interval_window_uops(
            spec.workload, settings, window))
        policy = state.policy
        store.put(skey, shared)
        store.put(pkey, policy)
        if record is not None and record.location != location:
            record.hold(location, shared)
    if record is not None:
        shared = record.lend(shared)
    return _assemble(settings, shared, policy), shared.window
