"""The experiment engine: parallel fan-out + on-disk result memoization.

:class:`ExperimentEngine` turns a list of :class:`~repro.exec.jobs.JobSpec`
into a list of :class:`~repro.harness.runner.RunRecord`, in input order,
using three layers:

* **result cache** — each spec is first looked up in a content-addressed
  on-disk cache (see :mod:`repro.exec.cache`); only misses are simulated.
* **process fan-out** — misses are executed on a ``multiprocessing`` pool.
  Workers receive specs (not traces) and rebuild traces deterministically,
  so a parallel run is bit-identical to a serial one.
* **serial fallback** — with one worker (or one job) everything runs
  in-process through the same :func:`~repro.exec.jobs.run_job` code path.
* **sampling expansion** — specs whose settings carry a
  :class:`~repro.sampling.plan.SamplingPlan` are expanded into per-interval
  jobs before the cache/pool pass and merged back afterwards, so sampled
  sweeps parallelise and memoize at interval granularity.
* **checkpoint generation** — sampled specs that resolve to checkpointed
  warming (``settings.checkpoints`` / ``REPRO_CHECKPOINTS``, see
  :mod:`repro.sampling.checkpoints`) get a generation stage between the
  cache probe and the fan-out: for each workload group with cache-missed
  intervals, the warming pass is **sharded** into (segment-aligned trace
  chunk x policy group) jobs stitched through boundary snapshots and
  fanned out over the pool — bit-identical to a single full pass, but
  parallel *inside* one workload (``REPRO_CHECKPOINT_SHARDS`` /
  ``ExperimentSettings.checkpoint_shards``); the interval jobs then load
  snapshots instead of re-warming.  Groups with a warm store skip
  generation entirely (the amortisation across configurations, sweeps,
  and runs).

Environment knobs:

``REPRO_JOBS``
    Default worker count when neither the engine nor the settings specify
    one.  ``0`` (or any value <= 0) means "all CPUs".  The worker count
    also picks the backend: serial for one worker, the supervised pool
    otherwise.
``REPRO_CACHE``
    Set to ``0`` to disable the result cache entirely.
``REPRO_CACHE_DIR``
    Cache directory (default ``.repro-cache/`` in the working directory).
    Safe to delete at any time: ``rm -rf .repro-cache/``.
``REPRO_CHECKPOINTS`` / ``REPRO_CHECKPOINT_DIR``
    Checkpointed-warming default for sampled specs and the snapshot-store
    location (default ``.repro-checkpoints/``; safe to delete at any time).
``REPRO_CHECKPOINT_SHARDS``
    Trace chunks per checkpoint-generation chain (see
    :func:`repro.sampling.checkpoints.plan_shard_jobs`).  Unset or ``0``
    sizes shards from the worker count; a pure execution knob — stitched
    sharded generation is bit-identical to the single pass.
``REPRO_RETRIES`` / ``REPRO_JOB_TIMEOUT`` / ``REPRO_FAULT_PLAN``
    Failure-semantics knobs (retry budget, per-job deadline,
    deterministic fault injection) — all execution-only, never part of
    cache keys; see :mod:`repro.exec.resilience`.
``REPRO_PROFILE``
    Per-worker profiling: ``1`` (default ``.repro-profile/``) or a
    directory path.  Each engine run that simulates anything gets a
    run-scoped subdirectory of per-job ``cProfile`` dumps
    (``job-<pid>-<n>.pstats``), and the aggregated top cumulative
    hotspots land under ``last_run_stats["profile"]``.  Execution-only:
    profiling observes, it never changes a simulated statistic.

Every fan-out — this engine's job pass *and* the sharded
checkpoint-generation stage — runs through one dispatcher seam
(:func:`repro.exec.dispatch.dispatch`) over an
:class:`~repro.exec.backend.ExecutionBackend`.  The pool backend runs
**supervised** (see :mod:`repro.exec.resilience`): per-job deadlines,
crash detection, retry with backoff, pool self-healing, and degradation
to in-process serial execution — a sweep completes or raises a
structured :class:`~repro.exec.resilience.ExperimentFailure`, it never
hangs and never silently drops jobs; the serial backend keeps the same
contract.  Scheduler observability (``backend``, ``queue_depth_peak``,
``inflight_peak``, ``dispatch_overhead_ns``) lands in
:attr:`ExperimentEngine.last_run_stats` on every run.  Malformed
``REPRO_*`` knobs fail engine construction fast with a one-line
:class:`~repro.exec.resilience.EnvKnobError`.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.exec import resilience as _resilience
from repro.exec.backend import DispatchJob, resolve_backend
from repro.exec.cache import ResultCache, generic_key, job_key
from repro.exec.dispatch import dispatch
from repro.exec.jobs import JobSpec, run_job
from repro.exec.resilience import ExperimentFailure

#: The scheduler-observability keys every run folds into
#: ``last_run_stats`` (zeroed when nothing needed dispatching, so tooling
#: needs no schema probe).
_SCHEDULER_KEYS = ("backend", "queue_depth_peak", "inflight_peak",
                   "dispatch_overhead_ns")


def _validate_chunksize(chunksize) -> Optional[int]:
    """Reject malformed ``chunksize`` on every path, parallel or not.

    The serial path used to silently ignore the parameter; now a bad
    value fails identically everywhere, and the serial backend, which has
    nothing to batch, treats the validated hint as a no-op.
    """
    if chunksize is None:
        return None
    if isinstance(chunksize, bool) or not isinstance(chunksize, int):
        raise ValueError(
            f"chunksize must be a positive integer or None "
            f"(got {chunksize!r})")
    if chunksize < 1:
        raise ValueError(
            f"chunksize must be >= 1 (got {chunksize})")
    return chunksize


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine's CPUs even when the process is
    pinned to fewer (cgroup cpusets, ``taskset``, affinity-restricted CI
    runners), and sizing a pool from it oversubscribes the restricted set.
    Prefer the scheduling affinity where the platform exposes it.
    """
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            return len(sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1.

    Any value <= 0 (explicit or from the environment) means "all CPUs" —
    the CPUs available to this process (:func:`available_cpus`), not the
    machine total.
    """
    if jobs is None:
        jobs = _resilience._env_int(
            "REPRO_JOBS", 1, 'use 0 or a negative value for "all CPUs"')
    if jobs <= 0:
        jobs = available_cpus()
    return jobs


def _cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip() != "0"


class ExperimentEngine:
    """Runs simulation job lists with caching and process fan-out."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Union[None, bool, ResultCache] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 checkpoint_dir: Optional[os.PathLike] = None) -> None:
        # Fail fast on malformed REPRO_* knobs — one actionable line at
        # construction beats a deep traceback mid-sweep (or worse, inside
        # a pool worker).
        _resilience.validate_environment()
        self.jobs = resolve_jobs(jobs)
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache is False:
            self.cache = None
        elif cache is True or cache_dir is not None or _cache_enabled():
            # An explicit cache_dir is an explicit opt-in, overriding the
            # REPRO_CACHE environment switch.
            self.cache = ResultCache(cache_dir)
        else:
            self.cache = None
        #: Checkpoint-store location for sampled specs that resolve to
        #: checkpointed warming (None = REPRO_CHECKPOINT_DIR / default).
        #: Whether checkpointing is *used* is a property of the settings,
        #: not of the engine, so every execution path resolves it the same
        #: way and stays bit-identical.
        self.checkpoint_dir = checkpoint_dir
        #: Statistics of the most recent :meth:`run` call.
        self.last_run_stats: Dict[str, int] = {}
        self._checkpoint_stats: Dict[str, int] = {}
        self._active_checkpoint_dir: Optional[str] = None

    @classmethod
    def from_settings(cls, settings, jobs: Optional[int] = None,
                      cache: Union[None, bool, ResultCache] = None,
                      cache_dir: Optional[os.PathLike] = None,
                      checkpoint_dir: Optional[os.PathLike] = None) -> "ExperimentEngine":
        """Build an engine honouring ``settings.jobs`` (then ``REPRO_JOBS``)."""
        if jobs is None:
            jobs = getattr(settings, "jobs", None)
        return cls(jobs=jobs, cache=cache, cache_dir=cache_dir,
                   checkpoint_dir=checkpoint_dir)

    # ----------------------------------------------------------------- running --

    @staticmethod
    def _is_sampled_spec(spec) -> bool:
        """True for a base :class:`JobSpec` that names a sampled run
        (interval specs carry the plan too, but are already expanded)."""
        return (isinstance(spec, JobSpec)
                and getattr(spec.settings, "sampling", None) is not None)

    def run(self, specs: Sequence[JobSpec],
            chunksize: Optional[int] = None) -> List["RunRecord"]:  # noqa: F821
        """Execute ``specs`` and return their records in input order.

        ``chunksize`` tunes how many consecutive specs a pool worker claims
        at once; sweeps ordered workload-major benefit from a multiple of
        the per-workload group size (each worker then builds each trace
        once).  The default heuristic balances that against load balance.

        Specs whose settings carry a :class:`~repro.sampling.plan.SamplingPlan`
        are expanded into one :class:`~repro.exec.jobs.IntervalJobSpec` per
        measurement interval: the intervals of *all* sampled specs join the
        same fan-out/cache pass (each interval independently
        content-addressed on disk), and are then merged deterministically
        back into one record per original spec.
        """
        specs = list(specs)
        chunksize = _validate_chunksize(chunksize)
        # A fresh run reports only its own checkpoint work: without this
        # reset, a run with no checkpointed specs would re-report the
        # *previous* run's checkpoint_generated/reused/passes.
        self._checkpoint_stats = {}
        if any(self._is_sampled_spec(spec) for spec in specs):
            return self._run_expanding_sampled(specs, chunksize)
        return self._execute(specs, chunksize)

    def _run_expanding_sampled(self, specs: Sequence[JobSpec],
                               chunksize: Optional[int]) -> List["RunRecord"]:  # noqa: F821
        from repro.sampling.checkpoints import CheckpointStore, resolve_checkpointed
        from repro.sampling.driver import expand_sampled_spec, merge_interval_records

        flat: List = []
        layout: List[tuple] = []  # (base spec or None, start, count)
        checkpoint_dir: Optional[str] = None
        any_checkpointed = False
        for spec in specs:
            if self._is_sampled_spec(spec):
                checkpointed = resolve_checkpointed(spec.settings)
                if checkpointed:
                    any_checkpointed = True
                    if checkpoint_dir is None:
                        checkpoint_dir = str(
                            CheckpointStore(self.checkpoint_dir).directory)
                        self._active_checkpoint_dir = checkpoint_dir
                intervals = expand_sampled_spec(
                    spec, checkpointed=checkpointed,
                    checkpoint_dir=checkpoint_dir if checkpointed else None)
                layout.append((spec, len(flat), len(intervals)))
                flat.extend(intervals)
            else:
                layout.append((None, len(flat), 1))
                flat.append(spec)
        # Caller chunksize heuristics target the unexpanded grid; let the
        # default heuristic balance the (much longer) interval list instead.
        before_run = self._generate_checkpoints if any_checkpointed else None
        flat_records = self._execute(flat, None, before_run=before_run)
        results: List["RunRecord"] = []
        for base_spec, start, count in layout:
            if base_spec is None:
                results.append(flat_records[start])
            else:
                results.append(merge_interval_records(
                    base_spec, flat_records[start:start + count]))
        self.last_run_stats["sampled_specs"] = sum(
            1 for base_spec, _, _ in layout if base_spec is not None)
        return results

    def _generate_checkpoints(self, pending_specs: Sequence) -> None:
        """The checkpoint-generation stage (runs on cache-missed intervals).

        Probes the store for every (workload group, configuration) the
        pending checkpointed intervals need, then runs the generation work
        for the missing groups **sharded**: each group's pass is decomposed
        into (segment-aligned trace chunk x policy group) shard jobs
        stitched through boundary snapshots and fanned out chunk-major
        over the pool (:func:`repro.sampling.checkpoints.execute_generation`
        — bit-identical to the single pass, parallel inside a single
        workload).  Intervals served from the result cache never trigger
        generation.
        """
        from repro.sampling.checkpoints import (
            CheckpointStore,
            execute_generation,
            plan_generation,
        )

        checkpointed = [spec for spec in pending_specs
                        if getattr(spec, "checkpointed", False)]
        if not checkpointed:
            return
        store = CheckpointStore(checkpointed[0].checkpoint_dir
                                or self.checkpoint_dir)
        requests, total_identities = plan_generation(store, checkpointed)
        generated = sum(len(request.identities) for request in requests)
        self._checkpoint_stats = {
            "checkpoint_identities": total_identities,
            "checkpoint_generated": generated,
            "checkpoint_reused": total_identities - generated,
            "checkpoint_passes": len(requests),
        }
        if requests:
            self._checkpoint_stats.update(
                execute_generation(store, requests, jobs=self.jobs))

    def _execute(self, specs: List[JobSpec],
                 chunksize: Optional[int] = None,
                 before_run=None) -> List["RunRecord"]:  # noqa: F821
        """Run already-expanded specs through the cache + pool machinery.

        ``before_run`` (when given) is called with the cache-missed specs
        right before they are simulated — the hook point for the
        checkpoint-generation stage.
        """
        chunksize = _validate_chunksize(chunksize)
        self._checkpoint_stats = {}
        results: List[Optional["RunRecord"]] = [None] * len(specs)

        # Snapshot before the cache probe: quarantined blobs and
        # memory-fallback reads during lookup are part of this run's story.
        counters_before = _resilience.counters_snapshot()

        pending_indices: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        hits = 0
        if self.cache is not None:
            for i, spec in enumerate(specs):
                keys[i] = job_key(spec)
                cached = self.cache.get(keys[i])
                if cached is not None:
                    results[i] = cached
                    hits += 1
                else:
                    pending_indices.append(i)
        else:
            pending_indices = list(range(len(specs)))

        base_stats = {
            "total": len(specs),
            "cache_hits": hits,
            "simulated": len(pending_indices),
        }

        workers = 0
        scheduler_sink: Dict[str, object] = {}
        profile_dir = self._begin_profile_run(bool(pending_indices))
        try:
            if pending_indices and before_run is not None:
                before_run([specs[i] for i in pending_indices])

            workers = min(self.jobs, len(pending_indices)) \
                if pending_indices else 0
            if pending_indices:
                pending_specs = [specs[i] for i in pending_indices]
                if chunksize is None and workers > 1:
                    chunksize = max(1, min(16, math.ceil(
                        len(pending_specs) / (workers * 4))))
                dispatch_jobs = [
                    DispatchJob(index=position, payload=spec,
                                label=self._job_label(spec))
                    for position, spec in enumerate(pending_specs)]
                records, _stats = dispatch(
                    resolve_backend(workers), run_job, dispatch_jobs,
                    scope="job", chunksize=chunksize,
                    stats_sink=scheduler_sink)
            else:
                records = []
        except ExperimentFailure as failure:
            # Fail loudly *and* structuredly: the per-job report survives
            # in last_run_stats for tooling even though the run raised.
            base_stats["workers"] = max(workers, 1) if specs else 0
            base_stats["failures"] = failure.report()
            base_stats.update(_resilience.counters_delta(counters_before))
            base_stats.update(self._scheduler_stats(scheduler_sink))
            base_stats.update(self._checkpoint_stats)
            self.last_run_stats = base_stats
            raise
        except BaseException:
            # Interrupted (KeyboardInterrupt): the pool has already torn
            # its workers down; sweep the *.tmp blobs those kills may have
            # stranded so an aborted run leaks nothing.
            self._sweep_interrupted_tmp()
            raise
        finally:
            if profile_dir is not None:
                os.environ.pop("_REPRO_PROFILE_RUN", None)

        for i, record in zip(pending_indices, records):
            results[i] = record
            if self.cache is not None and keys[i] is not None:
                self.cache.put(keys[i], record)

        base_stats["workers"] = max(workers, 1) if specs else 0
        base_stats.update(_resilience.counters_delta(counters_before))
        base_stats.update(self._scheduler_stats(scheduler_sink))
        base_stats.update(self._checkpoint_stats)
        base_stats.update(self._mshr_stats(results))
        if profile_dir is not None:
            base_stats["profile"] = self._profile_stats(profile_dir)
        self.last_run_stats = base_stats
        return results  # type: ignore[return-value]

    # ---------------------------------------------------------------- profiling --

    _profile_seq = 0

    def _begin_profile_run(self, active: bool) -> Optional[str]:
        """Open a run-scoped profile directory when ``REPRO_PROFILE`` asks.

        Creates ``<root>/run-<stamp>-<pid>-<n>/`` and exports it as
        ``_REPRO_PROFILE_RUN`` so every :func:`~repro.exec.jobs.run_job`
        execution — in-process or in a worker spawned after this point —
        dumps its ``cProfile`` stats there.  Returns ``None`` (and sets
        nothing) when profiling is off or the run has nothing to
        simulate.
        """
        root = _resilience.resolve_profile_dir()
        if root is None or not active:
            return None
        ExperimentEngine._profile_seq += 1
        run_dir = os.path.join(
            root, time.strftime("run-%Y%m%d-%H%M%S")
            + f"-{os.getpid()}-{ExperimentEngine._profile_seq}")
        os.makedirs(run_dir, exist_ok=True)
        os.environ["_REPRO_PROFILE_RUN"] = run_dir
        return run_dir

    @staticmethod
    def _profile_stats(profile_dir: str, top: int = 10) -> Dict[str, object]:
        """Aggregate a run's per-job profile dumps into a hotspot summary.

        Merges every ``*.pstats`` file in the run directory and reports
        the ``top`` call sites by cumulative time — enough to spot the
        hotspot without leaving ``last_run_stats``; the raw dumps stay on
        disk for ``pstats``/``snakeviz``-style digging.  Best-effort: a
        torn dump (killed worker) degrades to whatever merged cleanly.
        """
        import pstats

        files = sorted(
            os.path.join(profile_dir, name)
            for name in os.listdir(profile_dir) if name.endswith(".pstats"))
        summary: Dict[str, object] = {
            "dir": profile_dir, "files": len(files), "top_cumulative": []}
        stats = None
        merged = 0
        for path in files:
            try:
                if stats is None:
                    stats = pstats.Stats(path)
                else:
                    stats.add(path)
                merged += 1
            except Exception:  # pragma: no cover - torn dump
                continue
        summary["files"] = merged
        if stats is None:
            return summary
        rows = []
        for (filename, lineno, funcname), entry in stats.stats.items():
            _cc, ncalls, _tt, cumtime = entry[:4]
            site = f"{os.path.basename(filename)}:{lineno}({funcname})"
            rows.append((cumtime, ncalls, site))
        rows.sort(key=lambda row: (-row[0], row[2]))
        summary["top_cumulative"] = [
            {"site": site, "cumtime_s": round(cumtime, 6), "calls": ncalls}
            for cumtime, ncalls, site in rows[:top]]
        return summary

    def _scheduler_stats(self, sink: Dict[str, object]) -> Dict[str, object]:
        """The dispatcher's observability keys, always present.

        When nothing needed dispatching the counters are zero and
        ``backend`` is ``"serial"`` (a zero-job fan-out).
        """
        if sink:
            return {key: sink[key] for key in _SCHEDULER_KEYS}
        stats: Dict[str, object] = dict.fromkeys(_SCHEDULER_KEYS, 0)
        stats["backend"] = "serial"
        return stats

    @staticmethod
    def _mshr_stats(records) -> Dict[str, int]:
        """Aggregate non-blocking-hierarchy counters over a run's records.

        Zero-valued (with ``mshr_jobs == 0``) when no job modelled MSHRs —
        the counters are always present so tooling reading
        ``last_run_stats`` needs no schema probe.
        """
        totals = {"mshr_jobs": 0, "mshr_demand_misses": 0,
                  "mshr_misses_coalesced": 0, "mshr_stall_cycles": 0,
                  "mshr_prefetch_issued": 0, "mshr_prefetch_useful": 0}
        for record in records:
            stats = getattr(getattr(record, "result", None), "stats", None)
            if stats is None or not getattr(stats, "mshr_modeled", 0):
                continue
            totals["mshr_jobs"] += 1
            totals["mshr_demand_misses"] += stats.mshr_demand_misses
            totals["mshr_misses_coalesced"] += stats.misses_coalesced
            totals["mshr_stall_cycles"] += stats.mshr_stall_cycles
            totals["mshr_prefetch_issued"] += stats.prefetch_issued
            totals["mshr_prefetch_useful"] += stats.prefetch_useful
        return totals

    @staticmethod
    def _job_label(spec) -> str:
        label = f"{spec.workload}/{spec.config_name}"
        interval = getattr(spec, "interval_index", None)
        return label if interval is None else f"{label}#{interval}"

    def _sweep_interrupted_tmp(self) -> None:
        """Remove fresh ``*.tmp`` blobs after an interrupt killed writers.

        Only called on the engine's abort path: the run is dying, its
        workers are already gone, so every temp file in its stores is
        either this run's stranded write or fair game for the stale sweep
        anyway.  Never raises.
        """
        stores = []
        if self.cache is not None:
            stores.append(self.cache)
        if self._active_checkpoint_dir is not None:
            from repro.sampling.checkpoints import CheckpointStore

            stores.append(CheckpointStore(self._active_checkpoint_dir))
        for store in stores:
            try:
                store.sweep_stale_tmp(0.0)
            except Exception:  # pragma: no cover - best effort
                pass

    # ---------------------------------------------------------------- memoizing --

    def cached(self, tag: str, payload, compute):
        """Memoise an arbitrary computation through the result cache.

        Used by analytic artifacts (Table 2) that are cheap but still worth
        keying so the trajectory tooling can tell whether anything changed.
        Falls back to calling ``compute()`` directly when caching is off.
        """
        if self.cache is None:
            return compute()
        key = generic_key(tag, payload)
        value = self.cache.get(key)
        if value is None:
            value = compute()
            self.cache.put(key, value)
        return value
