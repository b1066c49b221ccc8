"""The experiment engine: parallel fan-out + on-disk result memoization.

:class:`ExperimentEngine` turns a list of :class:`~repro.exec.jobs.JobSpec`
into a list of :class:`~repro.harness.runner.RunRecord`, in input order,
using three layers:

* **result cache** — each spec is first looked up in a content-addressed
  on-disk cache (see :mod:`repro.exec.cache`); only misses are simulated.
* **process fan-out** — misses are executed on a ``multiprocessing`` pool.
  Workers receive specs (not traces) and rebuild traces deterministically,
  so a parallel run is bit-identical to a serial one.  With one worker (or
  one job) everything runs in-process through the same
  :func:`~repro.exec.jobs.run_job` code path.
* **sampling expansion** — specs whose settings carry a
  :class:`~repro.sampling.plan.SamplingPlan` are expanded into per-interval
  jobs before the cache/pool pass and merged back afterwards, so sampled
  sweeps parallelise and memoize at interval granularity.
* **checkpoint generation** — every sampled run warms from checkpoints
  (:mod:`repro.sampling.checkpoints`), so sampled specs get a generation
  stage between the cache probe and the fan-out: each workload group with
  cache-missed intervals deals its configurations into policy groups (up
  to the worker count divided by the number of such workload groups) and
  runs one warming pass per policy group, fanned out over the pool as
  independent jobs; the interval jobs then load snapshots.  Groups with a
  warm store skip generation entirely (the amortisation across
  configurations, sweeps, and runs).

The engine reads the ``REPRO_*`` knobs once, at construction, through
:mod:`repro.exec.options` (whose docstring holds the knob table): a
malformed knob fails construction with a one-line
:class:`~repro.exec.options.EnvKnobError`, and the values reach the
stores, the dispatcher and the profiler as arguments.

Every fan-out — this engine's job pass *and* the
checkpoint-generation stage — calls :func:`repro.exec.dispatch.dispatch`
with its worker count.  One worker or one job runs in-process; otherwise
the pool runs **supervised** (see :mod:`repro.exec.resilience`): per-job
deadlines, crash detection, retry with backoff, pool self-healing, and
degradation to the same in-process loop.  Either way a sweep completes or
raises a structured :class:`~repro.exec.resilience.ExperimentFailure`; it
never hangs and never silently drops jobs.  Scheduler observability
(``backend``, ``inflight_peak``, ``dispatch_overhead_ns``) lands in
:attr:`ExperimentEngine.last_run_stats` on every run.
"""

from __future__ import annotations

import functools
import math
import os
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.exec import resilience as _resilience
from repro.exec.cache import ResultCache, job_key
from repro.exec.dispatch import DispatchJob, dispatch
from repro.exec.jobs import IntervalJobSpec, JobSpec, run_job
from repro.exec.options import RunOptions
from repro.exec.resilience import ExperimentFailure

#: The scheduler-observability keys every run folds into
#: ``last_run_stats`` (zeroed when nothing needed dispatching, so tooling
#: needs no schema probe).
_SCHEDULER_KEYS = ("backend", "inflight_peak", "dispatch_overhead_ns")


def _validate_chunksize(chunksize) -> Optional[int]:
    """Reject malformed ``chunksize`` on every path, parallel or not.

    The serial path used to silently ignore the parameter; now a bad
    value fails identically everywhere, and an in-process run, which has
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


def resolve_jobs(jobs: int) -> int:
    """A worker count: ``jobs``, or every available CPU when ``jobs <= 0``
    (the CPUs available to this process, :func:`available_cpus`, not the
    machine total)."""
    return jobs if jobs > 0 else available_cpus()


class ExperimentEngine:
    """Runs simulation job lists with caching and process fan-out."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Union[None, bool, ResultCache] = None,
                 cache_dir: Optional[os.PathLike] = None,
                 checkpoint_dir: Optional[os.PathLike] = None) -> None:
        # The one read of the REPRO_* knobs: a malformed one fails here as
        # one actionable line, not mid-sweep (or inside a pool worker), and
        # one changed later does not reach this engine's runs.
        self._options = options = RunOptions.from_environ()
        self.jobs = resolve_jobs(options.jobs if jobs is None else jobs)
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache is False:
            self.cache = None
        elif cache is True or cache_dir is not None or options.cache:
            # An explicit cache_dir is an explicit opt-in, overriding the
            # REPRO_CACHE environment switch.
            self.cache = ResultCache(cache_dir or options.cache_dir)
        else:
            self.cache = None
        #: Checkpoint-store location for sampled specs.
        self.checkpoint_dir = checkpoint_dir or options.checkpoint_dir
        #: Statistics of the most recent :meth:`run` call.
        self.last_run_stats: Dict[str, int] = {}
        self._checkpoint_stats: Dict[str, int] = {}
        self._active_checkpoint_dir: Optional[str] = None

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
        # reset, a run with no sampled specs would re-report the
        # *previous* run's checkpoint_generated/reused/passes.
        self._checkpoint_stats = {}
        if any(self._is_sampled_spec(spec) for spec in specs):
            return self._run_expanding_sampled(specs, chunksize)
        return self._execute(specs, chunksize)

    def _run_expanding_sampled(self, specs: Sequence[JobSpec],
                               chunksize: Optional[int]) -> List["RunRecord"]:  # noqa: F821
        from repro.sampling.checkpoints import CheckpointStore
        from repro.sampling.driver import expand_sampled_spec, merge_interval_records

        checkpoint_dir = str(CheckpointStore(self.checkpoint_dir).directory)
        self._active_checkpoint_dir = checkpoint_dir
        flat: List = []
        layout: List[tuple] = []  # (base spec or None, start, count)
        for spec in specs:
            if self._is_sampled_spec(spec):
                intervals = expand_sampled_spec(spec,
                                                checkpoint_dir=checkpoint_dir)
                layout.append((spec, len(flat), len(intervals)))
                flat.extend(intervals)
            else:
                layout.append((None, len(flat), 1))
                flat.append(spec)
        # Caller chunksize heuristics target the unexpanded grid; let the
        # default heuristic balance the (much longer) interval list instead.
        flat_records = self._execute(flat, None,
                                     before_run=self._generate_checkpoints)
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
        pending intervals need, then runs one generation job per (workload,
        policy group) for the missing groups over the pool
        (:func:`repro.sampling.checkpoints.execute_generation`).  Intervals
        served from the result cache never trigger generation.
        """
        from repro.sampling.checkpoints import (
            CheckpointStore,
            execute_generation,
            plan_generation,
        )

        intervals = [spec for spec in pending_specs
                     if isinstance(spec, IntervalJobSpec)]
        if not intervals:
            return
        store = CheckpointStore(self._active_checkpoint_dir)
        requests, total_identities = plan_generation(store, intervals)
        generated = sum(len(request.identities) for request in requests)
        self._checkpoint_stats = {
            "checkpoint_identities": total_identities,
            "checkpoint_generated": generated,
            "checkpoint_reused": total_identities - generated,
            "checkpoint_passes": len(requests),
        }
        self._checkpoint_stats["checkpoint_jobs"] = execute_generation(
            requests, jobs=self.jobs, retries=self._options.retries,
            timeout=self._options.job_timeout)

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
        profile_dir = self._begin_profile_run(self._options.profile_dir,
                                              bool(pending_indices))
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
                fn = run_job if profile_dir is None else \
                    functools.partial(run_job, profile_dir=profile_dir)
                records, _stats = dispatch(
                    workers, fn,
                    [DispatchJob(spec, self._job_label(spec))
                     for spec in pending_specs],
                    scope="job", chunksize=chunksize,
                    stats_sink=scheduler_sink,
                    retries=self._options.retries,
                    timeout=self._options.job_timeout)
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

    @staticmethod
    def _begin_profile_run(root: Optional[str],
                           active: bool) -> Optional[str]:
        """Open a run-scoped profile directory under ``root``, the
        engine's ``REPRO_PROFILE`` value.

        Creates and returns ``<root>/run-<stamp>-<pid>-<n>/``; the run
        hands it to every :func:`~repro.exec.jobs.run_job` execution, in
        process or in a worker, which dumps its ``cProfile`` stats there.
        Returns ``None`` (and creates nothing) when profiling is off or
        the run has nothing to simulate.
        """
        if root is None or not active:
            return None
        ExperimentEngine._profile_seq += 1
        run_dir = os.path.join(
            root, time.strftime("run-%Y%m%d-%H%M%S")
            + f"-{os.getpid()}-{ExperimentEngine._profile_seq}")
        os.makedirs(run_dir, exist_ok=True)
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
