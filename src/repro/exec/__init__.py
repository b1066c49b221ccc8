"""Execution subsystem: parallel experiment engine + result caching.

This package is the performance substrate under every timing experiment:

* :class:`~repro.exec.jobs.JobSpec` — one ``(workload, configuration)``
  simulation described by value (specs travel to workers; traces do not).
* :class:`~repro.exec.engine.ExperimentEngine` — runs spec lists with an
  on-disk result cache and a ``multiprocessing`` fan-out.  Serial, parallel,
  and cached runs are bit-identical.
* :class:`~repro.exec.cache.ResultCache` — content-addressed memoization
  keyed by trace fingerprint, configuration, settings, and simulator source
  fingerprints.
* :class:`~repro.exec.jobs.IntervalJobSpec` — one measurement interval of a
  statistically sampled run (``settings.sampling``); the engine expands
  sampled specs into interval jobs, fans them out, caches each one
  independently, and merges the records deterministically (see
  :mod:`repro.sampling`).

* :mod:`repro.exec.resilience` — failure semantics for all of the above:
  supervised pool fan-out (per-job timeouts, crash detection, retry with
  backoff, pool self-healing, degradation to serial), integrity-checked
  store blobs with quarantine-and-recompute, and deterministic fault
  injection (``REPRO_FAULT_PLAN``) that proves faulted runs stay
  bit-identical.
* :mod:`repro.exec.dispatch` — every fan-out (engine jobs *and*
  checkpoint generation) goes through :func:`~repro.exec.dispatch.dispatch`
  with a worker count: one worker or one job runs in the caller's
  process, two or more workers over two or more jobs run the supervised
  pool, bit-identically.  Scheduler counters surface in
  ``last_run_stats`` and benchmark envelopes.
* :mod:`repro.exec.options` — the one reader of the ``REPRO_*``
  environment knobs (its docstring holds the knob table): the engine
  parses them once, at construction, into a
  :class:`~repro.exec.options.RunOptions` and passes the values down.
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    job_key,
)
from repro.exec.dispatch import (
    DispatchJob,
    DispatchStats,
    dispatch,
    scheduler_counters,
)
from repro.exec.engine import ExperimentEngine, available_cpus, resolve_jobs
from repro.exec.fingerprint import (
    simulator_fingerprint,
    timing_fingerprint,
    workload_fingerprint,
)
from repro.exec.jobs import IntervalJobSpec, JobSpec, run_job
from repro.exec.options import (
    DEFAULT_CACHE_DIR,
    EnvKnobError,
    parse_fault_plan,
)
from repro.exec.resilience import (
    ExperimentFailure,
    JobFailure,
    supervised_events,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DispatchJob",
    "DispatchStats",
    "EnvKnobError",
    "ExperimentEngine",
    "ExperimentFailure",
    "JobFailure",
    "available_cpus",
    "dispatch",
    "IntervalJobSpec",
    "JobSpec",
    "ResultCache",
    "job_key",
    "parse_fault_plan",
    "resolve_jobs",
    "run_job",
    "scheduler_counters",
    "simulator_fingerprint",
    "supervised_events",
    "timing_fingerprint",
    "workload_fingerprint",
]
