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
* :mod:`repro.exec.backend` / :mod:`repro.exec.dispatch` — the execution
  seam: every fan-out (engine jobs *and* sharded checkpoint generation)
  goes through one event-driven dispatcher over an
  :class:`~repro.exec.backend.ExecutionBackend` — serial for one worker,
  the supervised pool otherwise.  Both are bit-identical; scheduler
  counters surface in ``last_run_stats`` and benchmark envelopes.

Environment knobs: ``REPRO_JOBS`` (worker count, which also picks the
backend; <= 0 means all CPUs), ``REPRO_CACHE`` (``0`` disables caching),
``REPRO_CACHE_DIR`` (cache location, default ``.repro-cache/``; delete it
at any time to reset), ``REPRO_RETRIES`` / ``REPRO_JOB_TIMEOUT`` /
``REPRO_FAULT_PLAN`` (failure semantics; see :mod:`repro.exec.resilience`).
"""

from repro.exec.backend import (
    DispatchJob,
    ExecutionBackend,
    SerialBackend,
    SupervisedPoolBackend,
    resolve_backend,
)

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    generic_key,
    job_key,
)
from repro.exec.dispatch import (
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
from repro.exec.resilience import (
    EnvKnobError,
    ExperimentFailure,
    JobFailure,
    parse_fault_plan,
    resolve_job_timeout,
    resolve_retries,
    supervised_events,
    validate_environment,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DispatchJob",
    "DispatchStats",
    "EnvKnobError",
    "ExecutionBackend",
    "ExperimentEngine",
    "ExperimentFailure",
    "JobFailure",
    "SerialBackend",
    "SupervisedPoolBackend",
    "available_cpus",
    "dispatch",
    "IntervalJobSpec",
    "JobSpec",
    "ResultCache",
    "generic_key",
    "job_key",
    "parse_fault_plan",
    "resolve_backend",
    "resolve_job_timeout",
    "resolve_jobs",
    "resolve_retries",
    "run_job",
    "scheduler_counters",
    "simulator_fingerprint",
    "supervised_events",
    "timing_fingerprint",
    "validate_environment",
    "workload_fingerprint",
]
