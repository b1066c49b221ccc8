"""Execution backends: one dispatch seam under every fan-out.

Both engine fan-outs — simulation jobs and checkpoint generation —
speak one protocol: an :class:`ExecutionBackend` accepts a list of
:class:`DispatchJob` and yields ``("start", index)`` / ``("done", index,
value)`` completion events, consumed by
:func:`repro.exec.dispatch.dispatch`.

One host needs two backends, and the worker count picks between them
(:func:`resolve_backend`).  Both are **bit-identical** on every workload
(jobs are pure functions of their spec):

* :class:`SerialBackend` — one worker: the in-process reference.  Runs
  jobs in input order; failure semantics match the supervised pool's
  degraded-serial path (exceptions are collected per job, the rest of the
  sweep completes, then one structured
  :class:`~repro.exec.resilience.ExperimentFailure`).
* :class:`SupervisedPoolBackend` — two or more workers: forwards the
  :func:`~repro.exec.resilience.supervised_events` stream (per-job
  deadlines, crash retry, pool self-healing, degradation, fault plans).

Jobs are independent: no job waits for another, so a backend may run
them in any order and in parallel.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.exec import resilience as _resilience
from repro.exec.resilience import ExperimentFailure, JobFailure

__all__ = [
    "DispatchJob",
    "ExecutionBackend",
    "SerialBackend",
    "SupervisedPoolBackend",
    "resolve_backend",
]


@dataclass(frozen=True)
class DispatchJob:
    """One schedulable unit: an index, a payload, and a label.

    ``index`` must equal the job's position in the submitted list (results
    are addressed by it).
    """

    index: int
    payload: Any
    label: str = ""


class ExecutionBackend:
    """Protocol: ``submit(fn, jobs)`` yields completion events.

    Events are ``("start", index)`` and ``("done", index, value)``;
    exactly one ``done`` per job on success.  Permanent job failures are
    collected and raised as one
    :class:`~repro.exec.resilience.ExperimentFailure` *after* every other
    job has completed (never a hang, never a silent drop).  Abandoning
    the iterator (``close()``) tears the backend's workers down — the
    generator ``finally`` blocks are the lifecycle.
    """

    #: Backend name reported as ``last_run_stats["backend"]``.
    name: str
    #: Resilience-counter delta of the most recent completed ``submit``
    #: (e.g. ``job_retries``); empty until one finishes.
    last_submit_stats: Dict[str, int]

    def submit(self, fn: Callable[[Any], Any], jobs: Sequence[DispatchJob],
               *, scope: str = "job",
               chunksize: Optional[int] = None) -> Iterator[tuple]:
        raise NotImplementedError


def _check_jobs(jobs: Sequence[DispatchJob]) -> List[DispatchJob]:
    jobs = list(jobs)
    for position, job in enumerate(jobs):
        if job.index != position:
            raise ValueError(
                f"job at position {position} carries index {job.index}; "
                f"DispatchJob.index must equal the list position")
    return jobs


# ------------------------------------------------------------------ serial --

class SerialBackend(ExecutionBackend):
    """The in-process reference backend (one worker).

    Runs jobs in input order.  The failure semantics mirror the supervised
    pool's degraded-serial path: per-job exceptions are collected, the
    remaining jobs complete, then one structured :class:`ExperimentFailure`
    is raised.  ``chunksize`` is a no-op (there is no assignment to batch).
    """

    name = "serial"

    def __init__(self) -> None:
        self.last_submit_stats = {}

    def submit(self, fn, jobs, *, scope="job", chunksize=None):
        jobs = _check_jobs(jobs)
        before = _resilience.counters_snapshot()
        failures: List[JobFailure] = []
        for job in jobs:
            yield ("start", job.index)
            try:
                value = fn(job.payload)
            except Exception:
                text = traceback.format_exc(limit=12)
                failures.append(JobFailure(
                    index=job.index,
                    label=job.label or f"{scope} {job.index}",
                    kind="exception", attempts=0,
                    error=text.strip().splitlines()[-1]))
            else:
                yield ("done", job.index, value)
        self.last_submit_stats = _resilience.counters_delta(before)
        if failures:
            raise ExperimentFailure(failures)


# --------------------------------------------------------- supervised pool --

class SupervisedPoolBackend(ExecutionBackend):
    """The supervised worker pool behind the seam (two or more workers).

    Forwards :func:`~repro.exec.resilience.supervised_events` — one
    scheduler implementation, not a copy — so deadlines, crash retry,
    self-healing, degradation, and fault plans all apply unchanged.
    ``timeout`` and ``retries`` default to ``REPRO_JOB_TIMEOUT`` and
    ``REPRO_RETRIES``.
    """

    name = "supervised-pool"

    def __init__(self, workers: int, *, timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> None:
        self.workers = max(1, int(workers))
        self._timeout = timeout
        self._retries = retries
        self.last_submit_stats = {}

    def submit(self, fn, jobs, *, scope="job", chunksize=None):
        jobs = _check_jobs(jobs)
        stats = yield from _resilience.supervised_events(
            fn, [job.payload for job in jobs], self.workers, scope=scope,
            labels=[job.label or f"{scope} {job.index}" for job in jobs],
            chunksize=1 if chunksize is None else max(1, int(chunksize)),
            timeout=self._timeout, retries=self._retries)
        self.last_submit_stats = dict(stats or {})


# -------------------------------------------------------------- resolution --

def resolve_backend(workers: int) -> ExecutionBackend:
    """The backend a fan-out of ``workers`` runs on: serial for one
    worker, the supervised pool otherwise.  Both are bit-identical; only
    wall-clock and failure-recovery behaviour differ."""
    if workers > 1:
        return SupervisedPoolBackend(workers)
    return SerialBackend()
