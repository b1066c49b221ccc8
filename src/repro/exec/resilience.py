"""Fault tolerance for the experiment engine and its on-disk stores.

The ROADMAP invariant — serial, parallel, cached, and checkpointed runs are
bit-identical — only means something if it survives an unhealthy machine.
This module supplies the failure semantics shared by every fan-out
(simulation jobs, sampling interval jobs, checkpoint-generation jobs):

* **Job supervision** — :func:`supervised_events` executes a job list in
  the caller's process (one worker or one job) or on a self-managed
  worker pool where every assignment carries a deadline.  A worker that
  dies (SIGKILL, OOM, a crashed C extension) or blows its per-job timeout
  is detected, killed if necessary, and respawned (pool self-healing); its
  jobs are retried with exponential backoff and deterministic jitter.
  Past a crash-death threshold the pool is declared unhealthy and the
  surviving jobs degrade to the same in-process loop.
  A sweep therefore always either completes — bit-identically, since jobs
  are deterministic by value — or fails loudly with a structured per-job
  report (:class:`ExperimentFailure`), and never hangs while a timeout is
  configured.

* **Deterministic fault injection** — ``REPRO_FAULT_PLAN`` names exact,
  reproducible fault points (worker crashes, hangs, corrupt/truncated
  blobs, write errors) so every recovery path above is CI-exercisable;
  see :func:`repro.exec.options.parse_fault_plan` for the grammar.

* **Counters** — process-local resilience counters (retries, quarantined
  blobs, degradations, ...) that pool workers ship back to the supervisor
  with each result, so ``ExperimentEngine.last_run_stats`` and the
  ``BENCH_*.json`` envelopes record recovery overhead instead of silently
  absorbing it.

The failure-semantics knobs (``REPRO_RETRIES``, ``REPRO_JOB_TIMEOUT``,
``REPRO_FAULT_PLAN``) are parsed by :mod:`repro.exec.options`, whose
docstring holds the knob table.

What is (and is not) retried: **crashes** (a worker process dying) and
**hangs** (a per-job deadline expiring) are retried — they are machine
failures, and the job is deterministic, so a retry is safe and
bit-identical.  **Exceptions raised by the job itself** are never retried:
a deterministic job that raised once will raise again, so it is reported
immediately as a permanent failure.  In-process (serial or degraded)
execution has no preemptive deadline — only pool workers can be killed —
which is why degradation is triggered by crash deaths, never by timeouts.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.exec import options as _options

__all__ = [
    "ExperimentFailure",
    "JobFailure",
    "backoff_delay",
    "count",
    "counters_delta",
    "counters_snapshot",
    "merge_counters",
    "runs_in_process",
    "supervised_events",
]


# --------------------------------------------------------------- backoff --

_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 5.0


def backoff_delay(attempt: int, token: str = "") -> float:
    """Exponential backoff with deterministic jitter for retry ``attempt``.

    ``attempt`` counts failures so far (1 for the first retry).  The jitter
    is a hash of ``(token, attempt)`` — reproducible across runs (no wall
    clock, no global RNG) while still de-synchronising simultaneous
    retries of different jobs.
    """
    exponent = max(0, attempt - 1)
    base = min(_BACKOFF_CAP_SECONDS, _BACKOFF_BASE_SECONDS * (2 ** exponent))
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    return base * (0.5 + 0.5 * digest[0] / 255.0)


# -------------------------------------------------------------- counters --

#: Process-local resilience counters.  Pool workers ship a delta back with
#: every result message; the supervisor merges worker deltas here, so the
#: parent's snapshot covers the whole run (and the ``BENCH_*.json``
#: envelopes record recovery overhead instead of silently absorbing it).
_COUNTERS: collections.Counter = collections.Counter()


def count(name: str, value: int = 1) -> None:
    """Increment a process-local resilience counter."""
    _COUNTERS[name] += value


def counters_snapshot() -> Dict[str, int]:
    """A copy of the process-local resilience counters."""
    return dict(_COUNTERS)


def counters_delta(before: Dict[str, int]) -> Dict[str, int]:
    """The counters accrued since ``before`` (a prior snapshot)."""
    return {name: value - before.get(name, 0)
            for name, value in _COUNTERS.items()
            if value != before.get(name, 0)}


def merge_counters(delta: Dict[str, int]) -> None:
    """Fold a worker-reported counter delta into this process's counters."""
    _COUNTERS.update(delta)


# ------------------------------------------------------- fault injection --

#: Exit status of an injected worker crash (recognisable in waitpid logs).
_CRASH_EXIT_STATUS = 87


def _maybe_inject_job_fault(scope: str, index: int, attempt: int,
                            deadline_active: bool) -> None:
    """Fire a planned job fault at this exact execution point, if any.

    Only pool workers call this: the in-process and degraded loops never
    inject, so a planned crash cannot take the supervisor down.
    """
    plan = _options.fault_plan()
    if plan is None:
        return
    kind = plan.job_fault(scope, index, attempt)
    if kind == "worker_crash":
        os._exit(_CRASH_EXIT_STATUS)
    if kind == "hang":
        if not deadline_active:
            # Without a deadline nobody would ever kill this worker; a
            # self-inflicted permanent hang is worse than a skipped
            # injection.
            count("fault_hang_skipped")
            return
        while True:  # the supervisor kills this worker at the deadline
            time.sleep(60.0)


# -------------------------------------------------------------- failures --

@dataclass(frozen=True)
class JobFailure:
    """One permanently failed job (retries exhausted or non-retryable)."""

    index: int
    label: str
    kind: str  # "crash" | "timeout" | "exception"
    attempts: int
    error: str

    def describe(self) -> str:
        return (f"job {self.index} ({self.label}): {self.kind} after "
                f"{self.attempts} attempt(s) — {self.error}")


class ExperimentFailure(RuntimeError):
    """Retries exhausted: a structured per-job failure report.

    Raised by :func:`supervised_events`, in-process or on the pool, after
    every *other* job has completed, so a single poisoned job never
    discards a sweep's worth of finished (and cached) work.  ``failures``
    lists each failed job with its cause; ``report()`` is the JSON-able
    form stored in ``ExperimentEngine.last_run_stats['failures']``.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        lines = "\n".join(f"  - {failure.describe()}"
                          for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} job(s) failed permanently:\n{lines}")

    def report(self) -> List[Dict[str, Any]]:
        return [dataclasses.asdict(failure) for failure in self.failures]


# ------------------------------------------------------- supervised pool --

#: Supervisor poll cadence: an upper bound on how long a finished result,
#: a dead worker, or an expired deadline can go unnoticed.  Jobs are
#: simulations lasting seconds; 50 ms of detection latency is noise.
_POLL_SECONDS = 0.05

#: Grace given to ``terminate()`` before escalating to ``kill()``.
_TERMINATE_GRACE_SECONDS = 2.0

#: Crash deaths (not timeouts) after which the pool is declared unhealthy
#: and the surviving jobs degrade to in-process serial execution, per
#: :func:`supervised_events` call: ``max(_DEGRADE_MIN_DEATHS, workers + 1)``.
_DEGRADE_MIN_DEATHS = 3


def _pool_context():
    """The ``fork`` multiprocessing context where available (cheap worker
    start-up, inherits warm per-process memos), else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _exception_line() -> str:
    """The last line of the exception being handled (``Type: message``):
    what a failure report gives for a job that raised, on every path."""
    return traceback.format_exc(limit=12).strip().splitlines()[-1]


def _worker_main(inbox, outbox, fn) -> None:
    """Supervised worker loop: one task message in, one result message out.

    A task is ``(task_id, scope, attempt, deadline_active, jobs)`` where
    ``jobs`` is a list of ``(index, payload)``.  The reply is either
    ``(task_id, "ok", [(index, result), ...], counters_delta)`` or
    ``(task_id, "error", failed_index, error_line, partial, counters_delta)``
    — exceptions never kill the worker, only crashes and kills do.
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        task_id, scope, attempt, deadline_active, jobs = message
        before = counters_snapshot()
        results: List[Tuple[int, Any]] = []
        error: Optional[Tuple[int, str]] = None
        for index, payload in jobs:
            _maybe_inject_job_fault(scope, index, attempt, deadline_active)
            try:
                results.append((index, fn(payload)))
            except BaseException:
                error = (index, _exception_line())
                break
        delta = counters_delta(before)
        if error is None:
            outbox.put((task_id, "ok", results, delta))
        else:
            outbox.put((task_id, "error", error[0], error[1], results, delta))


@dataclass
class _Assignment:
    task_id: int
    indices: List[int]
    attempt: int
    deadline: Optional[float]


class _Worker:
    """One supervised worker process plus its private inbox."""

    def __init__(self, ctx, outbox, fn) -> None:
        self.inbox = ctx.SimpleQueue()
        self.process = ctx.Process(target=_worker_main,
                                   args=(self.inbox, outbox, fn), daemon=True)
        self.process.start()
        self.assignment: Optional[_Assignment] = None

    def assign(self, assignment: _Assignment, scope: str,
               payloads: Sequence[Any]) -> None:
        self.assignment = assignment
        self.inbox.put((assignment.task_id, scope, assignment.attempt,
                        assignment.deadline is not None,
                        [(i, payloads[i]) for i in assignment.indices]))

    def stop(self) -> None:
        """Best-effort graceful stop (idle workers drain the ``None``)."""
        try:
            self.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass

    def destroy(self) -> None:
        """Unconditional teardown: terminate, escalate to kill, reap."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(_TERMINATE_GRACE_SECONDS)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join()
        else:
            process.join()
        try:
            self.inbox.close()
        except (OSError, AttributeError):  # pragma: no cover
            pass


def runs_in_process(workers: int, jobs: int) -> bool:
    """True when a fan-out of ``jobs`` over ``workers`` runs in the
    caller's process: one worker, or at most one job, starts no pool."""
    return workers <= 1 or jobs <= 1


def supervised_events(fn: Callable[[Any], Any], payloads: Sequence[Any],
                      workers: int, *, scope: str = "job",
                      labels: Optional[Sequence[str]] = None,
                      chunksize: int = 1,
                      timeout: Optional[float] = None,
                      retries: Optional[int] = None):
    """Supervised execution as a stream of scheduler events.

    Yields ``("start", index)`` when a job is handed to a worker (or
    begins in-process) and ``("done", index, value)`` as each result
    lands, in completion order.  On exhaustion it *returns* the run's
    resilience-counter delta (the ``StopIteration`` value) — or raises
    :class:`ExperimentFailure` after every other job has completed.
    :func:`repro.exec.dispatch.dispatch` consumes this stream.

    One worker or one job (:func:`runs_in_process`) runs every job in the
    caller's process, in order: no process starts, no result queue is
    created and nothing counts as degraded.  Otherwise the jobs run on a
    supervised pool of up to ``workers`` processes.  A job that raises
    fails with the exception's last line on either path, and is never
    retried.

    ``fn`` must be deterministic by value (retries re-execute it).
    ``chunksize`` batches consecutive payloads per pool assignment
    (trace-memo locality, IPC amortisation) — a failed chunk is retried
    as single-job assignments so one poisoned job never drags its
    chunk-mates through every retry.  Worker crashes and deadline expiries
    are retried (``retries``, default ``REPRO_RETRIES``; deadlines
    ``timeout`` seconds per job, default ``REPRO_JOB_TIMEOUT``) with
    exponential backoff and deterministic jitter.  Every crash respawns
    the dead worker; once crash deaths reach ``max(3, workers + 1)`` the
    pool is torn down (``pool_degraded``) and the remaining jobs run
    in-process (``degraded_serial_jobs``).

    Teardown is unconditional: leaving the generator on any path — normal
    exhaustion, ``ExperimentFailure``, ``KeyboardInterrupt`` during
    ``next()``, or an early ``close()`` — destroys every worker process.
    """
    payloads = list(payloads)
    total = len(payloads)
    if labels is None:
        labels = [f"{scope} {i}" for i in range(total)]
    else:
        labels = list(labels)

    done = [False] * total
    started = [False] * total       # dispatched at least once, per job
    attempts = [0] * total          # failed attempts so far, per job
    ready_at = [0.0] * total        # backoff gate, per job
    failures: List[JobFailure] = []
    failed = [False] * total
    stats: collections.Counter = collections.Counter()
    before_counters = counters_snapshot()

    def fail(index: int, kind: str, error: str) -> None:
        failed[index] = True
        failures.append(JobFailure(index=index, label=labels[index],
                                   kind=kind, attempts=attempts[index],
                                   error=error))

    def run_in_process(indices: Sequence[int], degraded: bool):
        """The in-process loop: a whole one-worker run, or what is left of
        a degraded pool's.  No deadline (only pool workers can be killed),
        and crash faults are worker-only, so a planned crash cannot kill
        the caller."""
        for index in indices:
            if done[index] or failed[index]:
                continue
            if degraded:
                stats["degraded_serial_jobs"] += 1
            if not started[index]:
                started[index] = True
                yield ("start", index)
            try:
                value = fn(payloads[index])
            except Exception:
                fail(index, "exception", _exception_line())
            else:
                done[index] = True
                yield ("done", index, value)

    def finish() -> Dict[str, int]:
        merge_counters(stats)
        if failures:
            raise ExperimentFailure(sorted(failures, key=lambda f: f.index))
        return counters_delta(before_counters)

    if runs_in_process(workers, total):
        yield from run_in_process(range(total), degraded=False)
        return finish()

    if timeout is None:
        timeout = _options.job_timeout()
    if retries is None:
        retries = _options.retries()
    chunksize = max(1, chunksize)
    queue: Deque[List[int]] = collections.deque(
        [list(range(start, min(start + chunksize, total)))
         for start in range(0, total, chunksize)])

    degrade_after = max(_DEGRADE_MIN_DEATHS, workers + 1)

    def retry_or_fail(indices: List[int], kind: str, error: str) -> None:
        """Requeue a failed assignment's unfinished jobs, or fail them."""
        for index in reversed(indices):
            if done[index] or failed[index]:
                continue
            attempts[index] += 1
            if attempts[index] > retries:
                fail(index, kind, error)
                continue
            stats["job_retries"] += 1
            ready_at[index] = (time.monotonic()
                               + backoff_delay(attempts[index], labels[index]))
            # Retries go to the front as singletons: the job has already
            # waited its turn once, and running it next keeps it off the
            # sweep's tail.
            queue.appendleft([index])

    ctx = _pool_context()
    outbox = ctx.Queue()
    pool: List[_Worker] = []
    task_ids = itertools.count()
    degraded = False
    crash_deaths = 0

    def handle_dead_assignment(worker: _Worker, kind: str,
                               message: str) -> None:
        nonlocal crash_deaths, degraded
        assignment = worker.assignment
        worker.assignment = None
        stats["worker_crashes" if kind == "crash" else "job_timeouts"] += 1
        if kind == "crash":
            crash_deaths += 1
        retry_or_fail(assignment.indices, kind, message)
        worker.destroy()
        pool.remove(worker)
        if kind == "crash" and crash_deaths >= degrade_after:
            degraded = True
            stats["pool_degraded"] = 1
        elif queue or any(w.assignment for w in pool) or not pool:
            stats["pool_respawns"] += 1
            pool.append(_Worker(ctx, outbox, fn))

    try:
        pool = [_Worker(ctx, outbox, fn)
                for _ in range(min(workers, len(queue)))]

        while sum(done) + sum(failed) < total:
            if degraded:
                for worker in pool:
                    if worker.assignment is not None:
                        retry_or_fail(worker.assignment.indices, "crash",
                                      "pool degraded with assignment live")
                        worker.assignment = None
                    worker.destroy()
                pool.clear()
                yield from run_in_process(
                    [i for chunk in queue for i in chunk], degraded=True)
                queue.clear()
                break

            now = time.monotonic()
            # Hand ready chunks to idle workers, in order.
            idle = [worker for worker in pool if worker.assignment is None]
            while idle and queue:
                chunk = queue[0]
                if any(ready_at[i] > now for i in chunk):
                    break  # backoff gate: keep dispatch in plan order
                queue.popleft()
                chunk = [i for i in chunk if not done[i] and not failed[i]]
                if not chunk:
                    continue
                deadline = (now + timeout * len(chunk)) if timeout else None
                worker = idle.pop(0)
                worker.assign(_Assignment(next(task_ids), chunk,
                                          attempts[chunk[0]], deadline),
                              scope, payloads)
                for index in chunk:
                    if not started[index]:
                        started[index] = True
                        yield ("start", index)

            busy = [worker for worker in pool if worker.assignment is not None]
            if not busy and not queue:
                break
            if not busy:
                # Everything is backing off; sleep to the earliest gate.
                gates = [ready_at[i] for chunk in queue for i in chunk
                         if ready_at[i] > now]
                time.sleep(min(_POLL_SECONDS * 4,
                               max(0.001, (min(gates) if gates else 0) - now)))
                continue

            try:
                message = outbox.get(timeout=_POLL_SECONDS)
            except Exception:  # queue.Empty
                message = None

            if message is not None:
                task_id = message[0]
                owner = next((worker for worker in busy
                              if worker.assignment is not None
                              and worker.assignment.task_id == task_id), None)
                if message[1] == "ok":
                    _task_id, _status, pairs, delta = message
                    merge_counters(delta)
                    if owner is not None:
                        owner.assignment = None
                    for index, value in pairs:
                        if not done[index] and not failed[index]:
                            done[index] = True
                            yield ("done", index, value)
                elif owner is not None:
                    # A job exception is permanent (deterministic jobs raise
                    # again on retry); chunk-mates after the failing job
                    # never ran, so requeue them without charging an attempt.
                    _task_id, _status, bad, error, pairs, delta = message
                    merge_counters(delta)
                    assignment = owner.assignment
                    owner.assignment = None
                    completed = [(index, value) for index, value in pairs
                                 if not done[index] and not failed[index]]
                    for index, _value in completed:
                        done[index] = True
                    fail(bad, "exception", error)
                    unstarted = [i for i in assignment.indices
                                 if i != bad and not done[i]
                                 and not failed[i]]
                    if unstarted:
                        queue.appendleft(unstarted)
                    for index, value in completed:
                        yield ("done", index, value)
                else:
                    # Stale error reply from a worker already written off
                    # as crashed/hung — its jobs are being retried; the
                    # retry will re-raise and fail them properly.
                    merge_counters(message[5])
                continue

            now = time.monotonic()
            for worker in list(pool):
                assignment = worker.assignment
                if assignment is None:
                    continue
                if not worker.process.is_alive():
                    handle_dead_assignment(
                        worker, "crash",
                        f"worker died (exit code "
                        f"{worker.process.exitcode})")
                elif assignment.deadline and now > assignment.deadline:
                    handle_dead_assignment(
                        worker, "timeout",
                        f"deadline exceeded "
                        f"({timeout * len(assignment.indices):g}s)")

        if sum(done) + sum(failed) < total:  # pragma: no cover - safety net
            yield from run_in_process(range(total), degraded=True)
    finally:
        for worker in pool:
            worker.stop()
        for worker in pool:
            worker.destroy()
        pool.clear()
        outbox.close()
        outbox.join_thread()

    return finish()
