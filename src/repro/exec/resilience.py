"""Fault tolerance for the experiment engine and its on-disk stores.

The ROADMAP invariant — serial, parallel, cached, and checkpointed runs are
bit-identical — only means something if it survives an unhealthy machine.
This module supplies the failure semantics shared by every pool fan-out
(simulation jobs, sampling interval jobs, checkpoint shard jobs):

* **Job supervision** — :func:`supervised_events` executes a job list on
  a self-managed worker pool where every assignment carries a deadline.  A
  worker that dies (SIGKILL, OOM, a crashed C extension) or blows its
  per-job timeout is detected, killed if necessary, and respawned (pool
  self-healing); its jobs are retried with exponential backoff and
  deterministic jitter.  Past a crash-death threshold the pool is declared
  unhealthy and the surviving jobs degrade to in-process serial execution.
  A sweep therefore always either completes — bit-identically, since jobs
  are deterministic by value — or fails loudly with a structured per-job
  report (:class:`ExperimentFailure`), and never hangs while a timeout is
  configured.

* **Deterministic fault injection** — ``REPRO_FAULT_PLAN`` names exact,
  reproducible fault points (worker crashes, hangs, corrupt/truncated
  blobs, write errors) so every recovery path above is CI-exercisable;
  see :func:`parse_fault_plan` for the grammar.

* **Environment-knob validation** — every ``REPRO_*`` knob resolves
  through :class:`EnvKnobError`-raising parsers, so a malformed value
  (``REPRO_JOBS=abc``, a negative shard count) fails fast with a one-line
  actionable message instead of a deep traceback from the middle of a run.

* **Counters** — process-local resilience counters (retries, quarantined
  blobs, degradations, ...) that pool workers ship back to the supervisor
  with each result, so ``ExperimentEngine.last_run_stats`` and the
  ``BENCH_*.json`` envelopes record recovery overhead instead of silently
  absorbing it.

Environment knobs (all execution-only — none participates in result-cache
or snapshot keys, exactly like ``REPRO_JOBS`` / ``REPRO_CHECKPOINT_SHARDS``)::

    REPRO_RETRIES=N       # retries per failed job (default 2; 0 disables)
    REPRO_JOB_TIMEOUT=S   # per-job deadline in seconds on the pool path
                          # (default 3600; 0 disables deadlines)
    REPRO_FAULT_PLAN=...  # deterministic fault injection, e.g.
                          # "worker_crash@job:3,corrupt_blob@p=0.1,hang@shard:1"
    REPRO_PROFILE=...     # when set, jobs run under cProfile and dump
                          # per-worker stats into a run-scoped directory

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

__all__ = [
    "EnvKnobError",
    "ExperimentFailure",
    "FaultClause",
    "FaultPlan",
    "JobFailure",
    "backoff_delay",
    "count",
    "counters_delta",
    "counters_snapshot",
    "current_fault_plan",
    "in_pool_worker",
    "mark_pool_worker",
    "merge_counters",
    "parse_fault_plan",
    "reset_counters",
    "resolve_job_timeout",
    "resolve_profile_dir",
    "resolve_retries",
    "supervised_events",
    "validate_environment",
]


# ------------------------------------------------------------- env knobs --

class EnvKnobError(ValueError):
    """A malformed ``REPRO_*`` environment knob.

    The message is a single actionable line (knob name, offending value,
    what to use instead); entry points print it and exit instead of dumping
    a traceback from the middle of a sweep.
    """


def _env_int(name: str, default: int, hint: str,
             minimum: Optional[int] = None) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name} must be an integer (got {raw!r}); {hint}") from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name} must be >= {minimum} (got {value}); {hint}")
    return value


def _env_float(name: str, default: float, hint: str,
               minimum: Optional[float] = None) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name} must be a number (got {raw!r}); {hint}") from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"{name} must be >= {minimum} (got {value:g}); {hint}")
    return value


#: Default retries per failed (crashed or timed-out) job.
DEFAULT_RETRIES = 2

#: Default per-job deadline on the pool path, in seconds.  Generous: a
#: checkpoint shard job legitimately waits up to
#: :data:`repro.sampling.checkpoints._BOUNDARY_WAIT_SECONDS` for its stitch
#: handoff before walking back, and the deadline must never fire on a
#: healthy machine.  Chaos tests shrink it explicitly.
DEFAULT_JOB_TIMEOUT_SECONDS = 3600.0


def resolve_retries() -> int:
    """Retries per failed job: ``REPRO_RETRIES``, default 2, ``>= 0``."""
    return _env_int("REPRO_RETRIES", DEFAULT_RETRIES,
                    "use 0 to disable retries", minimum=0)


def resolve_job_timeout() -> float:
    """Per-job deadline in seconds: ``REPRO_JOB_TIMEOUT``, default 3600.

    ``0`` disables deadlines (crash detection and retries stay active).
    """
    return _env_float("REPRO_JOB_TIMEOUT", DEFAULT_JOB_TIMEOUT_SECONDS,
                      "seconds per job; use 0 to disable deadlines",
                      minimum=0.0)


def resolve_profile_dir() -> Optional[str]:
    """Root directory for per-worker profiles (``REPRO_PROFILE``), or ``None``.

    ``None`` (unset, empty, or ``0``) disables profiling.  ``1`` profiles
    into the default ``.repro-profile/``; any other value is the directory
    itself.  When enabled, every job runs under :mod:`cProfile`, each
    worker dumps its stats files into a run-scoped subdirectory, and
    ``ExperimentEngine.last_run_stats`` reports the top cumulative
    hotspots — so the next performance PR starts from data, not guesses.
    """
    raw = os.environ.get("REPRO_PROFILE", "").strip()
    if not raw or raw == "0":
        return None
    if raw == "1":
        return ".repro-profile"
    if os.path.isfile(raw):
        raise EnvKnobError(
            f"REPRO_PROFILE must be a directory path (got existing file "
            f"{raw!r}); use 1 for the default .repro-profile/")
    return raw


def validate_environment() -> Dict[str, Any]:
    """Resolve every execution-affecting ``REPRO_*`` knob, failing fast.

    Called once per :class:`~repro.exec.engine.ExperimentEngine`
    construction so a malformed knob surfaces before any simulation work
    starts, as one :class:`EnvKnobError` line.  Returns the resolved
    values (useful for reports and docs smoke tests).
    """
    resolved: Dict[str, Any] = {
        "jobs_env": _env_int("REPRO_JOBS", 1,
                             'use 0 or a negative value for "all CPUs"'),
        "checkpoint_shards": _env_int(
            "REPRO_CHECKPOINT_SHARDS", 0,
            "use 0 (or unset) to size shards from the worker count",
            minimum=0),
        "retries": resolve_retries(),
        "job_timeout": resolve_job_timeout(),
        "profile_dir": resolve_profile_dir(),
    }
    resolved["fault_plan"] = current_fault_plan()
    return resolved


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


def reset_counters() -> None:
    """Zero the process-local counters (test isolation)."""
    _COUNTERS.clear()


# ------------------------------------------------------- fault injection --

#: Fault kinds injected at job boundaries (pool workers only).
JOB_FAULT_KINDS = ("worker_crash", "hang")

#: Fault kinds injected at store-blob writes (any process).
BLOB_FAULT_KINDS = ("corrupt_blob", "truncate_blob", "write_error")

#: Exit status of an injected worker crash (recognisable in waitpid logs).
_CRASH_EXIT_STATUS = 87


@dataclass(frozen=True)
class FaultClause:
    """One parsed ``kind@selector`` clause of a fault plan."""

    kind: str
    #: ``"job"`` or ``"shard"`` for job faults, ``None`` for blob faults.
    scope: Optional[str] = None
    #: Target index for job faults (the job's position in its fan-out).
    index: Optional[int] = None
    #: Per-key probability for blob faults.
    probability: Optional[float] = None
    #: How many attempts of the target job fault (``worker_crash@job:3*2``
    #: crashes the first two attempts, exercising multi-retry recovery).
    attempts: int = 1


class FaultPlan:
    """A parsed, seeded, deterministic fault-injection plan.

    Job faults fire on exact ``(scope, index, attempt)`` coordinates; blob
    faults fire per store key through a seeded hash, at most once per key
    per process (so a recompute-after-quarantine converges instead of
    corrupting its own repair forever).
    """

    def __init__(self, clauses: Sequence[FaultClause], seed: int = 0,
                 text: str = "") -> None:
        self.clauses = tuple(clauses)
        self.seed = seed
        self.text = text
        self._fired_blob_keys: set = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.text!r})"

    def job_fault(self, scope: str, index: int, attempt: int) -> Optional[str]:
        """The fault kind to inject for this job attempt, or ``None``."""
        for clause in self.clauses:
            if (clause.kind in JOB_FAULT_KINDS and clause.scope == scope
                    and clause.index == index and attempt < clause.attempts):
                return clause.kind
        return None

    def blob_fault(self, key: str) -> Optional[str]:
        """The fault kind to inject for this blob write, or ``None``.

        Deterministic per ``(seed, kind, key)``; fires at most once per key
        per process so repaired entries stay repaired.
        """
        for clause in self.clauses:
            if clause.kind not in BLOB_FAULT_KINDS or not clause.probability:
                continue
            digest = hashlib.sha256(
                f"{self.seed}:{clause.kind}:{key}".encode()).digest()
            draw = int.from_bytes(digest[:8], "big") / 2 ** 64
            if draw < clause.probability and key not in self._fired_blob_keys:
                self._fired_blob_keys.add(key)
                return clause.kind
        return None


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULT_PLAN`` string.

    Grammar (comma-separated clauses)::

        worker_crash@job:3      # crash the worker on job 3's first attempt
        worker_crash@job:3*2    # ... on its first two attempts
        hang@shard:1            # hang shard job 1 until its deadline fires
        corrupt_blob@p=0.1      # corrupt ~10% of store blobs at write time
        truncate_blob@p=0.05    # truncate (partial write) ~5% of blobs
        write_error@p=0.1       # ENOSPC-style write failure on ~10% of puts
        seed=42                 # seed for the per-key blob-fault hash

    Job selectors are ``job:<index>`` (engine fan-out order over the
    cache-missed specs) and ``shard:<index>`` (checkpoint shard-job plan
    order) — exact and reproducible whatever the pool scheduling does.
    """
    clauses: List[FaultClause] = []
    seed = 0
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):])
            except ValueError:
                raise EnvKnobError(
                    f"REPRO_FAULT_PLAN seed must be an integer "
                    f"(got {part!r})") from None
            continue
        kind, sep, selector = part.partition("@")
        if not sep or kind not in JOB_FAULT_KINDS + BLOB_FAULT_KINDS:
            raise EnvKnobError(
                f"REPRO_FAULT_PLAN clause {part!r} is not "
                f"'<kind>@<selector>' with kind in "
                f"{JOB_FAULT_KINDS + BLOB_FAULT_KINDS}")
        if kind in BLOB_FAULT_KINDS:
            if not selector.startswith("p="):
                raise EnvKnobError(
                    f"REPRO_FAULT_PLAN clause {part!r}: blob faults take a "
                    f"probability selector, e.g. {kind}@p=0.1")
            try:
                probability = float(selector[2:])
            except ValueError:
                raise EnvKnobError(
                    f"REPRO_FAULT_PLAN clause {part!r}: bad probability "
                    f"{selector[2:]!r}") from None
            if not 0.0 <= probability <= 1.0:
                raise EnvKnobError(
                    f"REPRO_FAULT_PLAN clause {part!r}: probability must "
                    f"be in [0, 1]")
            clauses.append(FaultClause(kind=kind, probability=probability))
            continue
        attempts = 1
        selector, star, repeat = selector.partition("*")
        if star:
            try:
                attempts = int(repeat)
            except ValueError:
                raise EnvKnobError(
                    f"REPRO_FAULT_PLAN clause {part!r}: bad repeat "
                    f"count {repeat!r}") from None
        scope, colon, index_text = selector.partition(":")
        if not colon or scope not in ("job", "shard"):
            raise EnvKnobError(
                f"REPRO_FAULT_PLAN clause {part!r}: job faults take "
                f"'job:<index>' or 'shard:<index>' selectors")
        try:
            index = int(index_text)
        except ValueError:
            raise EnvKnobError(
                f"REPRO_FAULT_PLAN clause {part!r}: bad index "
                f"{index_text!r}") from None
        clauses.append(FaultClause(kind=kind, scope=scope, index=index,
                                   attempts=attempts))
    return FaultPlan(clauses, seed=seed, text=text)


#: Parsed plans memoized by plan text — the blob-fault fired set must
#: persist across store constructions within a process (fire once per key).
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def current_fault_plan() -> Optional[FaultPlan]:
    """The active fault plan (``REPRO_FAULT_PLAN``), or ``None``."""
    text = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    if not text:
        return None
    plan = _PLAN_CACHE.get(text)
    if plan is None:
        plan = parse_fault_plan(text)
        _PLAN_CACHE[text] = plan
    return plan


#: True inside a supervised pool worker.  Process-killing job faults only
#: fire here — never in the supervisor or in degraded serial execution,
#: where a crash would take the whole engine down.
_IN_POOL_WORKER = False


def in_pool_worker() -> bool:
    """Whether this process is a supervised pool worker."""
    return _IN_POOL_WORKER


def mark_pool_worker() -> None:
    """Declare this process a supervised pool worker.

    Called from worker entry points only; enables the process-killing job
    faults that must never fire in a supervisor or degraded-serial context.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def _maybe_inject_job_fault(scope: str, index: int, attempt: int,
                            deadline_active: bool) -> None:
    """Fire a planned job fault at this exact execution point, if any."""
    plan = current_fault_plan()
    if plan is None or not _IN_POOL_WORKER:
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

    Raised by every backend after every *other* job has completed,
    so a single poisoned job never discards a sweep's worth of finished
    (and cached) work.  ``failures`` lists each failed job with its cause;
    ``report()`` is the JSON-able form stored in
    ``ExperimentEngine.last_run_stats['failures']``.
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


def _worker_main(inbox, outbox, fn) -> None:
    """Supervised worker loop: one task message in, one result message out.

    A task is ``(task_id, scope, attempt, deadline_active, jobs)`` where
    ``jobs`` is a list of ``(index, payload)``.  The reply is either
    ``(task_id, "ok", [(index, result), ...], counters_delta)`` or
    ``(task_id, "error", failed_index, traceback, partial, counters_delta)``
    — exceptions never kill the worker, only crashes and kills do.
    """
    mark_pool_worker()
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
                error = (index, traceback.format_exc(limit=12))
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


def supervised_events(fn: Callable[[Any], Any], payloads: Sequence[Any],
                      workers: int, *, scope: str = "job",
                      labels: Optional[Sequence[str]] = None,
                      chunksize: int = 1,
                      timeout: Optional[float] = None,
                      retries: Optional[int] = None,
                      deps: Optional[Sequence[Sequence[int]]] = None):
    """Supervised execution as a stream of scheduler events.

    Yields ``("start", index)`` when a job is handed to a worker (or
    begins in-process) and ``("done", index, value)`` as each result
    lands, in completion order.  On exhaustion it *returns* the run's
    resilience-counter delta (the ``StopIteration`` value) — or raises
    :class:`ExperimentFailure` after every other job has completed.
    :class:`~repro.exec.backend.SupervisedPoolBackend` forwards this
    stream to the :mod:`repro.exec.dispatch` layer.

    ``fn`` must be deterministic by value (retries re-execute it).
    ``chunksize`` batches consecutive payloads per assignment (trace-memo
    locality, IPC amortisation) — a failed chunk is retried as single-job
    assignments so one poisoned job never drags its chunk-mates through
    every retry.  Worker crashes and deadline expiries are retried
    (``retries``, default ``REPRO_RETRIES``) with exponential backoff and
    deterministic jitter; job exceptions are permanent immediately.  Every
    crash respawns the dead worker; once crash deaths reach
    ``max(3, workers + 1)`` the pool is torn down and the remaining jobs
    run serially in-process.

    ``deps`` (optional, one index sequence per job, each ``dep < index``)
    makes the dispatch-ordering contract explicit: a chunk is not handed
    to a worker until every dependency of its jobs has been *dispatched*
    (a dependency inside the chunk runs ahead of its job in the worker).
    Dispatch-gating (not completion-gating) preserves the checkpoint
    chains' compose-ahead overlap — a consumer may run concurrently with
    its producer and wait in-worker for the boundary handoff — while
    turning what used to be pool-FIFO luck into an enforced invariant.

    Teardown is unconditional: leaving the generator on any path — normal
    exhaustion, ``ExperimentFailure``, ``KeyboardInterrupt`` during
    ``next()``, or an early ``close()`` — destroys every worker process.
    """
    payloads = list(payloads)
    total = len(payloads)
    if timeout is None:
        timeout = resolve_job_timeout()
    if retries is None:
        retries = resolve_retries()
    if labels is None:
        labels = [f"{scope} {i}" for i in range(total)]
    else:
        labels = list(labels)
    if deps is not None:
        deps = [tuple(job_deps) for job_deps in deps]
        for index, job_deps in enumerate(deps):
            for dep in job_deps:
                if not 0 <= dep < index:
                    raise ValueError(
                        f"job {index} depends on {dep}: dependencies must "
                        f"point at earlier jobs (topological input order)")

    done = [False] * total
    started = [False] * total       # dispatched at least once, per job
    attempts = [0] * total          # failed attempts so far, per job
    ready_at = [0.0] * total        # backoff gate, per job
    failures: List[JobFailure] = []
    failed = [False] * total
    stats: collections.Counter = collections.Counter()
    before_counters = counters_snapshot()

    chunksize = max(1, chunksize)
    queue: Deque[List[int]] = collections.deque(
        [list(range(start, min(start + chunksize, total)))
         for start in range(0, total, chunksize)])

    degrade_after = max(_DEGRADE_MIN_DEATHS, workers + 1)

    def fail(index: int, kind: str, error: str) -> None:
        failed[index] = True
        failures.append(JobFailure(index=index, label=labels[index],
                                   kind=kind, attempts=attempts[index],
                                   error=error))

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
            # Retries go to the front as singletons: a shard-chain producer
            # must be redispatched before its consumers give up waiting.
            queue.appendleft([index])

    def run_serially(indices: Sequence[int]):
        """Degraded in-process execution (no deadline; crash faults are
        worker-only, so a planned crash cannot kill the supervisor).
        Index order respects ``deps`` because dependencies point earlier."""
        for index in indices:
            if done[index] or failed[index]:
                continue
            stats["degraded_serial_jobs"] += 1
            if not started[index]:
                started[index] = True
                yield ("start", index)
            try:
                value = fn(payloads[index])
            except Exception:
                fail(index, "exception", traceback.format_exc(limit=12))
            else:
                done[index] = True
                yield ("done", index, value)

    def blocked_on_deps(chunk: List[int]) -> bool:
        """Whether any job in ``chunk`` has an undispatched dependency.

        A dependency inside the chunk itself never blocks: a worker runs
        its chunk in index order, so the dependency is dispatched together
        with, and ahead of, the job that needs it.
        """
        if deps is None:
            return False
        return any(d not in chunk and not (started[d] or done[d] or failed[d])
                   for i in chunk for d in deps[i])

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
        if workers > 1 and total > 1:
            pool = [_Worker(ctx, outbox, fn)
                    for _ in range(min(workers, len(queue)))]
        else:
            degraded = True

        while sum(done) + sum(failed) < total:
            if degraded:
                for worker in pool:
                    if worker.assignment is not None:
                        retry_or_fail(worker.assignment.indices, "crash",
                                      "pool degraded with assignment live")
                        worker.assignment = None
                    worker.destroy()
                pool.clear()
                yield from run_serially(
                    [i for chunk in queue for i in chunk])
                queue.clear()
                break

            now = time.monotonic()
            # Hand ready chunks to idle workers, in order.
            idle = [worker for worker in pool if worker.assignment is None]
            while idle and queue:
                chunk = queue[0]
                if any(ready_at[i] > now for i in chunk):
                    break  # backoff gate: keep dispatch in plan order
                if blocked_on_deps(chunk):
                    break  # dependency gate: hold plan order
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
                    _task_id, _status, bad, text, pairs, delta = message
                    merge_counters(delta)
                    assignment = owner.assignment
                    owner.assignment = None
                    completed = [(index, value) for index, value in pairs
                                 if not done[index] and not failed[index]]
                    for index, _value in completed:
                        done[index] = True
                    fail(bad, "exception", text.strip().splitlines()[-1])
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
            yield from run_serially(range(total))
    finally:
        for worker in pool:
            worker.stop()
        for worker in pool:
            worker.destroy()
        pool.clear()
        outbox.close()
        outbox.join_thread()

    merge_counters(stats)
    run_stats = counters_delta(before_counters)
    if failures:
        raise ExperimentFailure(sorted(failures, key=lambda f: f.index))
    return run_stats

