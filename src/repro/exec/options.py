"""The one reader of the ``REPRO_*`` environment knobs.

No other module under :mod:`repro` touches ``os.environ``.
:class:`~repro.exec.engine.ExperimentEngine` parses every knob once, at
construction (:meth:`RunOptions.from_environ`), and passes the values down
as arguments, so a knob changed later does not reach its runs.  Code
called without an engine takes its default from the same parsers: a store
built without a directory, and
:func:`~repro.exec.resilience.supervised_events` called without
``retries`` or ``timeout``.  The fault plan is read where faults fire,
because it must reach the stores built inside jobs in every process;
:func:`fault_plan` memoises each plan text, so a plan's blob faults fire
at most once per key per process.

A malformed value fails with a one-line :class:`EnvKnobError` naming the
knob, the value and what to use instead.  Every knob steers execution
only: none enters a result-cache or snapshot key.

Knobs::

    REPRO_JOBS=N              worker count when neither the engine nor the
                              settings name one (default 1; <= 0: every CPU
                              available to the process).  One worker runs
                              every job in-process; more run the pool.
    REPRO_CACHE=0|1           result cache switch (unset, empty or 1: on).
    REPRO_CACHE_DIR=DIR       result cache location (default .repro-cache/).
    REPRO_CHECKPOINT_DIR=DIR  checkpoint store of sampled runs (default
                              .repro-checkpoints/).
    REPRO_RETRIES=N           retries per crashed or timed-out job
                              (default 2; 0 disables retries).
    REPRO_JOB_TIMEOUT=S       finite per-job deadline in seconds on the pool
                              path (default 3600; 0 disables deadlines).
    REPRO_FAULT_PLAN=...      deterministic fault injection, e.g.
                              "worker_crash@job:3,corrupt_blob@p=0.1,hang@shard:1"
                              (grammar: parse_fault_plan).
    REPRO_PROFILE=1|DIR       per-job cProfile dumps in a run-scoped
                              subdirectory of DIR, hotspots in the engine's
                              last_run_stats["profile"] (1: .repro-profile/;
                              unset, empty or 0: off).

Both store directories are safe to delete at any time.  ``REPRO_CHECKPOINTS``
is retired (every sampled run warms from checkpoints): unset, empty and
``1`` pass and select nothing, any other value fails.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


class EnvKnobError(ValueError):
    """A malformed ``REPRO_*`` environment knob.

    The message is a single actionable line (knob name, offending value,
    what to use instead); entry points print it and exit instead of dumping
    a traceback from the middle of a sweep.
    """


#: Default result cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default checkpoint store directory (relative to the working directory).
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: Default retries per failed (crashed or timed-out) job.
DEFAULT_RETRIES = 2

#: Default per-job deadline on the pool path, in seconds.  Generous: one
#: checkpoint-generation job replays a whole workload's warming prefix,
#: which at the paper's 10M-instruction scale runs for minutes on a slow
#: or contended host, and the deadline must never fire on a healthy
#: machine.  Chaos tests shrink it explicitly.
DEFAULT_JOB_TIMEOUT_SECONDS = 3600.0


def _env(name: str) -> str:
    """The raw value of ``name`` (``""`` when unset): the one read of the
    process environment."""
    return os.environ.get(name, "")


def _int(name: str, default: int, hint: str,
         minimum: Optional[int] = None) -> int:
    raw = _env(name).strip()
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


def _switch(name: str) -> bool:
    """An on/off switch: unset, empty or ``1`` enables, ``0`` disables."""
    raw = _env(name).strip()
    if raw in ("", "1"):
        return True
    if raw == "0":
        return False
    raise EnvKnobError(
        f"{name} must be 0 or 1 (got {raw!r}); use 0 to disable, "
        f"1 (or unset) to enable")


def cache_dir() -> str:
    """Result cache directory: ``REPRO_CACHE_DIR``, else the default."""
    return _env("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def checkpoint_dir() -> str:
    """Checkpoint store directory: ``REPRO_CHECKPOINT_DIR``, else the
    default."""
    return _env("REPRO_CHECKPOINT_DIR") or DEFAULT_CHECKPOINT_DIR


def retries() -> int:
    """Retries per failed job: ``REPRO_RETRIES``, default 2, ``>= 0``."""
    return _int("REPRO_RETRIES", DEFAULT_RETRIES,
                "use 0 to disable retries", minimum=0)


def job_timeout() -> float:
    """Per-job deadline in seconds: ``REPRO_JOB_TIMEOUT``, default 3600.

    ``0`` disables deadlines (crash detection and retries stay active).
    ``nan`` and ``inf`` are rejected: a deadline that never expires would
    let a hung worker stall the pool forever.
    """
    name = "REPRO_JOB_TIMEOUT"
    hint = "seconds per job; use 0 to disable deadlines"
    raw = _env(name).strip()
    if not raw:
        return DEFAULT_JOB_TIMEOUT_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name} must be a number (got {raw!r}); {hint}") from None
    if not math.isfinite(value):
        raise EnvKnobError(
            f"{name} must be a finite number (got {raw!r}); {hint}")
    if value < 0.0:
        raise EnvKnobError(f"{name} must be >= 0.0 (got {value:g}); {hint}")
    return value


def profile_dir() -> Optional[str]:
    """Root directory for per-job profiles (``REPRO_PROFILE``), or ``None``.

    ``None`` (unset, empty, or ``0``) disables profiling.  ``1`` profiles
    into the default ``.repro-profile/``; any other value is the directory
    itself.
    """
    raw = _env("REPRO_PROFILE").strip()
    if not raw or raw == "0":
        return None
    if raw == "1":
        return ".repro-profile"
    if os.path.isfile(raw):
        raise EnvKnobError(
            f"REPRO_PROFILE must be a directory path (got existing file "
            f"{raw!r}); use 1 for the default .repro-profile/")
    return raw


# ------------------------------------------------------------ fault plans --

#: Fault kinds injected at job boundaries (pool workers only).
JOB_FAULT_KINDS = ("worker_crash", "hang")

#: Fault kinds injected at store-blob writes (any process).
BLOB_FAULT_KINDS = ("corrupt_blob", "truncate_blob", "write_error")


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
        hang@shard:1            # hang generation job 1 until its deadline fires
        corrupt_blob@p=0.1      # corrupt ~10% of store blobs at write time
        truncate_blob@p=0.05    # truncate (partial write) ~5% of blobs
        write_error@p=0.1       # ENOSPC-style write failure on ~10% of puts
        seed=42                 # seed for the per-key blob-fault hash

    Job selectors are ``job:<index>`` (engine fan-out order over the
    cache-missed specs) and ``shard:<index>`` (checkpoint-generation job
    order: one job per workload and policy group, see
    :func:`repro.sampling.checkpoints.split_policy_groups`) — exact and
    reproducible whatever the pool scheduling does.
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


#: Parsed plans memoised by plan text: the blob-fault fired set must
#: persist across store constructions within a process (fire once per key).
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def fault_plan() -> Optional[FaultPlan]:
    """The active fault plan (``REPRO_FAULT_PLAN``), or ``None``."""
    text = _env("REPRO_FAULT_PLAN").strip()
    if not text:
        return None
    plan = _PLAN_CACHE.get(text)
    if plan is None:
        plan = _PLAN_CACHE[text] = parse_fault_plan(text)
    return plan


# ---------------------------------------------------------------- options --

@dataclass(frozen=True)
class RunOptions:
    """Every knob's value, parsed once (the table is in the module
    docstring).  ``jobs`` is the raw count: the engine maps ``<= 0`` to
    every available CPU."""

    jobs: int
    cache: bool
    cache_dir: str
    checkpoint_dir: str
    retries: int
    job_timeout: float
    profile_dir: Optional[str]
    fault_plan: Optional[FaultPlan]

    @classmethod
    def from_environ(cls) -> "RunOptions":
        """Parse every knob, failing fast with one :class:`EnvKnobError`
        line on the first malformed one."""
        checkpoints = _env("REPRO_CHECKPOINTS").strip()
        if checkpoints not in ("", "1"):
            raise EnvKnobError(
                f"REPRO_CHECKPOINTS={checkpoints!r} is not supported: "
                f"bounded functional warming was retired and every sampled "
                f"run warms from checkpoints; unset REPRO_CHECKPOINTS")
        return cls(
            jobs=_int("REPRO_JOBS", 1,
                      'use 0 or a negative value for "all CPUs"'),
            cache=_switch("REPRO_CACHE"),
            cache_dir=cache_dir(),
            checkpoint_dir=checkpoint_dir(),
            retries=retries(),
            job_timeout=job_timeout(),
            profile_dir=profile_dir(),
            fault_plan=fault_plan())
