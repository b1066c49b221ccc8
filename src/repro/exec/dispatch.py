"""The dispatcher under every fan-out.

:func:`dispatch` is the one call every fan-out site uses (engine jobs and
checkpoint generation): it runs a job list over a worker count through
:func:`~repro.exec.resilience.supervised_events`, consumes its
``("start", i)`` / ``("done", i, value)`` event stream, assembles results
by position, and measures *its own* overhead — the nanoseconds spent
handling events, not the time spent computing — so ``BENCH_engine.json``
can pin "dispatch costs < 3% of the parallel sweep" as a number instead
of a hope.  One worker or one job runs in the caller's process
(``"serial"``); two or more workers over two or more jobs run the
supervised pool (``"supervised-pool"``).

Scheduler observability: every run fills a :class:`DispatchStats`
(``backend``, ``inflight_peak``, ``dispatch_overhead_ns``) — surfaced in
the engine's ``last_run_stats`` and, via :func:`scheduler_counters`, in
every ``BENCH_*.json`` envelope.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.resilience import runs_in_process, supervised_events

__all__ = [
    "DispatchJob",
    "DispatchStats",
    "dispatch",
    "scheduler_counters",
]


@dataclass(frozen=True)
class DispatchJob:
    """One schedulable unit: a payload and the label a failure report
    names it by (empty: ``"<scope> <position>"``)."""

    payload: Any
    label: str = ""


@dataclass(frozen=True)
class DispatchStats:
    """Scheduling counters for one :func:`dispatch` run."""

    backend: str
    inflight_peak: int
    dispatch_overhead_ns: int
    #: Resilience-counter delta of this run (retries, respawns, ...);
    #: empty for a clean run, and for one that raised.
    counters: Dict[str, int]

    def flat(self) -> Dict[str, Any]:
        """The merged flat mapping the engine folds into ``last_run_stats``."""
        merged: Dict[str, Any] = dict(self.counters)
        merged.update({
            "backend": self.backend,
            "inflight_peak": self.inflight_peak,
            "dispatch_overhead_ns": self.dispatch_overhead_ns,
        })
        return merged


# Process-wide scheduler totals, mirrored into every benchmark envelope
# (same pattern as the resilience counters).
_SCHED: Dict[str, int] = {}
_SCHED_LOCK = threading.Lock()


def _sched_count(name: str, value: int = 1) -> None:
    with _SCHED_LOCK:
        _SCHED[name] = _SCHED.get(name, 0) + value


def scheduler_counters() -> Dict[str, int]:
    """Cumulative dispatcher totals for this process (for envelopes)."""
    with _SCHED_LOCK:
        return dict(_SCHED)


def dispatch(workers: int, fn: Callable[[Any], Any],
             jobs: Sequence[DispatchJob], *, scope: str = "job",
             chunksize: Optional[int] = None,
             stats_sink: Optional[Dict[str, Any]] = None,
             retries: Optional[int] = None,
             timeout: Optional[float] = None,
             ) -> Tuple[List[Any], DispatchStats]:
    """Run ``jobs`` over ``workers``; return ``(results, stats)`` in order.

    ``results[i]`` is the value of ``fn(jobs[i].payload)``.  Failure
    semantics are :func:`~repro.exec.resilience.supervised_events`'s:
    every other job completes, then one
    :class:`~repro.exec.resilience.ExperimentFailure` is raised.
    ``retries`` and ``timeout`` go to it unchanged (``None``: the
    ``REPRO_RETRIES`` / ``REPRO_JOB_TIMEOUT`` defaults).
    ``stats_sink``, when given, receives the flat stats mapping even when
    the run ends in that failure — the engine's failure path reports
    scheduler state too.  The event stream is always closed, so worker
    teardown runs on every exit path.
    """
    jobs = list(jobs)
    total = len(jobs)
    results: List[Any] = [None] * total
    started = 0
    done = 0
    inflight_peak = 0
    overhead_ns = 0
    counters: Dict[str, int] = {}
    events = supervised_events(
        fn, [job.payload for job in jobs], workers, scope=scope,
        labels=[job.label or f"{scope} {position}"
                for position, job in enumerate(jobs)],
        chunksize=chunksize or 1, timeout=timeout, retries=retries)
    try:
        while True:
            try:
                event = next(events)
            except StopIteration as stop:
                counters = stop.value
                break
            tick = time.perf_counter_ns()
            kind = event[0]
            if kind == "start":
                started += 1
            elif kind == "done":
                results[event[1]] = event[2]
                done += 1
            inflight = started - done
            if inflight > inflight_peak:
                inflight_peak = inflight
            overhead_ns += time.perf_counter_ns() - tick
    finally:
        events.close()
        stats = DispatchStats(
            backend=("serial" if runs_in_process(workers, total)
                     else "supervised-pool"),
            inflight_peak=inflight_peak,
            dispatch_overhead_ns=overhead_ns,
            counters=counters)
        if stats_sink is not None:
            stats_sink.update(stats.flat())
        _sched_count("dispatch_runs")
        _sched_count("dispatch_jobs", total)
        _sched_count("dispatch_overhead_ns", overhead_ns)
    return results, stats
