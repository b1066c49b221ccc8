"""Event-driven dispatcher over :mod:`repro.exec.backend` backends.

:func:`dispatch` is the one scheduler loop every fan-out call site uses:
it feeds a job list to a backend, consumes the ``("start", i)`` /
``("done", i, value)`` event stream, assembles results by index, and
measures *its own* overhead — the nanoseconds spent handling events, not
the time the backend spends computing — so ``BENCH_engine.json`` can pin
"the seam costs < 3% of the parallel sweep" as a number instead of a hope.

Scheduler observability: every run fills a :class:`DispatchStats`
(``backend``, ``queue_depth_peak``, ``inflight_peak``,
``dispatch_overhead_ns``) — surfaced in the engine's ``last_run_stats``
and, via :func:`scheduler_counters`, in every ``BENCH_*.json`` envelope.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.backend import DispatchJob, ExecutionBackend

__all__ = [
    "DispatchStats",
    "dispatch",
    "scheduler_counters",
]


@dataclass(frozen=True)
class DispatchStats:
    """Scheduling counters for one :func:`dispatch` run."""

    backend: str
    queue_depth_peak: int
    inflight_peak: int
    dispatch_overhead_ns: int
    #: Resilience-counter delta reported by the backend for this submit
    #: (retries, respawns, ...); empty for a clean serial run.
    counters: Dict[str, int]

    def flat(self) -> Dict[str, Any]:
        """The merged flat mapping the engine folds into ``last_run_stats``."""
        merged: Dict[str, Any] = dict(self.counters)
        merged.update({
            "backend": self.backend,
            "queue_depth_peak": self.queue_depth_peak,
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


def dispatch(backend: ExecutionBackend, fn: Callable[[Any], Any],
             jobs: Sequence[DispatchJob], *, scope: str = "job",
             chunksize: Optional[int] = None,
             on_event: Optional[Callable[[tuple], None]] = None,
             stats_sink: Optional[Dict[str, Any]] = None,
             ) -> Tuple[List[Any], DispatchStats]:
    """Run ``jobs`` on ``backend``; return ``(results, stats)`` in order.

    ``results[i]`` is the value of ``fn(jobs[i].payload)``.  ``on_event``
    observes every raw event as it arrives (the streaming hook).
    ``stats_sink``, when given, receives the flat stats mapping even when
    the submit ends in an :class:`~repro.exec.resilience.ExperimentFailure`
    — the engine's failure path reports scheduler state too.  The backend
    generator is always closed, so worker teardown runs on every exit
    path, including an exception thrown from ``on_event``.
    """
    jobs = list(jobs)
    total = len(jobs)
    results: List[Any] = [None] * total
    started = 0
    done = 0
    queue_depth_peak = total
    inflight_peak = 0
    overhead_ns = 0
    events = backend.submit(fn, jobs, scope=scope, chunksize=chunksize)
    try:
        while True:
            try:
                event = next(events)
            except StopIteration:
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
            if on_event is not None:
                on_event(event)
            overhead_ns += time.perf_counter_ns() - tick
    finally:
        events.close()
        counters = dict(backend.last_submit_stats)
        stats = DispatchStats(
            backend=backend.name,
            queue_depth_peak=queue_depth_peak,
            inflight_peak=inflight_peak,
            dispatch_overhead_ns=overhead_ns,
            counters=counters)
        if stats_sink is not None:
            stats_sink.update(stats.flat())
        _sched_count("dispatch_runs")
        _sched_count("dispatch_jobs", total)
        _sched_count("dispatch_overhead_ns", overhead_ns)
    return results, stats

