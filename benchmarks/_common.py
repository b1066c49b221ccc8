"""Shared benchmark plumbing (no pytest dependency).

Everything here is imported both by the pytest benchmarks (via
``conftest.py``, which adds the fixtures on top) and by the plain-script
entry points — ``run_all.py`` and the ``repro-bench`` console command —
which must work in environments without pytest installed.

Environment knobs:

``REPRO_BENCH_INSTRUCTIONS``
    Dynamic instructions per workload trace (default 8000).  The paper uses
    10M-instruction samples; the default here keeps the full 47-workload
    sweep to a few minutes while preserving the qualitative shape.  The
    sampling subsystem (``REPRO_BENCH_SAMPLING_INSTRUCTIONS`` /
    ``REPRO_BENCH_SAMPLED_INSTRUCTIONS``, see
    ``bench_sampling_speedup.py``) is how paper-scale lengths are reached.
``REPRO_BENCH_WORKLOADS``
    Comma-separated subset of workload names (default: all 47 for Table 3 /
    Figure 4, the paper's nine for Figure 5).
``REPRO_JOBS``
    Worker-process count for the experiment engine.  Benchmarks default to
    one worker per CPU; values <= 0 also mean "all CPUs".  A malformed
    value is reported by the engine's knob validation, not here.
``REPRO_CACHE`` / ``REPRO_CACHE_DIR``
    Set ``REPRO_CACHE=0`` to disable result memoization; ``REPRO_CACHE_DIR``
    moves the cache (default ``.repro-cache/``, safe to delete any time).
"""

import datetime
import json
import os
from pathlib import Path

from repro.exec import available_cpus
from repro.exec.dispatch import scheduler_counters
from repro.exec.resilience import counters_snapshot

#: Repository root (benchmarks/ lives directly under it); the BENCH_*.json
#: trajectory files are written here so successive PRs can diff them.
REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "8000"))

_workloads_env = os.environ.get("REPRO_BENCH_WORKLOADS", "").strip()
WORKLOAD_SUBSET = [w.strip() for w in _workloads_env.split(",") if w.strip()] or None

#: Benchmarks exercise the parallel path by default: ``None`` when
#: REPRO_JOBS is set (the engine resolves and validates it), otherwise ``0``
#: — one worker per *available* CPU (affinity/cgroup aware —
#: ``os.cpu_count()`` oversubscribes restricted CI runners).
DEFAULT_JOBS = None if os.environ.get("REPRO_JOBS", "").strip() else 0


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_environment() -> dict:
    """The machine/knob context of a benchmark run.

    Recorded in every trajectory file so a number can be interpreted later:
    CPU count (the engine fan-out ceiling) and every ``REPRO_*`` environment
    knob that was set (trace length, workload subset, jobs, cache, sampling
    overrides).
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpus_available": available_cpus(),
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith("REPRO_")},
    }


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one machine-readable ``BENCH_<name>.json`` at the repo root.

    Every trajectory file carries the same envelope (UTC timestamp, trace
    length, CPU count, the ``REPRO_*`` knobs in effect, the process's
    resilience counters — retries, quarantined blobs, degradations — so a
    wall time achieved *through* recovery work is never mistaken for a
    clean one, and the process's scheduler counters — dispatch runs, jobs,
    dispatcher overhead — so the execution-backend seam's cost is
    visible in every file) plus bench-specific metrics, so tooling can
    track the performance trajectory across PRs without parsing pytest
    output.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    envelope = {
        "bench": name,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "instructions": DEFAULT_INSTRUCTIONS,
        "resilience": counters_snapshot(),
        "scheduler": scheduler_counters(),
    }
    envelope.update(run_environment())
    envelope.update(payload)
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path
