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
import gc
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

from repro.exec import available_cpus
from repro.exec.dispatch import scheduler_counters
from repro.exec.fingerprint import (
    simulator_fingerprint,
    timing_fingerprint,
    workload_fingerprint,
)
from repro.exec.resilience import counters_snapshot

#: Repository root (benchmarks/ lives directly under it); the BENCH_*.json
#: trajectory files are written here so successive PRs can diff them.
REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "8000"))

_workloads_env = os.environ.get("REPRO_BENCH_WORKLOADS", "").strip()
WORKLOAD_SUBSET = [w.strip() for w in _workloads_env.split(",") if w.strip()] or None

#: Absolute fidelity bands are calibrated against the full 47-workload sweep
#: at the default trace length; reduced runs (REPRO_BENCH_WORKLOADS /
#: shorter REPRO_BENCH_INSTRUCTIONS) still check structural orderings but
#: skip the bands, so a quick subset run does not fail spuriously.
FULL_FIDELITY = WORKLOAD_SUBSET is None and DEFAULT_INSTRUCTIONS >= 8000

#: Benchmarks exercise the parallel path by default: ``None`` when
#: REPRO_JOBS is set (the engine resolves and validates it), otherwise ``0``
#: — one worker per *available* CPU (affinity/cgroup aware —
#: ``os.cpu_count()`` oversubscribes restricted CI runners).
DEFAULT_JOBS = None if os.environ.get("REPRO_JOBS", "").strip() else 0


#: Keys of a ``BENCH_*.json`` file that describe how and where the run
#: happened rather than what it simulated: the envelope's time stamp and
#: counters, every :func:`run_environment` key, and the payload's wall time
#: and engine statistics.  ``ci_artifact_check.py`` compares every other key
#: with the committed file.
RUN_KEYS = frozenset({
    "timestamp", "resilience", "scheduler",
    "cpu_count", "cpus_available", "env", "git", "sources",
    "wall_time_s", "engine",
})


def clear_process_memos(traces=()) -> None:
    """Empty every process-wide memo a timed leg could inherit warm.

    A leg that runs after another in the same process (or in pool workers
    forked from it) would otherwise reuse the composed segments and traces,
    background words, canonical settings forms and snapshot keys the
    earlier leg paid for.  The interval record (a decoded shared snapshot
    and its window's commit facts) lives only inside an engine run; one
    still open is emptied.  ``traces`` are trace objects a leg reuses:
    their own memos (a fresh start's commit facts and cache warm-up lines)
    are emptied too.
    """
    from repro.exec import cache, jobs
    from repro.memory import image
    from repro.sampling import checkpoints
    from repro.workloads import suites

    suites._SEGMENT_CACHE.clear()
    jobs._TRACE_CACHE.clear()
    image._background_word.cache_clear()
    cache._canonical_pickle.cache_clear()
    checkpoints._memoised_key.cache_clear()
    if checkpoints._RECORD is not None:
        checkpoints._RECORD.hold(None, None)
    for trace in traces:
        trace.commit_facts.clear()
        trace.warm_lines.clear()


def timed_once(leg):
    """One timed execution of ``leg()`` with GC isolation; returns
    ``(result, seconds)``.

    The collector runs normally *inside* the timed region — allocator and
    collector pressure are part of what the encoded plane and the
    struct-of-arrays loop remove, so quiescing the GC would hide a real
    component of the win.  What must not leak between legs is heap debris:
    survivors of earlier legs would make later legs' collections scan ever
    more memory.  ``gc.freeze()`` parks the pre-leg heap outside the
    collector for the duration of the region, so every leg pays exactly its
    own GC cost.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = leg()
        return result, time.perf_counter() - start
    finally:
        gc.unfreeze()


def timed_interleaved(legs, repeats):
    """Time every ``(name, leg)`` ``repeats`` times, *interleaved*.

    Shared machines drift (CI neighbours, thermal throttling): measuring
    each leg's repetitions back-to-back bakes whatever the machine was
    doing during *that leg's* window into the recorded ratios.  Round-robin
    ordering — every leg once per round — spreads drift evenly over all
    legs, so the per-leg medians move together and the ratios stay stable.
    Each leg clears the process memos it reads itself.  Returns ``{name:
    (last_result, median_seconds, round_seconds)}`` in input order.
    """
    times = {name: [] for name, _ in legs}
    results = {}
    for _ in range(repeats):
        for name, leg in legs:
            result, seconds = timed_once(leg)
            results[name] = result
            times[name].append(seconds)
    return {name: (results[name], statistics.median(times[name]), times[name])
            for name, _ in legs}


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def git_provenance(root: Path = REPO_ROOT) -> dict:
    """The checkout a run measured: ``{"sha": ..., "dirty": ...}``.

    ``sha`` is ``HEAD`` and ``dirty`` is true when tracked files differ from
    it (untracked files do not count).  Both are ``None`` outside a git work
    tree or when git is unavailable.  A file regenerated for a commit is
    written before that commit exists, so a committed ``BENCH_*.json`` always
    reads its parent's SHA with ``dirty: true``: the pair dates a run, it
    does not name the exact code behind a committed file.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(root).parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0 or status.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_environment() -> dict:
    """The machine/knob context of a benchmark run.

    Recorded in every trajectory file so a number can be interpreted later:
    CPU count (the engine fan-out ceiling), every ``REPRO_*`` environment
    knob that was set (trace length, workload subset, jobs, cache, sampling
    overrides), the git commit and dirty flag of the measured code, and
    ``sources``: the :mod:`repro.exec.fingerprint` digests of the simulator,
    workload and timing-model sources (the ones that key the result cache).
    Unlike ``git.sha`` they hash exactly the sources that ran, committed or
    not, so they name the code behind a committed file.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpus_available": available_cpus(),
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith("REPRO_")},
        "git": git_provenance(),
        "sources": {"simulator": simulator_fingerprint(),
                    "workload": workload_fingerprint(),
                    "timing": timing_fingerprint()},
    }


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one machine-readable ``BENCH_<name>.json`` at the repo root.

    Every trajectory file carries the same envelope (UTC timestamp, trace
    length, CPU count, the ``REPRO_*`` knobs in effect, the git commit and
    dirty flag and the source fingerprints of the measured code, the
    process's resilience counters — retries, quarantined blobs,
    degradations — so a wall time achieved *through* recovery work is never
    mistaken for a clean one, and the process's scheduler counters —
    dispatch runs, jobs, dispatcher overhead — so the dispatcher's cost is
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
