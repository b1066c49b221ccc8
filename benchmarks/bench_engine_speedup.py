"""Benchmark: serial vs parallel vs cached execution of the Figure 4 sweep.

Runs the same Figure 4 sweep three ways through the experiment engine —
serial (one in-process worker), parallel (the supervised process pool),
and twice against an on-disk result cache (cold, then fully warm) — and
verifies that all of them produce *identical* statistics before reporting
wall-clock ratios.  Each leg starts from cold process memos, so the
parallel ratio measures fan-out, not what an earlier leg left warm.  The
serial and parallel legs run :data:`ROUNDS` interleaved rounds
(:func:`_common.timed_interleaved`), each serial round followed by its
parallel round.  Every round's times are recorded, and so is each round's
ratio (serial round *i* over parallel round *i*, two legs a few seconds
apart, so host drift between rounds cancels); the parallel bar reads the
median of those paired ratios, not one draw of two noisy wall times.  The
measurements land in ``BENCH_engine.json`` at the repo root so the
engine's performance trajectory is machine-readable.

The parallel assertion scales with the hardware: a >= 2x median speedup is
required only when at least four CPUs are actually available (the
paper-sweep target box), >= 1.1x at two or three; on one CPU the run still
checks bit-identity and records the measured ratio.  The warm-cache re-run
must always be a large win — it simulates nothing.

The dispatcher must be nearly free on every machine: the event
handling it measures on a parallel round (the ``dispatch_overhead_ns``
delta of :func:`repro.exec.dispatch.scheduler_counters`) stays under 3% of
that round's wall time, in the median over rounds.
"""

import statistics
import time

from _common import (
    DEFAULT_INSTRUCTIONS,
    clear_process_memos,
    timed_interleaved,
    write_bench_json,
)

from repro.exec import ExperimentEngine, ResultCache, available_cpus
from repro.exec.dispatch import scheduler_counters
from repro.harness.figure4 import run_figure4
from repro.harness.runner import ExperimentSettings

#: A cross-suite subset (media / int / fp, forwarding-heavy and quiet,
#: cache-friendly and memory-bound) big enough to amortise pool start-up.
SPEEDUP_WORKLOADS = ("gzip", "mesa.m", "swim", "vortex", "mcf", "eon.c")

#: Ceiling on the dispatcher's own event handling, as a share of the
#: parallel leg's wall time.
DISPATCH_OVERHEAD_PCT_MAX = 3.0

#: Interleaved serial/parallel rounds; the bars read the medians.
ROUNDS = 5


def _signature(result):
    """Everything that must be identical across execution strategies."""
    return [(row.name, row.baseline_cycles,
             tuple(sorted(row.relative_time.items()))) for row in result.rows]


def measure_engine_speedup(cache_dir, instructions=None, workloads=SPEEDUP_WORKLOADS,
                           parallel_jobs=None):
    """Measure serial / parallel / cached wall times for one Figure 4 sweep.

    Returns a dict of measurements (also asserting bit-identity of the three
    execution strategies); reused by ``run_all.py``.
    """
    instructions = instructions or DEFAULT_INSTRUCTIONS
    cpus = available_cpus()
    if parallel_jobs is None:
        parallel_jobs = max(4, cpus) if cpus >= 4 else max(2, cpus)
    settings = ExperimentSettings(instructions=instructions, stats_warmup_fraction=0.25)
    names = list(workloads)

    # Every leg starts from cold process memos: the parallel leg's workers
    # are forked from this process and would inherit what the serial leg
    # filled, which would credit fan-out with memo warmth.
    serial_engine = ExperimentEngine(jobs=1, cache=False)
    # The parallel leg runs on the supervised pool (per-job deadlines, crash
    # detection, retries) — its wall time is what users get.
    parallel_engine = ExperimentEngine(jobs=parallel_jobs, cache=False)
    overheads_ns = []

    def serial_leg():
        clear_process_memos()
        return run_figure4(workloads=names, settings=settings,
                           engine=serial_engine)

    def parallel_leg():
        clear_process_memos()
        before = scheduler_counters().get("dispatch_overhead_ns", 0)
        result = run_figure4(workloads=names, settings=settings,
                             engine=parallel_engine)
        overheads_ns.append(scheduler_counters().get("dispatch_overhead_ns", 0)
                            - before)
        return result

    measured = timed_interleaved([("serial", serial_leg),
                                  ("parallel", parallel_leg)], ROUNDS)
    serial, serial_s, serial_rounds = measured["serial"]
    parallel, parallel_s, parallel_rounds = measured["parallel"]
    overhead_pcts = [100.0 * ns / (seconds * 1e9)
                     for ns, seconds in zip(overheads_ns, parallel_rounds)]
    round_ratios = [serial_round / parallel_round
                    for serial_round, parallel_round
                    in zip(serial_rounds, parallel_rounds)]

    cached_engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
    clear_process_memos()
    cold = run_figure4(workloads=names, settings=settings, engine=cached_engine)
    cold_stats = dict(cached_engine.last_run_stats)
    clear_process_memos()
    start = time.perf_counter()
    warm = run_figure4(workloads=names, settings=settings, engine=cached_engine)
    warm_s = time.perf_counter() - start
    warm_stats = dict(cached_engine.last_run_stats)

    reference = _signature(serial)
    assert _signature(parallel) == reference, "parallel run diverged from serial"
    assert _signature(cold) == reference, "cache-populating run diverged from serial"
    assert _signature(warm) == reference, "cache-hit run diverged from serial"
    assert warm_stats["cache_hits"] == warm_stats["total"], warm_stats

    return {
        "workloads": names,
        "cpus": cpus,
        "parallel_jobs": parallel_jobs,
        "rounds": ROUNDS,
        "serial_rounds_s": [round(s, 3) for s in serial_rounds],
        "parallel_rounds_s": [round(s, 3) for s in parallel_rounds],
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_round_ratios": [round(ratio, 3) for ratio in round_ratios],
        "parallel_speedup": round(statistics.median(round_ratios), 3),
        "parallel_backend": parallel_engine.last_run_stats["backend"],
        "dispatch_overhead_rounds_ns": overheads_ns,
        "dispatch_overhead_ns": statistics.median(overheads_ns),
        "dispatch_overhead_pct": round(statistics.median(overhead_pcts), 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_cache_speedup": round(serial_s / warm_s, 1) if warm_s else 0.0,
        "cold_cache_stats": cold_stats,
        "warm_cache_stats": warm_stats,
        "gmean_indexed_fwd_dly": round(serial.gmean("indexed-3-fwd+dly"), 4),
    }


def assert_engine_speedup(data):
    """The engine bars, shared by the pytest bench and ``run_all.py``."""
    # The dispatcher's event handling is CPU time in the parent process,
    # not a difference of two noisy wall times, so the bar holds on any
    # CPU count.
    assert data["dispatch_overhead_pct"] < DISPATCH_OVERHEAD_PCT_MAX, (
        f"dispatcher overhead (median {data['dispatch_overhead_ns']} ns) is "
        f"{data['dispatch_overhead_pct']}% of a parallel sweep in the median "
        f"round (bar: < {DISPATCH_OVERHEAD_PCT_MAX}%)")

    # The warm cache simulates nothing; it must be a large win everywhere.
    assert data["warm_cache_speedup"] >= 5.0, data

    # The parallel bar scales with the hardware the run actually has; it
    # reads the median of the per-round serial/parallel ratios.
    if data["cpus"] >= 4:
        assert data["parallel_speedup"] >= 2.0, data
    elif data["cpus"] >= 2:
        assert data["parallel_speedup"] >= 1.1, data
    # Single-CPU boxes: fan-out cannot beat serial; bit-identity (asserted
    # inside the measurement) is the contract under test.


def test_engine_speedup(tmp_path):
    data = measure_engine_speedup(cache_dir=tmp_path / "cache")
    path = write_bench_json("engine", {"wall_time_s": data["serial_s"], **data})
    print(f"\nengine speedup (median of {data['rounds']} rounds): "
          f"serial {data['serial_s']}s, "
          f"parallel x{data['parallel_speedup']} ({data['parallel_jobs']} workers, "
          f"{data['cpus']} CPUs), warm cache x{data['warm_cache_speedup']}, "
          f"dispatcher overhead {data['dispatch_overhead_pct']}% "
          f"-> {path.name}")
    assert_engine_speedup(data)
