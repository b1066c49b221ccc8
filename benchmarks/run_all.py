#!/usr/bin/env python
"""Run every reproduction benchmark and write BENCH_*.json trajectory files.

This is the CI / tooling entry point: it regenerates each of the paper's
artifacts through the experiment engine, applies the load-bearing sanity
assertions, and writes one machine-readable ``BENCH_<name>.json`` per
artifact (timestamp, instructions, wall time, headline metrics) at the repo
root.  The exit status is nonzero if any artifact fails its assertions, so
the performance *and* fidelity trajectory is checkable from PR 1 onward:

    PYTHONPATH=src python benchmarks/run_all.py

Honours the same environment knobs as the pytest benchmarks
(``REPRO_BENCH_INSTRUCTIONS``, ``REPRO_BENCH_WORKLOADS``, ``REPRO_JOBS``,
``REPRO_CACHE``, ``REPRO_CACHE_DIR``; see ``benchmarks/conftest.py``) plus
the sampling-bench lengths (``REPRO_BENCH_SAMPLING_INSTRUCTIONS`` for the
matched-count speedup comparison, ``REPRO_BENCH_CHECKPOINT_INSTRUCTIONS``
for the checkpointed sweep and policy-group generation, and
``REPRO_BENCH_SAMPLED_INSTRUCTIONS`` for the paper-scale sampled artifact).
``REPRO_BENCH_ONLY`` (comma-separated bench names, e.g.
``REPRO_BENCH_ONLY=sampling,engine``) regenerates a subset of the
trajectory files without paying for the rest.  Every ``BENCH_*.json``
records the CPU count and the ``REPRO_*`` knobs in effect alongside its
metrics.
"""

import os
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import (  # noqa: E402
    DEFAULT_INSTRUCTIONS,
    DEFAULT_JOBS,
    FULL_FIDELITY,
    WORKLOAD_SUBSET,
    write_bench_json,
)
from bench_core_throughput import (  # noqa: E402
    assert_core_throughput,
    measure_core_throughput,
)
from bench_engine_speedup import (  # noqa: E402
    assert_engine_speedup,
    measure_engine_speedup,
)
from bench_memory_mlp import (  # noqa: E402
    assert_memory_mlp,
    measure_memory_mlp,
)
from bench_sampling_speedup import (  # noqa: E402
    assert_checkpointed_sweep,
    assert_policy_group_generation,
    assert_speedup,
    measure_checkpointed_sweep,
    measure_policy_group_generation,
    measure_sampled_artifact,
    measure_sampling_speedup,
)

from repro.exec import EnvKnobError, ExperimentEngine  # noqa: E402
from repro.harness.figure4 import run_figure4  # noqa: E402
from repro.harness.figure5 import run_figure5  # noqa: E402
from repro.harness.runner import ExperimentSettings, geometric_mean  # noqa: E402
from repro.harness.table2 import run_table2  # noqa: E402
from repro.harness.table3 import run_table3  # noqa: E402
from repro.workloads.suites import sensitivity_workloads, workload_names  # noqa: E402


def _settings() -> ExperimentSettings:
    return ExperimentSettings(instructions=DEFAULT_INSTRUCTIONS,
                              stats_warmup_fraction=0.25)


def bench_table2(_engine: ExperimentEngine) -> dict:
    result = run_table2()
    headline = result.row(64, 2)
    assert headline.indexed_ns < headline.associative_ns
    assert 0.15 <= result.energy.indexed_savings <= 0.45
    return {
        "assoc_64_2port_ns": round(headline.associative_ns, 3),
        "indexed_64_2port_ns": round(headline.indexed_ns, 3),
        "indexed_energy_savings": round(result.energy.indexed_savings, 3),
    }


def bench_table3(engine: ExperimentEngine) -> dict:
    names = WORKLOAD_SUBSET or workload_names()
    result = run_table3(workloads=names, settings=_settings(), engine=engine)
    overall = result.suite_average("all")
    assert overall.mis_per_1000_fwd_dly <= overall.mis_per_1000_fwd
    if FULL_FIDELITY:
        assert overall.mis_per_1000_fwd_dly < overall.mis_per_1000_fwd
        assert overall.percent_delayed <= 15.0
    return {
        "workloads": len(names),
        "avg_forward_rate_pct": round(overall.forward_rate_pct, 2),
        "avg_mis_per_1000_fwd": round(overall.mis_per_1000_fwd, 2),
        "avg_mis_per_1000_fwd_dly": round(overall.mis_per_1000_fwd_dly, 2),
        "avg_percent_delayed": round(overall.percent_delayed, 2),
        "engine": dict(engine.last_run_stats),
    }


def bench_figure4(engine: ExperimentEngine) -> dict:
    names = WORKLOAD_SUBSET or workload_names()
    result = run_figure4(workloads=names, settings=_settings(), engine=engine)
    gmeans = result.gmeans()["all"]
    assert gmeans["indexed-3-fwd+dly"] < gmeans["indexed-3-fwd"]
    if FULL_FIDELITY:
        for config, value in gmeans.items():
            assert 0.9 < value < 1.15, (config, value)
    return {
        "workloads": len(names),
        "gmeans": {k: round(v, 4) for k, v in gmeans.items()},
        "engine": dict(engine.last_run_stats),
    }


def bench_figure5(engine: ExperimentEngine) -> dict:
    names = WORKLOAD_SUBSET or sensitivity_workloads()
    result = run_figure5(workloads=names, settings=_settings(), engine=engine)

    def gmean_at(series_list, label):
        return geometric_mean(s.points[label] for s in series_list)

    default_capacity = gmean_at(result.capacity, "4096")
    if FULL_FIDELITY:
        assert 0.9 < default_capacity < 1.6
    return {
        "workloads": len(names),
        "gmean_capacity_4096": round(default_capacity, 4),
        "gmean_assoc_2": round(gmean_at(result.associativity, "2"), 4),
        "gmean_ratio_4_1": round(gmean_at(result.ddp_ratio, "4:1"), 4),
        "engine": dict(engine.last_run_stats),
    }


def bench_core(_engine: ExperimentEngine) -> dict:
    """Detailed-path throughput: frozen seed stack vs the current core.

    Asserts bit-identical statistics across the two stacks, the >= 1.5x
    before-vs-after bar on the Figure-4 cell and the >= 2x bar on the
    Figure-4 mix of all 282 cells (serial, idle_skip on).
    """
    data = measure_core_throughput()
    assert_core_throughput(data)
    return data


def bench_engine(_engine: ExperimentEngine) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        data = measure_engine_speedup(cache_dir=cache_dir)
    assert_engine_speedup(data)
    return data


def bench_memory(_engine: ExperimentEngine) -> dict:
    """MLP-aware memory sweep: MSHR entries x SQ policy x prefetch.

    Asserts the degeneracy anchor (mshr=1 == blocking, bit for bit,
    through the full engine path), measurable CPI separation across MSHR
    entry counts, prefetcher sanity, serial/parallel/cached bit-identity,
    and a checkpointed sampled leg (cold vs warm vs parallel identical).
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-memory-") as cache_dir:
        data = measure_memory_mlp(cache_dir=cache_dir)
    assert_memory_mlp(data)
    return data


def bench_sampling(_engine: ExperimentEngine) -> dict:
    """Sampling speedup, the checkpointed sweep, policy-group generation,
    and the paper-scale artifact.

    The matched-count leg simulates the same (workload, configuration) in
    full detail and checkpointed-sampled from a cold store (generation
    included), records the speedup with its CPI error and relative CI,
    and asserts sampling is no slower from 200k instructions up; the
    sweep leg runs a multi-configuration sweep cold, asserts one
    generation pass and serial/parallel/cached bit-identity; the
    policy-group leg re-runs that sweep's generation stage as one serial
    pass vs policy-group jobs on cold stores, asserts snapshot- and
    merged-result bit-identity, and records the stage speedup without a
    bar; the artifact leg runs a 10M-instruction Figure-4 cell
    sampled-only (relative time with a confidence interval) — the scale
    the subsystem exists to reach.
    """
    speedup = measure_sampling_speedup()
    assert_speedup(speedup)
    checkpointed_sweep = measure_checkpointed_sweep()
    assert_checkpointed_sweep(checkpointed_sweep)
    policy_group_generation = measure_policy_group_generation()
    assert_policy_group_generation(policy_group_generation)
    artifact = measure_sampled_artifact()
    assert artifact["intervals"] >= 2, artifact
    assert artifact["relative_time_ci_halfwidth"] > 0.0, artifact
    if artifact["artifact_instructions"] >= 2_000_000:
        # Paper-scale bars; reduced REPRO_BENCH_SAMPLED_INSTRUCTIONS runs
        # still record the numbers but skip the absolute bands (mirroring
        # FULL_FIDELITY above).
        assert artifact["intervals"] >= 10, artifact
        assert artifact["relative_time_ci_halfwidth"] < 0.25 * artifact["relative_time"], artifact
        assert 0.7 < artifact["relative_time"] < 1.4, artifact
    return {"speedup": speedup, "checkpointed_sweep": checkpointed_sweep,
            "policy_group_generation": policy_group_generation,
            "artifact": artifact}


BENCHES = (
    ("table2", bench_table2),
    ("table3", bench_table3),
    ("figure4", bench_figure4),
    ("figure5", bench_figure5),
    ("core", bench_core),
    ("engine", bench_engine),
    ("memory", bench_memory),
    ("sampling", bench_sampling),
)


def main() -> int:
    # The trajectory files exist to track *simulator speed*: benches are
    # timed against a cache-disabled engine so wall times measure the cost
    # of regenerating each artifact, not the state of .repro-cache/.  The
    # caching win is measured explicitly (and its bit-identity asserted) by
    # the "engine" bench below.
    try:
        engine = ExperimentEngine(jobs=DEFAULT_JOBS, cache=False)
    except EnvKnobError as exc:
        # Misconfigured REPRO_* knobs are operator errors, not bench
        # failures: one actionable line, distinct exit status, no traceback.
        print(f"invalid environment: {exc}", file=sys.stderr)
        return 2
    only = {name.strip() for name in
            os.environ.get("REPRO_BENCH_ONLY", "").split(",") if name.strip()}
    benches = [(name, bench) for name, bench in BENCHES
               if not only or name in only]
    valid = [name for name, _ in BENCHES]
    unknown = only - set(valid)
    if unknown:
        # Fail fast: a typo must not silently regenerate everything (or
        # nothing) with exit 0.
        print(f"REPRO_BENCH_ONLY names unknown benches {sorted(unknown)}; "
              f"valid names: {', '.join(valid)}", file=sys.stderr)
        return 1
    failures = 0
    for name, bench in benches:
        start = time.perf_counter()
        try:
            metrics = bench(engine)
            ok = True
        except Exception:
            traceback.print_exc()
            metrics = {"error": traceback.format_exc(limit=3)}
            ok = False
            failures += 1
        wall = round(time.perf_counter() - start, 3)
        path = write_bench_json(name, {"ok": ok, "wall_time_s": wall, **metrics})
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name}: {wall}s -> {path.name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
