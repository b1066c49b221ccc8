"""Benchmark: MLP-aware memory sweep (MSHR entries x SQ policy x prefetch).

Runs a Figure-4-style grid over the non-blocking memory hierarchy on the
memory-bound workloads — SQ policies crossed with MSHR entry counts and a
stride-prefetcher cell — four ways through the experiment engine (serial,
parallel, cold result cache, warm result cache) and verifies that all of
them produce *identical* statistics before reporting the sweep's shape:

* the degenerate cell (``mshr_entries=1``, no non-blocking L2, no
  prefetcher) is bit-identical to the blocking hierarchy, per workload and
  policy — the PR 7 degeneracy anchor, here checked through the full
  engine path rather than at the hierarchy level;
* CPI separates measurably across MSHR entry counts (bounded entries add
  structural stalls; more entries approach the blocking model's
  MLP-optimistic limit), with identical committed-instruction counts;
* prefetching issues and scores useful prefetches without polluting the
  demand-miss accounting.

A sampled + checkpointed leg then runs one MLP-enabled cell through the
checkpoint store twice (cold generation, warm reload) and serial vs
parallel, asserting bit-identity — the functional warmer and checkpoint
schema carrying the new hierarchy classes end to end.

The measurements land in ``BENCH_memory.json`` at the repo root.
"""

import os
import time

from _common import DEFAULT_INSTRUCTIONS, write_bench_json

from repro.exec import ExperimentEngine, JobSpec, available_cpus
from repro.harness.runner import ExperimentSettings
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig, PrefetchConfig
from repro.pipeline.config import CoreConfig
from repro.sampling.plan import SamplingPlan

#: The sweep runs on the memory-bound corner of the suite: mcf's pointer
#: chases stress the MSHR file, swim's strided fp loops reward prefetching.
MEMORY_WORKLOADS = ("swim", "mcf")

#: One associative and one indexed SQ policy — enough to show the MLP knobs
#: compose with the paper's store-queue axis without exploding the grid.
MEMORY_CONFIGS = ("associative-5-predictive", "indexed-3-fwd+dly")

#: Grid cells: label -> MLP configuration.  ``blocking`` is the default
#: (MLP modeling off); ``mshr1`` is the degenerate non-blocking config that
#: must reproduce it bit for bit.
MLP_CELLS = (
    ("blocking", MLPConfig()),
    ("mshr1", MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False)),
    ("mshr2", MLPConfig(enabled=True, mshr_entries=2)),
    ("mshr4", MLPConfig(enabled=True, mshr_entries=4)),
    ("mshr16", MLPConfig(enabled=True, mshr_entries=16)),
    ("mshr8+pf", MLPConfig(enabled=True, mshr_entries=8,
                           prefetch=PrefetchConfig(enabled=True))),
)

SAMPLED_CELL = ("swim", "associative-5-predictive",
                MLPConfig(enabled=True, mshr_entries=8,
                          prefetch=PrefetchConfig(enabled=True)))
SAMPLED_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_MEMORY_SAMPLED_INSTRUCTIONS", "30000"))


def _settings(mlp: MLPConfig, instructions: int) -> ExperimentSettings:
    core = CoreConfig(memory=MemoryHierarchyConfig(mlp=mlp))
    return ExperimentSettings(instructions=instructions, core=core,
                              stats_warmup_fraction=0.25)


def _specs(instructions: int):
    """The sweep's job list plus aligned ``(workload, config, cell)`` keys."""
    keys, specs = [], []
    for workload in MEMORY_WORKLOADS:
        for config in MEMORY_CONFIGS:
            for label, mlp in MLP_CELLS:
                keys.append((workload, config, label))
                specs.append(JobSpec(workload, config,
                                     _settings(mlp, instructions)))
    return keys, specs


def _signature(records):
    """Everything that must be identical across execution strategies."""
    return [(record.workload, record.config_name,
             tuple(sorted(record.result.stats.as_dict().items())),
             tuple(sorted(record.result.extra.items())))
            for record in records]


def measure_memory_mlp(cache_dir, instructions=None, parallel_jobs=None):
    """Measure the sweep four ways and the sampled+checkpointed leg.

    Returns a dict of measurements; ``assert_memory_mlp`` applies the
    fidelity assertions.  Serial/parallel/cached bit-identity is asserted
    here because a mismatch makes every other number meaningless.
    """
    instructions = instructions or DEFAULT_INSTRUCTIONS
    cpus = available_cpus()
    if parallel_jobs is None:
        parallel_jobs = max(4, cpus) if cpus >= 4 else max(2, cpus)
    keys, specs = _specs(instructions)

    serial_engine = ExperimentEngine(jobs=1, cache=False)
    start = time.perf_counter()
    serial = serial_engine.run(specs, chunksize=len(MLP_CELLS))
    serial_s = time.perf_counter() - start
    engine_stats = dict(serial_engine.last_run_stats)

    parallel_engine = ExperimentEngine(jobs=parallel_jobs, cache=False)
    start = time.perf_counter()
    parallel = parallel_engine.run(specs, chunksize=len(MLP_CELLS))
    parallel_s = time.perf_counter() - start

    cached_engine = ExperimentEngine(jobs=parallel_jobs, cache=True,
                                     cache_dir=cache_dir)
    start = time.perf_counter()
    cold = cached_engine.run(specs, chunksize=len(MLP_CELLS))
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = cached_engine.run(specs, chunksize=len(MLP_CELLS))
    warm_s = time.perf_counter() - start

    want = _signature(serial)
    assert _signature(parallel) == want, "parallel != serial"
    assert _signature(cold) == want, "cold cache != serial"
    assert _signature(warm) == want, "warm cache != serial"

    cells = {}
    for (workload, config, label), record in zip(keys, serial):
        stats = record.result.stats
        cells["/".join((workload, config, label))] = {
            "cycles": stats.cycles,
            "committed": stats.committed,
            "ipc": stats.ipc,
            "mshr_stall_cycles": stats.mshr_stall_cycles,
            "mshr_demand_misses": stats.mshr_demand_misses,
            "misses_coalesced": stats.misses_coalesced,
            "prefetch_issued": stats.prefetch_issued,
            "prefetch_useful": stats.prefetch_useful,
            "mshr_occupancy": stats.mshr_occupancy,
            "mlp_avg": record.result.extra.get("mlp_avg", 0.0),
        }

    # Sampled + checkpointed leg: one MLP-enabled cell through the
    # checkpoint store, cold vs warm and serial vs parallel.
    workload, config, mlp = SAMPLED_CELL
    plan = SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, seed=3)
    sampled_settings = ExperimentSettings(
        instructions=SAMPLED_INSTRUCTIONS,
        core=CoreConfig(memory=MemoryHierarchyConfig(mlp=mlp)),
        sampling=plan)
    ckpt_dir = os.path.join(cache_dir, "mlp-checkpoints")
    legs = {}
    for leg, jobs in (("cold", 1), ("warm_serial", 1),
                      ("warm_parallel", parallel_jobs)):
        engine = ExperimentEngine(jobs=jobs, cache=False,
                                  checkpoint_dir=ckpt_dir)
        start = time.perf_counter()
        record, = engine.run([JobSpec(workload, config, sampled_settings)])
        wall = time.perf_counter() - start
        sampled = record.result.sampled
        legs[leg] = {
            "wall_s": wall,
            "backend": engine.last_run_stats["backend"],
            "stats": tuple(sorted(record.result.stats.as_dict().items())),
            "cpi_mean": sampled.cpi_mean,
            "interval_cycles": [m.cycles for m in sampled.intervals],
        }

    return {
        "instructions": instructions,
        "sampled_instructions": SAMPLED_INSTRUCTIONS,
        "cpus": cpus,
        "parallel_jobs": parallel_jobs,
        "grid_jobs": len(specs),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "cold_cache_s": cold_s,
        "warm_cache_s": warm_s,
        "warm_cache_speedup": serial_s / warm_s if warm_s else 0.0,
        "engine_stats": engine_stats,
        "cells": cells,
        "checkpointed_legs": legs,
    }


def assert_memory_mlp(data: dict) -> None:
    """The sweep's fidelity assertions (see module docstring)."""
    cells = data["cells"]

    def cell(workload, config, label):
        return cells["/".join((workload, config, label))]

    full_fidelity = data["instructions"] >= 8000

    for workload in MEMORY_WORKLOADS:
        for config in MEMORY_CONFIGS:
            # Degeneracy anchor: mshr1 == blocking, bit for bit.
            assert cell(workload, config, "mshr1") == \
                cell(workload, config, "blocking"), (workload, config)

            # Same work retired in every cell, up to one commit burst: the
            # stats-warmup cutoff lands mid-cycle, so cells whose timing
            # differs may reset the counters a few commits apart.
            committed = {cells[k]["committed"] for k in cells
                         if k.startswith(f"{workload}/{config}/")}
            assert max(committed) - min(committed) <= 16, \
                (workload, config, committed)

            # Bounded MSHRs only *add* structural stalls: cycles decrease
            # (weakly) with entries, approaching the blocking anchor.
            tight = cell(workload, config, "mshr2")
            mid = cell(workload, config, "mshr4")
            roomy = cell(workload, config, "mshr16")
            assert tight["cycles"] >= mid["cycles"] >= roomy["cycles"], \
                (workload, config)
            assert tight["mshr_stall_cycles"] >= roomy["mshr_stall_cycles"], \
                (workload, config)
            # With ample entries the bounded model converges on the
            # blocking model's MLP-optimistic timing.  Not a bound in
            # either direction — fills install lines lazily, so LRU and
            # eviction order can differ slightly — hence a band.
            blocking_cycles = cell(workload, config, "blocking")["cycles"]
            assert abs(roomy["cycles"] - blocking_cycles) <= \
                0.1 * blocking_cycles, (workload, config)

            pf = cell(workload, config, "mshr8+pf")
            assert pf["prefetch_useful"] <= pf["prefetch_issued"], \
                (workload, config)

            if full_fidelity:
                # Measurable CPI separation across the MSHR axis.
                assert tight["cycles"] > roomy["cycles"], (workload, config)
                assert tight["mshr_stall_cycles"] > 0, (workload, config)
                assert roomy["mlp_avg"] >= 1.0, (workload, config)

    if full_fidelity:
        # The strided fp workload must show a *large* MLP win and working
        # prefetches (bands calibrated on the default 8000-instruction
        # traces; reduced runs still check the structural orderings above).
        for config in MEMORY_CONFIGS:
            tight = cell("swim", config, "mshr2")
            roomy = cell("swim", config, "mshr16")
            assert tight["cycles"] >= 1.5 * roomy["cycles"], config
            pf = cell("swim", config, "mshr8+pf")
            assert pf["prefetch_issued"] > 0, config
            assert pf["prefetch_useful"] > 0, config

    # MSHR counters surface through the engine's supervision stats.
    engine_stats = data["engine_stats"]
    assert engine_stats["mshr_jobs"] > 0, engine_stats
    assert engine_stats["mshr_demand_misses"] > 0, engine_stats

    # Checkpointed sampled leg: cold generation, warm reload, and the
    # parallel fan-out are bit-identical, and the parallel leg really fans
    # its intervals out over the pool.
    legs = data["checkpointed_legs"]
    assert legs["warm_parallel"]["backend"] == "supervised-pool", legs
    assert legs["warm_serial"]["stats"] == legs["cold"]["stats"], "warm != cold"
    assert legs["warm_parallel"]["stats"] == legs["cold"]["stats"], \
        "parallel != cold"
    assert legs["warm_parallel"]["interval_cycles"] == \
        legs["cold"]["interval_cycles"]


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-memory-") as cache_dir:
        data = measure_memory_mlp(cache_dir=cache_dir)
    assert_memory_mlp(data)
    path = write_bench_json("memory", data)
    swim = data["cells"]["swim/associative-5-predictive/mshr2"]["cycles"]
    roomy = data["cells"]["swim/associative-5-predictive/mshr16"]["cycles"]
    print(f"memory sweep: swim mshr2={swim} vs mshr16={roomy} cycles, "
          f"{data['grid_jobs']} cells, serial {data['serial_s']:.1f}s -> {path.name}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
