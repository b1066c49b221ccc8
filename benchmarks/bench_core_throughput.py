"""Benchmark: detailed-path throughput, frozen seed stack vs the current core.

Measures serial detailed-simulation throughput (uops/sec, ``idle_skip`` on)
of two workloads, each on two stacks.  The **cell** is one Figure-4 cell —
the paper's ``vortex`` workload under the ``indexed-3-fwd+dly``
configuration; the **mix** is the whole Figure-4 grid — all 47 workloads
under the six configurations — at a short length.  The two stacks are:

* **legacy** — the frozen seed stack (``legacy_ref/``: pre-refactor
  ``MicroOp``-object trace composer, attribute-probing core loop, and
  pre-optimisation substrate, all verbatim): the *before* leg, re-measured
  on the same machine at bench time so the recorded ratio is
  hardware-independent;
* **core** — :class:`~repro.pipeline.core.OutOfOrderCore` on the
  static-plane trace (:class:`~repro.isa.plane.EncodedOps`): the fused
  struct-of-arrays run loop.

On the cell, each leg's uops/sec covers trace materialisation *plus*
simulation (the detailed path as a user pays for it).  The cell alone never
exercises the associative SQ search, the oracle policy's no-op commit hook
or branchy BTB traffic, so the mix times simulation only, over traces each
stack builds before its timed region: it weighs every per-access path the
way the Figure-4 sweep does.  Both stacks must produce bit-identical
statistics before any ratio is reported — on the mix, the statistics and
derived metrics of every one of the 282 cells.  The bars: the core stays
>= 1.5x over the seed stack on the cell and >= 2x on the mix.  The
measurements land in ``BENCH_core.json`` at the repo root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import (  # noqa: E402
    clear_process_memos,
    timed_interleaved,
    write_bench_json,
)
import legacy_ref  # noqa: E402
from legacy_ref import suites as legacy_suites  # noqa: E402

from repro.harness.runner import (  # noqa: E402
    BASELINE_CONFIG,
    FIGURE4_CONFIGS,
    ExperimentSettings,
    make_policy,
)
from repro.pipeline.core import OutOfOrderCore  # noqa: E402
from repro.workloads.suites import build_workload, workload_names  # noqa: E402

#: The Figure-4 cell under test.
WORKLOAD = "vortex"
CONFIG = "indexed-3-fwd+dly"

#: Long enough that per-uop costs dominate fixed overheads; the trace
#: crosses several 16384-uop segment boundaries.
CORE_BENCH_INSTRUCTIONS = 60_000

#: Timed repetitions per leg; the median is recorded (robust against the
#: one-sided wall-clock outliers of shared/throttling machines without
#: rewarding a lucky fastest rep on either side of the ratio).
REPEATS = 3

#: The mix: every Figure-4 configuration (the baseline first) over every
#: workload, at the repo benchmark's Figure-4 sweep length.
MIX_CONFIGS = (BASELINE_CONFIG,) + FIGURE4_CONFIGS
MIX_INSTRUCTIONS = 800

#: The seed stack's policy for each Figure-4 configuration name.
LEGACY_POLICIES = {
    "oracle-associative-3": lambda sq_size: legacy_ref.OracleAssociativePolicy(
        sq_size=sq_size, sq_latency=3),
    "associative-3": lambda sq_size: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=3, scheduling="predictive"),
    "associative-5-optimistic": lambda sq_size: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=5, scheduling="optimistic"),
    "associative-5-predictive": lambda sq_size: legacy_ref.AssociativeStoreSetsPolicy(
        sq_size=sq_size, sq_latency=5, scheduling="predictive"),
    "indexed-3-fwd": lambda sq_size: legacy_ref.IndexedSQPolicy(
        sq_size=sq_size, use_delay=False),
    "indexed-3-fwd+dly": lambda sq_size: legacy_ref.IndexedSQPolicy(
        sq_size=sq_size, use_delay=True),
}


def _stats_signature(result):
    return tuple(sorted(result.stats.as_dict().items()))


def _cell_signature(result):
    return _stats_signature(result), tuple(sorted(result.extra.items()))


def measure_cell_throughput(instructions=CORE_BENCH_INSTRUCTIONS, seed=1):
    """Measure both stacks on the cell; asserts bit-identity."""
    settings = ExperimentSettings(instructions=instructions)
    assert settings.core.idle_skip, "bench contract: idle_skip on"

    def legacy_leg():
        # Before: seed composer (per-uop MicroOp construction) + seed core
        # on the seed substrate, verbatim.  Cold segment memo, like the
        # core leg below.
        legacy_suites._SEGMENT_CACHE.clear()
        trace = legacy_ref.build_workload(WORKLOAD, instructions=instructions,
                                          seed=seed)
        core = legacy_ref.OutOfOrderCore(
            settings.core, legacy_ref.IndexedSQPolicy(sq_size=settings.sq_size,
                                                      use_delay=True))
        return core.run(trace,
                        stats_warmup_fraction=settings.stats_warmup_fraction)

    def core_leg():
        clear_process_memos()
        trace = build_workload(WORKLOAD, instructions=instructions, seed=seed)
        core = OutOfOrderCore(settings.core,
                              make_policy(CONFIG, sq_size=settings.sq_size))
        return core.run(trace,
                        stats_warmup_fraction=settings.stats_warmup_fraction)

    measured = timed_interleaved([("legacy", legacy_leg),
                                  ("core", core_leg)], REPEATS)
    legacy_result, legacy_s, _ = measured["legacy"]
    core_result, core_s, _ = measured["core"]
    assert _stats_signature(core_result) == _stats_signature(legacy_result), \
        "the core diverged from the frozen seed stack"

    uops = instructions
    return {
        "workload": WORKLOAD,
        "config": CONFIG,
        "core_instructions": instructions,
        "legacy_s": round(legacy_s, 3),
        "legacy_uops_per_sec": round(uops / legacy_s, 1),
        "core_s": round(core_s, 3),
        "core_uops_per_sec": round(uops / core_s, 1),
        "speedup_vs_legacy": round(legacy_s / core_s, 3),
    }


def measure_mix_throughput(instructions=MIX_INSTRUCTIONS, seed=1):
    """Measure both stacks on the Figure-4 mix (simulation only).

    Each stack builds its 47 traces once, outside the timed region; a timed
    leg simulates all 282 cells.  Asserts that every cell's statistics and
    derived metrics are identical across the stacks.
    """
    settings = ExperimentSettings(instructions=instructions, seed=seed)
    names = workload_names()
    assert names == legacy_suites.workload_names(), "workload lists differ"
    legacy_traces = [legacy_ref.build_workload(name, instructions=instructions,
                                               seed=seed) for name in names]
    core_traces = [build_workload(name, instructions=instructions, seed=seed)
                   for name in names]
    warmup = settings.stats_warmup_fraction

    def legacy_leg():
        return [legacy_ref.OutOfOrderCore(
                    settings.core, LEGACY_POLICIES[config](settings.sq_size))
                .run(trace, stats_warmup_fraction=warmup)
                for trace in legacy_traces for config in MIX_CONFIGS]

    def core_leg():
        # Every round starts from cold process memos and from traces that
        # hold no commit facts or warm-up lines yet, as one sweep in a
        # fresh process does (the seed stack memoises per image).
        clear_process_memos(core_traces)
        return [OutOfOrderCore(settings.core,
                               make_policy(config, sq_size=settings.sq_size))
                .run(trace, stats_warmup_fraction=warmup)
                for trace in core_traces for config in MIX_CONFIGS]

    measured = timed_interleaved([("legacy", legacy_leg),
                                  ("core", core_leg)], REPEATS)
    legacy_results, legacy_s, _ = measured["legacy"]
    core_results, core_s, _ = measured["core"]
    cells = len(names) * len(MIX_CONFIGS)
    assert len(core_results) == len(legacy_results) == cells
    identical = sum(_cell_signature(core) == _cell_signature(legacy)
                    for core, legacy in zip(core_results, legacy_results))
    assert identical == cells, \
        f"the core diverged from the frozen seed stack on {cells - identical} cells"

    uops = cells * instructions
    return {
        "mix_cells": cells,
        "mix_cells_identical": identical,
        "mix_instructions": instructions,
        "mix_legacy_s": round(legacy_s, 3),
        "mix_legacy_uops_per_sec": round(uops / legacy_s, 1),
        "mix_core_s": round(core_s, 3),
        "mix_core_uops_per_sec": round(uops / core_s, 1),
        "mix_speedup_vs_legacy": round(legacy_s / core_s, 3),
    }


def measure_core_throughput():
    """Measure the cell and the mix; returns both legs' metrics."""
    return {**measure_cell_throughput(), **measure_mix_throughput()}


def assert_core_throughput(data):
    """The acceptance bars: bit-identity (asserted inside the measurements),
    the historical >= 1.5x over the frozen seed stack on the Figure-4 cell,
    and >= 2x on the Figure-4 mix."""
    assert data["speedup_vs_legacy"] >= 1.5, data
    assert data["mix_speedup_vs_legacy"] >= 2.0, data


def test_core_throughput():
    data = measure_core_throughput()
    assert_core_throughput(data)
    wall = (data["legacy_s"] + data["core_s"]
            + data["mix_legacy_s"] + data["mix_core_s"])
    path = write_bench_json("core", {"wall_time_s": round(wall, 3), **data})
    print(f"\ncore throughput: {data['core_uops_per_sec']:,.0f} uops/s, "
          f"legacy {data['legacy_uops_per_sec']:,.0f} uops/s "
          f"(x{data['speedup_vs_legacy']} vs pre-refactor seed); "
          f"Figure-4 mix x{data['mix_speedup_vs_legacy']} over "
          f"{data['mix_cells']} identical cells -> {path.name}")


if __name__ == "__main__":
    test_core_throughput()
