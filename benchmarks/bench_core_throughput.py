"""Benchmark: detailed-path throughput, frozen seed stack vs the current core.

Measures serial detailed-simulation throughput (uops/sec, ``idle_skip`` on)
of one Figure-4 cell — the paper's ``vortex`` workload under the
``indexed-3-fwd+dly`` configuration — once per leg:

* **legacy** — the frozen seed stack (``legacy_ref/``: pre-refactor
  ``MicroOp``-object trace composer, attribute-probing core loop, and
  pre-optimisation substrate, all verbatim): the *before* leg, re-measured
  on the same machine at bench time so the recorded ratio is
  hardware-independent;
* **core** — :class:`~repro.pipeline.core.OutOfOrderCore` on the
  static-plane trace (:class:`~repro.isa.plane.EncodedOps`): the fused
  struct-of-arrays run loop.

Each leg's uops/sec covers trace materialisation *plus* simulation (the
detailed path as a user pays for it); both legs must produce bit-identical
statistics before any ratio is reported, and the core must stay >= 1.5x
over the seed stack.  The measurements land in ``BENCH_core.json`` at the
repo root.
"""

import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import write_bench_json  # noqa: E402
import legacy_ref  # noqa: E402
from legacy_ref import suites as legacy_suites  # noqa: E402

from repro.harness.runner import ExperimentSettings, make_policy  # noqa: E402
from repro.pipeline.core import OutOfOrderCore  # noqa: E402
from repro.workloads.suites import build_workload  # noqa: E402
from repro.workloads import suites  # noqa: E402

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


def _stats_signature(result):
    return tuple(sorted(result.stats.as_dict().items()))


def _timed_once(leg):
    """One timed execution with GC isolation.

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


def _timed_interleaved(legs, repeats=REPEATS):
    """Median-of-N per leg, with the repetitions *interleaved* across legs.

    Shared machines drift (CI neighbours, thermal throttling): measuring
    each leg's repetitions back-to-back bakes whatever the machine was
    doing during *that leg's* window into the recorded ratios.  Round-robin
    ordering — every leg once per round — spreads drift evenly over all
    legs, so the per-leg medians move together and the ratios stay stable.
    Returns ``{name: (last_result, median_seconds)}`` in input order.
    """
    times = {name: [] for name, _ in legs}
    results = {}
    for _ in range(repeats):
        for name, leg in legs:
            result, seconds = _timed_once(leg)
            results[name] = result
            times[name].append(seconds)
    return {name: (results[name], statistics.median(times[name]))
            for name, _ in legs}


def measure_core_throughput(instructions=CORE_BENCH_INSTRUCTIONS, seed=1):
    """Measure both legs; asserts bit-identity, returns metrics."""
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
        suites._SEGMENT_CACHE.clear()
        trace = build_workload(WORKLOAD, instructions=instructions, seed=seed)
        core = OutOfOrderCore(settings.core,
                              make_policy(CONFIG, sq_size=settings.sq_size))
        return core.run(trace,
                        stats_warmup_fraction=settings.stats_warmup_fraction)

    measured = _timed_interleaved([("legacy", legacy_leg), ("core", core_leg)])
    legacy_result, legacy_s = measured["legacy"]
    core_result, core_s = measured["core"]
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


def assert_core_throughput(data):
    """The acceptance bars: bit-identity (asserted inside the measurement)
    and the historical >= 1.5x over the frozen seed stack on the Figure-4
    cell."""
    assert data["speedup_vs_legacy"] >= 1.5, data


def test_core_throughput():
    data = measure_core_throughput()
    assert_core_throughput(data)
    wall = data["legacy_s"] + data["core_s"]
    path = write_bench_json("core", {"wall_time_s": round(wall, 3), **data})
    print(f"\ncore throughput: {data['core_uops_per_sec']:,.0f} uops/s, "
          f"legacy {data['legacy_uops_per_sec']:,.0f} uops/s "
          f"(x{data['speedup_vs_legacy']} vs pre-refactor seed) -> {path.name}")


if __name__ == "__main__":
    test_core_throughput()
