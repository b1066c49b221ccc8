#!/usr/bin/env python3
"""Sampled sweep: a paper-scale (10M-instruction) Figure-4 column with error bars.

The paper simulates 10M-instruction samples per benchmark — far beyond what
full-detail simulation of every instruction can reach in reasonable time.
This example uses the statistical sampling subsystem (:mod:`repro.sampling`)
to run one Figure-4 column at that scale: every store-queue configuration is
measured over the same systematically sampled detailed intervals (each
starting from a snapshot of one continuous functional-warming pass), and
the per-interval CPIs give both the relative execution time and a
Student-t confidence interval, rendered as an error bar on each
configuration's bar.

Interval jobs fan out over the experiment engine, so ``REPRO_JOBS=0``
parallelises the sweep and ``REPRO_CACHE_DIR`` memoizes finished intervals
across runs.

Run with::

    python examples/sampled_sweep.py [workload] [instructions]

(defaults: vortex, 10M instructions; takes a couple of minutes serially —
pass 1000000 for a quick look).
"""

import sys

from repro.exec import ExperimentEngine, JobSpec
from repro.harness.runner import BASELINE_CONFIG, FIGURE4_CONFIGS, ExperimentSettings
from repro.sampling import SamplingPlan


def render_bar(value: float, halfwidth: float, lo: float = 0.8, hi: float = 1.4,
               width: int = 46) -> str:
    """ASCII bar for ``value`` with ``+/- halfwidth`` whiskers."""
    def col(x: float) -> int:
        return max(0, min(width - 1, round((x - lo) / (hi - lo) * (width - 1))))

    cells = [" "] * width
    left, mid, right = col(value - halfwidth), col(value), col(value + halfwidth)
    for i in range(left, right + 1):
        cells[i] = "-"
    cells[left] = "|"
    cells[right] = "|"
    cells[mid] = "#"
    return "".join(cells)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "vortex"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000_000

    # ~25 intervals of 2k instructions, each after 2k detailed warm-up
    # instructions on top of one continuous functional pass: the whole
    # 10M-instruction run touches only ~1% of the trace in the
    # cycle-accurate model.
    plan = SamplingPlan(interval_length=2_000, detailed_warmup=2_000,
                        period=max(instructions // 25, 8_000), seed=0)
    settings = ExperimentSettings(instructions=instructions,
                                  stats_warmup_fraction=0.0, sampling=plan)
    engine = ExperimentEngine.from_settings(settings)

    configs = [BASELINE_CONFIG] + list(FIGURE4_CONFIGS)
    print(f"Sampled {workload} at {instructions:,} instructions: "
          f"{plan.num_intervals(instructions)} intervals of {plan.interval_length} "
          f"({100 * plan.sampled_fraction(instructions):.2f}% measured in detail)")
    records = engine.run([JobSpec(workload, name, settings) for name in configs])
    stats = engine.last_run_stats
    print(f"engine: {stats['total']} interval jobs, {stats['cache_hits']} cached, "
          f"{stats['simulated']} simulated on {stats['workers']} worker(s)\n")

    baseline = records[0].result.sampled
    print(f"{'configuration':28s} {'rel.time':>8s} {'+/-':>6s}  "
          f"(CPI {baseline.cpi_mean:.3f} +/- {baseline.cpi_ci_halfwidth:.3f} baseline)")
    for name, record in zip(configs[1:], records[1:]):
        sampled = record.result.sampled
        relative = sampled.cpi_mean / baseline.cpi_mean
        # First-order CI of the ratio: relative half-widths in quadrature.
        halfwidth = relative * (
            (sampled.relative_ci ** 2 + baseline.relative_ci ** 2) ** 0.5)
        bar = render_bar(relative, halfwidth)
        print(f"{name:28s} {relative:8.3f} {halfwidth:6.3f}  [{bar}]")
    print("\n(bars span 0.8x..1.4x of the ideal associative SQ; "
          "whiskers are the 95% confidence interval)")


if __name__ == "__main__":
    main()
