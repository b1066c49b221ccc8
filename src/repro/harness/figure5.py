"""Figure 5: performance sensitivity of the indexed SQ.

Three sweeps over nine benchmarks (three per suite), all measured as the
``indexed-3-fwd+dly`` configuration's execution time relative to the ideal
oracle-scheduled associative SQ:

* **FSP/DDP capacity** — 512, 1K, 2K, 4K (default), 8K entries, varied in
  conjunction (top graph).
* **FSP associativity** — 1, 2 (default), 4, 8, 32 ways at 4K entries
  (middle graph).
* **DDP training ratio** — 0:1 (never delay, degenerates to the raw ``Fwd``
  configuration), 1:1, 2:1, 4:1 (default), 8:1, 1:0 (never unlearn)
  (bottom graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.predictors import PredictorSuiteConfig
from repro.exec import ExperimentEngine, JobSpec
from repro.harness.paper_data import (
    FIGURE5_ASSOCIATIVITIES,
    FIGURE5_CAPACITIES,
    FIGURE5_DDP_RATIOS,
)
from repro.harness.reporting import format_table
from repro.harness.runner import BASELINE_CONFIG, ExperimentSettings
from repro.workloads.suites import sensitivity_workloads


@dataclass
class SweepSeries:
    """One benchmark's series across one sweep dimension."""

    name: str
    points: Dict[str, float]   # sweep label -> relative execution time


@dataclass
class Figure5Result:
    """All three sensitivity sweeps."""

    capacity: List[SweepSeries]
    associativity: List[SweepSeries]
    ddp_ratio: List[SweepSeries]
    settings: ExperimentSettings

    @staticmethod
    def _render_sweep(series: List[SweepSeries], title: str) -> str:
        if not series:
            return f"{title}: (no data)"
        labels = list(series[0].points.keys())
        headers = ["benchmark"] + labels
        rows = [[s.name] + [s.points[label] for label in labels] for s in series]
        return format_table(headers, rows, title=title)

    def render(self) -> str:
        return "\n\n".join([
            self._render_sweep(self.capacity, "Figure 5 (top): FSP/DDP capacity sweep"),
            self._render_sweep(self.associativity, "Figure 5 (middle): FSP associativity sweep"),
            self._render_sweep(self.ddp_ratio, "Figure 5 (bottom): DDP training ratio sweep"),
        ])


def run_figure5(workloads: Optional[Sequence[str]] = None,
                settings: Optional[ExperimentSettings] = None,
                capacities: Sequence[int] = FIGURE5_CAPACITIES,
                associativities: Sequence[int] = FIGURE5_ASSOCIATIVITIES,
                ddp_ratios: Sequence[Tuple[int, int]] = FIGURE5_DDP_RATIOS,
                engine: Optional[ExperimentEngine] = None) -> Figure5Result:
    """Regenerate the three Figure 5 sweeps.

    Every ``(workload, sweep point)`` cell — baselines included — is
    submitted to ``engine`` as one flat job list (fan-out + result caching),
    then indexed back into the three per-benchmark series.
    """
    settings = settings or ExperimentSettings()
    engine = engine or ExperimentEngine()
    names = list(workloads) if workloads is not None else sensitivity_workloads()
    default = PredictorSuiteConfig()

    # One flat, workload-major job list; ``index`` maps logical points to
    # positions so the series can be rebuilt after the engine returns.
    specs: List[JobSpec] = []
    index: Dict[Tuple[str, str, str], int] = {}

    def add(name: str, kind: str, label: str, config: str,
            predictors: Optional[PredictorSuiteConfig]) -> None:
        index[(name, kind, label)] = len(specs)
        specs.append(JobSpec(name, config, settings, predictors))

    for name in names:
        add(name, "baseline", "", BASELINE_CONFIG, None)
        for entries in capacities:
            add(name, "capacity", str(entries), "indexed-3-fwd+dly",
                default.scaled_fsp_ddp(entries))
        for assoc in associativities:
            add(name, "associativity", str(assoc), "indexed-3-fwd+dly",
                default.with_fsp_assoc(assoc))
        for positive, negative in ddp_ratios:
            label = f"{positive}:{negative}"
            if positive == 0:
                # 0:1 never trains delay, which degenerates to the raw Fwd config.
                add(name, "ddp_ratio", label, "indexed-3-fwd", default)
            else:
                add(name, "ddp_ratio", label, "indexed-3-fwd+dly",
                    default.with_ddp_ratio(positive, max(negative, 0)))

    per_workload = len(specs) // len(names) if names else 1
    records = engine.run(specs, chunksize=max(1, per_workload))

    def cycles(name: str, kind: str, label: str = "") -> int:
        return records[index[(name, kind, label)]].result.stats.cycles

    capacity_series: List[SweepSeries] = []
    assoc_series: List[SweepSeries] = []
    ratio_series: List[SweepSeries] = []
    for name in names:
        base = cycles(name, "baseline")
        capacity_series.append(SweepSeries(name=name, points={
            str(entries): cycles(name, "capacity", str(entries)) / base
            for entries in capacities}))
        assoc_series.append(SweepSeries(name=name, points={
            str(assoc): cycles(name, "associativity", str(assoc)) / base
            for assoc in associativities}))
        ratio_series.append(SweepSeries(name=name, points={
            f"{p}:{n}": cycles(name, "ddp_ratio", f"{p}:{n}") / base
            for p, n in ddp_ratios}))

    return Figure5Result(capacity=capacity_series, associativity=assoc_series,
                         ddp_ratio=ratio_series, settings=settings)
