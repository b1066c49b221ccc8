"""Sampled-run results: per-interval measurements + CLT/t aggregation.

A sampled simulation produces one :class:`IntervalMeasurement` per detailed
interval; :class:`SampledResult` aggregates them into a mean CPI with a
Student-t confidence interval and into a merged
:class:`~repro.pipeline.stats.SimStats` (field-wise sums over the measured
regions, so every Table 3 rate — forwarding, mis-forwardings per 1000
loads, percent delayed — is computable exactly as for a full-detail run).

:class:`SampledSimulationResult` is a drop-in
:class:`~repro.pipeline.core.SimulationResult`: the harness experiments
(Figure 4 relative times, Table 3 rates) read ``stats`` without caring
whether a run was sampled, while sampling-aware consumers reach the full
per-interval detail through ``.sampled``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats
from repro.sampling.plan import SamplingPlan, student_t_two_sided


@dataclass
class IntervalMeasurement:
    """The measured region of one detailed interval."""

    index: int
    measure_start: int
    instructions: int
    cycles: int
    stats: SimStats
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SampledResult:
    """Aggregate of one sampled ``(workload, configuration)`` run."""

    workload: str
    config_name: str
    plan: SamplingPlan
    total_instructions: int
    intervals: List[IntervalMeasurement]

    # ------------------------------------------------------------ estimates --

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @property
    def cpi_values(self) -> List[float]:
        return [m.cpi for m in self.intervals]

    @property
    def cpi_mean(self) -> float:
        values = self.cpi_values
        return math.fsum(values) / len(values) if values else 0.0

    @property
    def cpi_std(self) -> float:
        """Sample standard deviation of the per-interval CPIs."""
        values = self.cpi_values
        n = len(values)
        if n < 2:
            return 0.0
        mean = self.cpi_mean
        return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))

    @property
    def cpi_ci_halfwidth(self) -> float:
        """Half-width of the two-sided ``plan.confidence`` CPI interval.

        Zero when only one interval was measured (no variance estimate).
        """
        n = self.num_intervals
        if n < 2:
            return 0.0
        t = student_t_two_sided(self.plan.confidence, n - 1)
        return t * self.cpi_std / math.sqrt(n)

    @property
    def cpi_ci(self) -> Tuple[float, float]:
        mean, half = self.cpi_mean, self.cpi_ci_halfwidth
        return (mean - half, mean + half)

    @property
    def relative_ci(self) -> float:
        """CI half-width relative to the mean (the paper-style ±x%)."""
        mean = self.cpi_mean
        return self.cpi_ci_halfwidth / mean if mean else 0.0

    @property
    def estimated_total_cycles(self) -> float:
        """CPI-mean extrapolation over the whole trace."""
        return self.cpi_mean * self.total_instructions

    # ---------------------------------------------------------------- merge --

    #: :class:`SimStats` fields that are peaks or flags (merged as max over
    #: intervals) rather than summable counters: ``mshr_occupancy`` is a
    #: peak, ``mshr_modeled`` a 0/1 flag whose sum would be meaningless.
    PEAK_STAT_FIELDS = frozenset({"mshr_modeled", "mshr_occupancy"})

    def merged_stats(self) -> SimStats:
        """Field-wise sum of the per-interval measured-region statistics
        (peak/flag fields — :attr:`PEAK_STAT_FIELDS` — merge as max)."""
        merged = SimStats()
        peak_fields = self.PEAK_STAT_FIELDS
        for measurement in self.intervals:
            for stats_field in dataclasses.fields(SimStats):
                name = stats_field.name
                if name in peak_fields:
                    setattr(merged, name,
                            max(getattr(merged, name), getattr(measurement.stats, name)))
                else:
                    setattr(merged, name,
                            getattr(merged, name) + getattr(measurement.stats, name))
        return merged

    #: ``extra`` keys that are peaks (merged as max over intervals); every
    #: other key is treated as a rate and instruction-weight averaged.  An
    #: explicit enumeration, so a future rate metric whose *name* happens
    #: to contain "max" cannot silently change aggregation semantics.
    PEAK_EXTRA_KEYS = frozenset({"rob_max_occupancy", "mshr_occupancy"})

    def merged_extra(self) -> Dict[str, float]:
        """Merge the per-interval ``extra`` metrics.

        Peak metrics (:attr:`PEAK_EXTRA_KEYS`) merge as the maximum over
        intervals.  Everything else — the rate-style extras — merges as an
        instruction-weighted mean, an approximation of the true pooled rate
        (whose exact denominators, e.g. branch counts, are available in
        :meth:`merged_stats` for consumers that need them).
        """
        weights = [m.instructions for m in self.intervals]
        total = sum(weights)
        merged: Dict[str, float] = {}
        if not total:
            return merged
        keys = set()
        for measurement in self.intervals:
            keys.update(measurement.extra)
        for key in sorted(keys):
            if key in self.PEAK_EXTRA_KEYS:
                merged[key] = max(m.extra.get(key, 0.0) for m in self.intervals)
            else:
                merged[key] = math.fsum(
                    m.extra.get(key, 0.0) * w
                    for m, w in zip(self.intervals, weights)) / total
        return merged

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary (recorded in benchmark trajectory files)."""
        return {
            "intervals": self.num_intervals,
            "interval_length": self.plan.interval_length,
            "detailed_warmup": self.plan.detailed_warmup,
            "period": self.plan.period,
            "confidence": self.plan.confidence,
            "cpi_mean": self.cpi_mean,
            "cpi_ci_halfwidth": self.cpi_ci_halfwidth,
            "relative_ci": self.relative_ci,
            "estimated_total_cycles": self.estimated_total_cycles,
            "sampled_fraction": self.plan.sampled_fraction(self.total_instructions),
        }


@dataclass
class SampledSimulationResult(SimulationResult):
    """A :class:`SimulationResult` carrying its per-interval breakdown.

    ``stats`` holds the merged (summed) measured-region counters, so ratio
    metrics and cross-configuration cycle ratios (Figure 4 relative times)
    behave exactly like full-detail results as long as every configuration
    uses the same plan; ``sampled`` holds the per-interval detail and the
    confidence interval.
    """

    sampled: Optional[SampledResult] = None
