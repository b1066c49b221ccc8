"""Sampling plans: SMARTS-style systematic interval sampling.

A :class:`SamplingPlan` describes how a long trace is sampled: every
``period`` instructions one **measurement interval** of ``interval_length``
(*U*) instructions is simulated in full detail, preceded by
``detailed_warmup`` (*W*) instructions of detailed simulation whose
statistics are discarded.  Everything before the detailed warm-up is
warmed functionally and continuously from the start of the trace: the
long-lived microarchitectural state (branch predictor/BTB/RAS,
caches/TLB, SVW tables, FSP/SAT/DDP/store sets) carries the whole
history into every interval (:mod:`repro.sampling.checkpoints`).  The
first interval is placed at a ``seed``-derived offset inside the first
period (systematic sampling with a random phase, after SMARTS
[Wunderlich et al., ISCA'03]).

Per-interval CPI observations are aggregated with a mean and a Student-t
confidence interval (:func:`student_t_two_sided`); see
:mod:`repro.sampling.result`.

This module is dependency-light on purpose: :class:`SamplingPlan` is
embedded in :class:`~repro.harness.runner.ExperimentSettings` and travels
inside job specs and cache keys, so it must not import the harness, the
core, or the execution engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import List


def _t_two_sided_cdf(t: float, df: int) -> float:
    """``P(|T| <= t)`` for Student's t with integer ``df``.

    Uses the classical elementary-function series for integer degrees of
    freedom (Abramowitz & Stegun 26.7.3/26.7.4), so it is exact up to
    floating-point rounding — no special functions needed.
    """
    theta = math.atan2(t, math.sqrt(df))
    sin_t = math.sin(theta)
    cos_sq = math.cos(theta) ** 2
    if df % 2 == 1:
        if df == 1:
            return 2.0 * theta / math.pi
        term = math.cos(theta)
        total = term
        for i in range(1, (df - 1) // 2):
            term *= cos_sq * (2 * i) / (2 * i + 1)
            total += term
        return 2.0 / math.pi * (theta + sin_t * total)
    term = 1.0
    total = 1.0
    for i in range(1, df // 2):
        term *= cos_sq * (2 * i - 1) / (2 * i)
        total += term
    return sin_t * total


def student_t_two_sided(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value ``t`` with ``P(|T| <= t) = confidence``.

    The quantile is obtained by bisecting the exact integer-df CDF
    (:func:`_t_two_sided_cdf`), so small samples — the common case for
    sampling plans with a handful of intervals — get correctly sized
    confidence intervals; accuracy is limited only by the bisection
    tolerance (~1e-10).  The normal quantile seeds the bracket.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df == 1:
        return math.tan(math.pi * confidence / 2.0)
    if df == 2:
        return confidence * math.sqrt(2.0 / (1.0 - confidence * confidence))
    hi = max(2.0, 2.0 * NormalDist().inv_cdf((1.0 + confidence) / 2.0))
    while _t_two_sided_cdf(hi, df) < confidence:
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if _t_two_sided_cdf(mid, df) < confidence:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class IntervalWindow:
    """Instruction-index layout of one sampling interval.

    ``detailed_start <= measure_start < measure_end``; the detailed
    warm-up is clamped at the start of the trace for early intervals.
    ``[0, detailed_start)`` is warmed functionally.
    """

    index: int
    detailed_start: int
    measure_start: int
    measure_end: int

    @property
    def measure_length(self) -> int:
        return self.measure_end - self.measure_start


@dataclass(frozen=True)
class SamplingPlan:
    """Knobs of one systematic-sampling schedule.

    Attributes
    ----------
    interval_length:
        Measured instructions per interval (*U*).
    detailed_warmup:
        Detailed (cycle-accurate) warm-up instructions before each measured
        interval (*W*); their statistics are discarded.
    period:
        Instructions between successive measurement starts.  ``period ==
        interval_length`` degenerates to full-detail simulation.
    seed:
        Seed of the random phase of the first interval within the first
        period (systematic sampling with random offset).
    confidence:
        Confidence level of the reported CPI interval (default 95%).
    """

    interval_length: int = 1_000
    detailed_warmup: int = 1_000
    period: int = 20_000
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")
        if self.detailed_warmup < 0:
            raise ValueError("detailed_warmup must be non-negative")
        if self.period < self.interval_length:
            raise ValueError("period must be at least interval_length")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    # ------------------------------------------------------------- layout --

    def first_offset(self) -> int:
        """Measurement start of interval 0 (seed-derived phase)."""
        slack = self.period - self.interval_length
        if slack <= 0:
            return 0
        return random.Random(0x5A3F17 ^ self.seed).randrange(slack + 1)

    def intervals(self, total_instructions: int) -> List[IntervalWindow]:
        """The interval layout for a trace of ``total_instructions``.

        Deterministic given the plan; at least one interval is always
        scheduled (pinned to the end of short traces).
        """
        if total_instructions < self.interval_length:
            raise ValueError(
                f"trace of {total_instructions} instructions is shorter than "
                f"one interval ({self.interval_length})")
        starts: List[int] = []
        start = self.first_offset()
        while start + self.interval_length <= total_instructions:
            starts.append(start)
            start += self.period
        if not starts:
            starts.append(total_instructions - self.interval_length)
        return [IntervalWindow(
                    index=index,
                    detailed_start=max(0, measure_start - self.detailed_warmup),
                    measure_start=measure_start,
                    measure_end=measure_start + self.interval_length)
                for index, measure_start in enumerate(starts)]

    def num_intervals(self, total_instructions: int) -> int:
        return len(self.intervals(total_instructions))

    def sampled_fraction(self, total_instructions: int) -> float:
        """Fraction of the trace measured in detail (diagnostic)."""
        measured = sum(w.measure_length for w in self.intervals(total_instructions))
        return measured / total_instructions if total_instructions else 0.0
