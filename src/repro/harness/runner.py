"""Low-level experiment plumbing: policy factory, per-workload runs, means.

The timing experiments (Table 3, Figures 4 and 5) all follow the same shape:
build a workload trace once, simulate it under one or more store-queue
configurations, and aggregate the per-run statistics.  This module provides
the shared pieces; the per-experiment modules add only the configuration
sweeps and report formats, and execute their ``(workload, configuration)``
grids through :class:`repro.exec.ExperimentEngine` (process fan-out over
the engine's worker count, default ``REPRO_JOBS``; on-disk result
memoization under ``REPRO_CACHE_DIR``, default ``.repro-cache/``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.predictors import PredictorSuiteConfig
from repro.lsu.policies import (
    AssociativeStoreSetsPolicy,
    IndexedSQPolicy,
    OracleAssociativePolicy,
    SQPolicy,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore, SimulationResult
from repro.sampling.plan import SamplingPlan
from repro.workloads.suites import DEFAULT_INSTRUCTIONS

#: The Figure 4 configuration names, in presentation order.  The ideal
#: oracle-scheduled 3-cycle associative SQ is the normalisation baseline and
#: is not itself a bar.
FIGURE4_CONFIGS = (
    "associative-3",
    "associative-5-optimistic",
    "associative-5-predictive",
    "indexed-3-fwd",
    "indexed-3-fwd+dly",
)

#: The normalisation baseline configuration name.
BASELINE_CONFIG = "oracle-associative-3"


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every timing experiment.

    ``stats_warmup_fraction`` plays the role of the paper's 8% cache/predictor
    warm-up: the first fraction of each trace trains caches and predictors
    but is excluded from the reported statistics (our traces are far shorter
    than the paper's 10M-instruction samples, so proportionally more warm-up
    is needed before predictor cold-start effects stop dominating).

    ``sampling`` switches an experiment to statistical sampling: instead of
    simulating every instruction in detail, the run measures the plan's
    detailed intervals, each starting from a full-history snapshot of one
    continuous functional pass (:mod:`repro.sampling.checkpoints`; one
    O(N) pass per workload, amortised across every configuration of a
    sweep), and reports merged statistics plus a CPI confidence interval
    (see :mod:`repro.sampling`).  ``stats_warmup_fraction`` is ignored for
    sampled runs — warm-up is per-interval and specified by the plan.

    ``checkpoints`` is accepted so existing call shapes keep working:
    ``True`` and ``None`` both mean the one warming mode and share every
    key.  ``False`` asked for bounded per-interval warming, which was
    retired, and raises :class:`ValueError`.
    """

    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = 1
    sq_size: int = 64
    stats_warmup_fraction: float = 0.25
    core: CoreConfig = field(default_factory=CoreConfig)
    sampling: Optional[SamplingPlan] = None
    checkpoints: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.checkpoints not in (None, True):
            raise ValueError(
                f"checkpoints={self.checkpoints!r} is not supported: bounded "
                f"functional warming was retired and every sampled run warms "
                f"from checkpoints; pass True or leave it unset")


def make_policy(name: str, sq_size: int = 64,
                predictors: Optional[PredictorSuiteConfig] = None) -> SQPolicy:
    """Construct the SQ policy for a named configuration.

    Recognised names: ``oracle-associative-3``, ``associative-3``,
    ``associative-5-optimistic``, ``associative-5-predictive``,
    ``indexed-3-fwd``, ``indexed-3-fwd+dly``.
    """
    if name == BASELINE_CONFIG:
        return OracleAssociativePolicy(sq_size=sq_size, sq_latency=3, predictors=predictors)
    if name == "associative-3":
        return AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=3,
                                          scheduling="predictive", predictors=predictors)
    if name == "associative-5-optimistic":
        return AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=5,
                                          scheduling="optimistic", predictors=predictors)
    if name == "associative-5-predictive":
        return AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=5,
                                          scheduling="predictive", predictors=predictors)
    if name == "associative-original-storesets":
        return AssociativeStoreSetsPolicy(sq_size=sq_size, sq_latency=3,
                                          scheduling="predictive", formulation="original",
                                          predictors=predictors)
    if name == "indexed-3-fwd":
        return IndexedSQPolicy(sq_size=sq_size, use_delay=False, predictors=predictors)
    if name == "indexed-3-fwd+dly":
        return IndexedSQPolicy(sq_size=sq_size, use_delay=True, predictors=predictors)
    raise ValueError(f"unknown configuration {name!r}")


@dataclass
class RunRecord:
    """One (workload, configuration) simulation."""

    workload: str
    config_name: str
    result: SimulationResult

    @property
    def cycles(self) -> int:
        return self.result.stats.cycles

    @property
    def ipc(self) -> float:
        return self.result.stats.ipc


def run_workload(trace, config_name: str,
                 settings: Optional[ExperimentSettings] = None,
                 predictors: Optional[PredictorSuiteConfig] = None) -> RunRecord:
    """Simulate one trace under one named configuration.

    ``trace`` is an :class:`~repro.isa.plane.EncodedOps`: what
    :func:`~repro.workloads.suites.build_workload` returns, or what
    :func:`~repro.isa.plane.encode_uops` makes of named micro-ops.

    A sampled run starts every interval from a snapshot in the checkpoint
    store, which is keyed by workload name, so it runs by name, not over a
    trace: ``settings.sampling`` raises :class:`ValueError`.
    """
    settings = settings or ExperimentSettings()
    if settings.sampling is not None:
        raise ValueError("run_workload simulates in full detail; run sampled "
                         "settings by workload name through ExperimentEngine "
                         "or run_sampled_workload")
    policy = make_policy(config_name, sq_size=settings.sq_size, predictors=predictors)
    core = OutOfOrderCore(settings.core, policy)
    result = core.run(trace, stats_warmup_fraction=settings.stats_warmup_fraction)
    return RunRecord(workload=trace.name, config_name=config_name, result=result)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the aggregation Figure 4 uses for relative times).

    Accepts any iterable in a single pass (no re-materialisation of the
    input) and accumulates the log-sum with :func:`math.fsum` for
    correctly-rounded summation even over long, spread-out series.
    """
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        logs.append(math.log(value))
    if not logs:
        return 0.0
    return math.exp(math.fsum(logs) / len(logs))
