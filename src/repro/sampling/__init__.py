"""Statistical sampling: functional warming + interval simulation.

SMARTS-style systematic sampling lets the simulator reach the paper's
10M-instruction samples: instead of simulating every instruction through
the cycle-accurate out-of-order model, a :class:`SamplingPlan` measures
short detailed intervals at a fixed period, each preceded by a short
detailed warm-up.  Everything before that warm-up is warmed continuously
by fast functional replay (:mod:`repro.sampling.functional`) of the
long-lived microarchitectural state.  Per-interval CPIs are aggregated
with a Student-t confidence interval (:mod:`repro.sampling.result`).

Usage — set the ``sampling`` knob on
:class:`~repro.harness.runner.ExperimentSettings`::

    from repro.harness.runner import ExperimentSettings
    from repro.sampling import SamplingPlan

    settings = ExperimentSettings(
        instructions=10_000_000,
        sampling=SamplingPlan(interval_length=2_000, detailed_warmup=2_000,
                              period=400_000))

Every harness experiment (Table 3, Figures 4/5) then runs sampled: the
:class:`~repro.exec.engine.ExperimentEngine` expands each ``(workload,
configuration)`` spec into one :class:`~repro.exec.jobs.IntervalJobSpec`
per interval, fans the intervals out over its process pool, caches each
interval independently, and merges the records deterministically (see
:mod:`repro.sampling.driver`).

Warming is checkpointed (:mod:`repro.sampling.checkpoints`): one full
functional pass per workload snapshots the warmed machine state at every
interval start into a content-addressed on-disk store shared by every
configuration of a sweep (and by later runs), and interval jobs load
those snapshots.  Every interval thus carries the whole history before
it, as in SMARTS's continuous functional warming.

This package's ``__init__`` exports only the dependency-light plan/result
types; import :mod:`repro.sampling.driver`,
:mod:`repro.sampling.functional`, and :mod:`repro.sampling.checkpoints`
explicitly for the execution machinery.
"""

from repro.sampling.plan import IntervalWindow, SamplingPlan, student_t_two_sided
from repro.sampling.result import (
    IntervalMeasurement,
    SampledResult,
    SampledSimulationResult,
)

__all__ = [
    "IntervalMeasurement",
    "IntervalWindow",
    "SampledResult",
    "SampledSimulationResult",
    "SamplingPlan",
    "student_t_two_sided",
]
