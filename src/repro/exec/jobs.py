"""Job specifications and the per-process job runner.

A :class:`JobSpec` names one ``(workload, configuration)`` simulation by
*value*: the workload name, the configuration name, the experiment settings,
and an optional predictor-suite override.  Traces are deterministic functions
of ``(name, instructions, seed)``, so specs — not pickled multi-megabyte
traces — are what travels to worker processes; each worker rebuilds (and
memoises) the traces it needs.

``run_job`` is the single entry point executed on both the serial path and
inside pool workers, which is what makes serial and parallel sweeps
bit-identical.

Checkpoint *generation* work travels the same way but with its own spec
type: the engine's generation stage fans
:class:`~repro.sampling.checkpoints.CheckpointJobSpec` (one warming pass
over one workload's policy group) out over the pool via
:func:`~repro.sampling.checkpoints.run_checkpoint_job` before the interval
jobs here are simulated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings, RunRecord
    from repro.isa.plane import EncodedOps


@dataclass(frozen=True)
class JobSpec:
    """One ``(workload, configuration)`` simulation, described by value.

    When ``settings.sampling`` is set, the spec names a *sampled* run: the
    engine expands it into one :class:`IntervalJobSpec` per measurement
    interval (fanned out and cached independently) and merges the interval
    records back into a single
    :class:`~repro.sampling.result.SampledSimulationResult`-backed record.
    """

    workload: str
    config_name: str
    settings: "ExperimentSettings"
    predictors: Optional["PredictorSuiteConfig"] = None


@dataclass(frozen=True)
class IntervalJobSpec:
    """One sampling interval of a sampled ``(workload, configuration)`` run.

    Fully described by value: the worker loads the interval's
    full-history snapshot and detailed window from the checkpoint store at
    ``checkpoint_dir`` (``None`` = environment default location; see
    :mod:`repro.sampling.checkpoints`) and simulates the detailed warm-up
    + measured region.  ``settings.sampling`` must be the plan the
    interval index refers to.  ``checkpoint_dir`` is not part of the result
    cache key: snapshots are content-addressed, their location is
    irrelevant.
    """

    workload: str
    config_name: str
    settings: "ExperimentSettings"
    interval_index: int
    predictors: Optional["PredictorSuiteConfig"] = None
    checkpoint_dir: Optional[str] = None


#: Per-process trace memo: (name, instructions, seed) -> encoded trace.
#: Kept small; sweeps are ordered workload-major so in practice one entry is
#: live.
_TRACE_CACHE: Dict[Tuple[str, int, int], "EncodedOps"] = {}
_TRACE_CACHE_LIMIT = 8


def _trace_for(spec: JobSpec) -> "EncodedOps":
    from repro.workloads.suites import build_workload

    key = (spec.workload, spec.settings.instructions, spec.settings.seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = build_workload(spec.workload, instructions=spec.settings.instructions,
                               seed=spec.settings.seed)
        while len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = trace
    return trace


#: Per-process counter distinguishing successive profile dumps from one
#: worker (the engine's run directory plus the pid provide the rest of
#: the namespace).
_PROFILE_SEQ = 0


def run_job(spec, profile_dir: Optional[str] = None) -> "RunRecord":
    """Execute one job spec (plain, sampled, or a single sampling interval).

    With a ``profile_dir`` (the engine passes its run directory while the
    ``REPRO_PROFILE`` knob is on), the execution is wrapped in
    :mod:`cProfile` and the stats are dumped there as
    ``job-<pid>-<n>.pstats`` — in-process and inside pool workers alike,
    since both enter here.  Profiling observes only; the returned record
    is bit-identical either way.
    """
    if not profile_dir:
        return _run_job(spec)

    import cProfile

    global _PROFILE_SEQ
    _PROFILE_SEQ += 1
    path = os.path.join(profile_dir,
                        f"job-{os.getpid()}-{_PROFILE_SEQ}.pstats")
    profile = cProfile.Profile()
    try:
        return profile.runcall(_run_job, spec)
    finally:
        try:
            profile.dump_stats(path)
        except OSError:  # pragma: no cover - profile dir raced away
            pass


def _run_job(spec) -> "RunRecord":
    """The actual job dispatch (see :func:`run_job`).

    Imports are deferred so that :mod:`repro.exec` never imports
    :mod:`repro.harness` at module level (the harness imports the engine).
    Sampled base specs never materialise their (possibly 10M-instruction)
    trace — the sampling driver runs interval by interval over the
    windows the intervals' shared snapshots hold.
    """
    if isinstance(spec, IntervalJobSpec):
        from repro.sampling.driver import run_interval_job

        return run_interval_job(spec)

    if getattr(spec.settings, "sampling", None) is not None:
        from repro.sampling.driver import run_sampled_workload

        return run_sampled_workload(spec.workload, spec.config_name,
                                    spec.settings, predictors=spec.predictors)

    from repro.harness.runner import run_workload

    trace = _trace_for(spec)
    return run_workload(trace, spec.config_name, spec.settings,
                        predictors=spec.predictors)
