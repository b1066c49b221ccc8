"""The sampled-simulation driver.

Splits a sampled ``(workload, configuration)`` run into per-interval jobs,
executes each interval (full-history snapshot -> detailed warm-up ->
measured region), and merges the interval measurements into one
:class:`~repro.sampling.result.SampledSimulationResult`.  Every interval
starts from the machine state one continuous functional pass left at its
detailed-warmup start (:mod:`repro.sampling.checkpoints`).

Two entry points, producing bit-identical results:

* :func:`run_interval_job` — one :class:`~repro.exec.jobs.IntervalJobSpec`;
  this is what runs inside :class:`~repro.exec.engine.ExperimentEngine`
  pool workers and what the result cache stores, one entry per interval.
* :func:`run_sampled_workload` — a whole sampled run by workload *name*,
  through a one-worker engine in this process (each interval's detailed
  window comes from its shared snapshot; the full trace is never
  materialised).

Imports from :mod:`repro.harness` are deferred inside functions: the
harness imports the engine, the engine expands sampled specs through this
module, and the module-level import set must stay acyclic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exec.jobs import IntervalJobSpec, JobSpec
from repro.isa.plane import EncodedOps
from repro.pipeline.commit_facts import (
    CommitFacts,
    compute_commit_facts,
    svw_geometry,
)
from repro.pipeline.core import OutOfOrderCore
from repro.sampling.functional import FunctionalState
from repro.sampling.plan import IntervalWindow
from repro.sampling.result import (
    IntervalMeasurement,
    SampledResult,
    SampledSimulationResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings, RunRecord


def expand_sampled_spec(spec: JobSpec, checkpoint_dir: Optional[str] = None
                        ) -> List[IntervalJobSpec]:
    """One :class:`IntervalJobSpec` per interval of a sampled base spec.

    The intervals load their snapshots from the checkpoint store at
    ``checkpoint_dir`` (``None`` = environment default location).
    """
    plan = spec.settings.sampling
    if plan is None:
        raise ValueError("spec has no sampling plan")
    count = plan.num_intervals(spec.settings.instructions)
    return [IntervalJobSpec(spec.workload, spec.config_name, spec.settings,
                            index, spec.predictors,
                            checkpoint_dir=checkpoint_dir)
            for index in range(count)]


def interval_major_order(specs: Sequence) -> List[int]:
    """The order in which to run an expanded job list: every interval job
    right after the first job of its shared snapshot, so the
    configurations of one interval run back to back and share its decoded
    snapshot (:func:`repro.sampling.checkpoints.interval_record`).  Other
    jobs keep their places relative to each other, as do the jobs of one
    shared snapshot.  Returns positions in ``specs``.
    """
    from repro.sampling.checkpoints import shared_location

    first: Dict[Tuple[Optional[str], str], int] = {}
    rank = []
    for position, spec in enumerate(specs):
        if isinstance(spec, IntervalJobSpec):
            rank.append(first.setdefault(shared_location(spec), position))
        else:
            rank.append(position)
    return sorted(range(len(specs)), key=rank.__getitem__)


def _window_facts(encoded: EncodedOps, state: FunctionalState) -> CommitFacts:
    """The commit facts of one interval's window from its snapshot.

    A window's facts depend only on its snapshot and its micro-ops, so the
    configurations of an interval share them through the interval record
    (:func:`repro.sampling.checkpoints.interval_facts`), one computation per
    SVW geometry.
    """
    from repro.sampling.checkpoints import interval_facts

    svw = state.policy.svw
    memo = interval_facts()
    key = svw_geometry(svw)
    facts = memo.get(key)
    if facts is None:
        facts = memo[key] = compute_commit_facts(
            encoded, state.memory, svw, state.ssn_alloc.ssn_rename + 1)
    return facts


def _overrun(config) -> int:
    """Extra trace instructions appended past a measured interval.

    The measured region stops at its U-th commit *mid-steady-state* (see
    ``stats_measure_instructions`` in
    :meth:`~repro.pipeline.core.OutOfOrderCore.run`); the overrun keeps the
    fetch stream busy until then so the interval is never charged for a
    pipeline drain.  One ROB of younger instructions (plus a dispatch
    margin) is sufficient by construction.
    """
    return config.rob_size + 4 * config.rename_width


def _simulate_window(uops: EncodedOps, window: IntervalWindow,
                     workload: str, config_name: str,
                     settings: "ExperimentSettings",
                     state: FunctionalState,
                     facts: Optional[CommitFacts] = None) -> "RunRecord":
    """Detailed warm-up + measured region over an already warmed machine.

    ``uops`` is the interval's window, named after ``workload``:
    ``[window.detailed_start, window.measure_end)`` plus up to
    :func:`_overrun` trailing instructions;
    ``state`` is the warmed machine state at ``window.detailed_start``, and
    ``facts`` the window's commit facts from it (``None``: the core
    computes them).
    """
    from repro.harness.runner import RunRecord

    core = OutOfOrderCore(settings.core, state.policy)
    core.import_state(state)
    result = core.run(
        uops, warm_memory=False,
        stats_warmup_instructions=window.measure_start - window.detailed_start,
        stats_measure_instructions=window.measure_length,
        commit_facts=facts)
    return RunRecord(workload=workload, config_name=config_name, result=result)


def run_interval_job(spec: IntervalJobSpec) -> "RunRecord":
    """Execute one interval job from its full-history snapshot.

    Loads (or exactly recomputes, see
    :func:`repro.sampling.checkpoints.load_interval_state`) the interval's
    snapshot, detailed window included, then simulates the detailed
    warm-up and the measured region.  Inside an engine run the interval's
    other configurations share the decoded snapshot and the window's
    commit facts.
    """
    from repro.sampling.checkpoints import load_interval_state

    settings = spec.settings
    plan = settings.sampling
    if plan is None:
        raise ValueError("interval spec has no sampling plan")
    window = plan.intervals(settings.instructions)[spec.interval_index]
    state, uops = load_interval_state(spec, window)
    return _simulate_window(uops, window, spec.workload, spec.config_name,
                            settings, state, _window_facts(uops, state))


def merge_interval_records(spec: JobSpec,
                           records: Sequence["RunRecord"]) -> "RunRecord":
    """Deterministically merge per-interval records into one sampled record.

    ``records`` must be in interval order (the engine preserves input
    order, so this holds however the intervals were executed or cached).
    """
    from repro.harness.runner import RunRecord

    settings = spec.settings
    plan = settings.sampling
    windows = plan.intervals(settings.instructions)
    if len(records) != len(windows):
        raise ValueError(
            f"expected {len(windows)} interval records, got {len(records)}")
    measurements = [
        IntervalMeasurement(
            index=window.index,
            measure_start=window.measure_start,
            instructions=record.result.stats.committed,
            cycles=record.result.stats.cycles,
            stats=record.result.stats,
            extra=dict(record.result.extra),
        )
        for window, record in zip(windows, records)
    ]
    sampled = SampledResult(workload=spec.workload,
                            config_name=spec.config_name,
                            plan=plan,
                            total_instructions=settings.instructions,
                            intervals=measurements)
    extra = sampled.merged_extra()
    extra.update({
        "sampled_intervals": float(sampled.num_intervals),
        "sampled_cpi_mean": sampled.cpi_mean,
        "sampled_cpi_ci_halfwidth": sampled.cpi_ci_halfwidth,
        "sampled_estimated_total_cycles": sampled.estimated_total_cycles,
    })
    result = SampledSimulationResult(
        workload=spec.workload,
        policy=records[0].result.policy,
        stats=sampled.merged_stats(),
        config=settings.core,
        extra=extra,
        sampled=sampled,
    )
    return RunRecord(workload=spec.workload, config_name=spec.config_name,
                     result=result)


def run_sampled_workload(workload: str, config_name: str,
                         settings: "ExperimentSettings",
                         predictors: Optional["PredictorSuiteConfig"] = None,
                         checkpoint_dir: Optional[str] = None
                         ) -> "RunRecord":
    """Run a whole sampled simulation in this process, by workload name.

    The spec runs through a one-worker, uncached
    :class:`~repro.exec.engine.ExperimentEngine`, so this is the engine's
    sampled path itself: the store at ``checkpoint_dir`` (``None`` =
    environment default) is populated with one functional pass, every
    interval starts from its full-history snapshot, and the interval
    records merge into one.  Each interval's detailed window is composed
    once, by that pass, and kept in its shared snapshot; the full trace is
    never materialised, so this scales to paper-length (10M-instruction)
    runs in bounded memory.  It runs on one worker; to fan the intervals
    out, run the spec through an engine with more.
    """
    from repro.exec.engine import ExperimentEngine

    engine = ExperimentEngine(jobs=1, cache=False,
                              checkpoint_dir=checkpoint_dir)
    return engine.run([JobSpec(workload, config_name, settings,
                               predictors)])[0]
