"""The sampled-simulation driver.

Splits a sampled ``(workload, configuration)`` run into per-interval jobs,
executes each interval (functional warming -> detailed warm-up -> measured
region), and merges the interval measurements into one
:class:`~repro.sampling.result.SampledSimulationResult`.

Three entry points, all producing bit-identical results:

* :func:`run_interval_job` — one :class:`~repro.exec.jobs.IntervalJobSpec`;
  this is what runs inside :class:`~repro.exec.engine.ExperimentEngine`
  pool workers and what the result cache stores, one entry per interval.
* :func:`run_sampled_workload` — a whole sampled run, serially, by
  workload *name* (regenerating each interval's trace window; the full
  trace is never materialised).
* :func:`run_sampled_trace` — a whole sampled run over an already
  materialised :class:`~repro.isa.trace.DynamicTrace` (the
  :func:`repro.harness.runner.run_workload` path; also used by tests with
  custom traces).

Imports from :mod:`repro.harness` are deferred inside functions: the
harness imports the engine, the engine expands sampled specs through this
module, and the module-level import set must stay acyclic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.exec.jobs import IntervalJobSpec, JobSpec
from repro.isa.plane import as_encoded
from repro.isa.trace import DynamicTrace
from repro.isa.uop import MicroOp
from repro.pipeline.core import OutOfOrderCore
from repro.sampling.functional import FunctionalWarmer
from repro.sampling.plan import IntervalWindow
from repro.sampling.result import (
    IntervalMeasurement,
    SampledResult,
    SampledSimulationResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.predictors import PredictorSuiteConfig
    from repro.harness.runner import ExperimentSettings, RunRecord


def expand_sampled_spec(spec: JobSpec, checkpointed: bool = False,
                        checkpoint_dir: Optional[str] = None
                        ) -> List[IntervalJobSpec]:
    """One :class:`IntervalJobSpec` per interval of a sampled base spec.

    ``checkpointed`` stamps the intervals to load full-history snapshots
    from the checkpoint store at ``checkpoint_dir`` (``None`` = environment
    default location) instead of bounded re-warming; callers resolve the
    flag first (:func:`repro.sampling.checkpoints.resolve_checkpointed`).
    """
    plan = spec.settings.sampling
    if plan is None:
        raise ValueError("spec has no sampling plan")
    count = plan.num_intervals(spec.settings.instructions)
    return [IntervalJobSpec(spec.workload, spec.config_name, spec.settings,
                            index, spec.predictors,
                            checkpointed=checkpointed,
                            checkpoint_dir=checkpoint_dir)
            for index in range(count)]


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


def _simulate_window(uops: Sequence[MicroOp], window: IntervalWindow,
                     workload: str, config_name: str,
                     settings: "ExperimentSettings",
                     predictors: Optional["PredictorSuiteConfig"],
                     state) -> "RunRecord":
    """Detailed warm-up + measured region over an already warmed machine.

    ``uops`` covers ``[window.detailed_start, window.measure_end)`` plus up
    to :func:`_overrun` trailing instructions (encoded on the hot paths; a
    plain micro-op sequence is encoded here, bit-identically);
    ``state`` is the warmed machine state at ``window.detailed_start``
    (``None`` = cold start).
    """
    from repro.harness.runner import RunRecord, make_policy

    config = settings.core
    if state is not None:
        core = OutOfOrderCore(config, state.policy)
        core.import_state(state)
    else:
        core = OutOfOrderCore(config, make_policy(config_name,
                                                  sq_size=settings.sq_size,
                                                  predictors=predictors))
    result = core.run(
        as_encoded(uops, name=workload), warm_memory=False,
        stats_warmup_instructions=window.measure_start - window.detailed_start,
        stats_measure_instructions=window.measure_length)
    return RunRecord(workload=workload, config_name=config_name, result=result)


def _run_interval(uops: Sequence[MicroOp], window: IntervalWindow,
                  workload: str, config_name: str,
                  settings: "ExperimentSettings",
                  predictors: Optional["PredictorSuiteConfig"]) -> "RunRecord":
    """Bounded-warming interval: functionally warm, then simulate.

    ``uops`` covers ``[window.functional_start, window.measure_end)`` plus
    up to :func:`_overrun` trailing instructions.
    """
    from repro.harness.runner import make_policy

    config = settings.core
    policy = make_policy(config_name, sq_size=settings.sq_size,
                         predictors=predictors)
    warm_len = window.functional_length
    if warm_len:
        warmer = FunctionalWarmer(config, policy,
                                  start_index=window.functional_start)
        warmer.warm(uops[:warm_len])
        state = warmer.export_state()
    else:
        state = None
    return _simulate_window(uops[warm_len:], window, workload, config_name,
                            settings, predictors, state)


def run_interval_job(spec: IntervalJobSpec) -> "RunRecord":
    """Execute one interval job, regenerating its trace window by value.

    Checkpointed specs load (or exactly recompute, see
    :func:`repro.sampling.checkpoints.load_interval_state`) the interval's
    full-history snapshot and only regenerate the detailed window; bounded
    specs regenerate the functional-warming window too and warm in-process.
    """
    from repro.workloads.suites import build_workload_window

    settings = spec.settings
    plan = settings.sampling
    if plan is None:
        raise ValueError("interval spec has no sampling plan")
    window = plan.intervals(settings.instructions)[spec.interval_index]
    stop = min(settings.instructions,
               window.measure_end + _overrun(settings.core))
    if getattr(spec, "checkpointed", False):
        from repro.sampling.checkpoints import (
            load_interval_state,
            load_interval_window,
        )

        state = load_interval_state(spec, window)
        uops = load_interval_window(spec, window)
        return _simulate_window(uops, window, spec.workload, spec.config_name,
                                settings, spec.predictors, state)
    # Bounded warming is the no-store fast path: compose without the disk
    # segment memo (a one-shot window write-through costs more than it can
    # ever repay — checkpointed jobs get their windows from the store's
    # per-interval window memo instead).
    uops = build_workload_window(spec.workload, settings.instructions,
                                 settings.seed, window.functional_start, stop,
                                 disk_memo=False)
    return _run_interval(uops, window, spec.workload, spec.config_name,
                         settings, spec.predictors)


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
    """Run a whole sampled simulation serially, by workload name.

    Interval trace windows are regenerated on demand; the full trace is
    never materialised, so this scales to paper-length (10M-instruction)
    runs in bounded memory.  Bit-identical to the engine's fanned-out
    execution of the same spec, including the checkpointed-warming
    resolution: when ``settings.checkpoints`` (or ``REPRO_CHECKPOINTS``)
    enables checkpointing, the store at ``checkpoint_dir`` (``None`` =
    environment default) is populated with one functional pass and every
    interval starts from its full-history snapshot.
    """
    from repro.sampling.checkpoints import (
        CheckpointStore,
        plan_generation,
        resolve_checkpointed,
        run_checkpoint_job,
    )

    spec = JobSpec(workload, config_name, settings, predictors)
    checkpointed = resolve_checkpointed(settings)
    if checkpointed:
        store = CheckpointStore(checkpoint_dir)
        interval_specs = expand_sampled_spec(
            spec, checkpointed=True, checkpoint_dir=str(store.directory))
        requests, _total = plan_generation(store, interval_specs)
        for request in requests:
            run_checkpoint_job(request)
    else:
        interval_specs = expand_sampled_spec(spec)
    records = [run_interval_job(interval_spec)
               for interval_spec in interval_specs]
    return merge_interval_records(spec, records)


def run_sampled_trace(trace: DynamicTrace, config_name: str,
                      settings: "ExperimentSettings",
                      predictors: Optional["PredictorSuiteConfig"] = None
                      ) -> "RunRecord":
    """Run a whole sampled simulation over a materialised trace.

    The whole trace is sampled — exactly the region the full-detail path
    simulates for the same trace — so for generator-built traces (where
    ``len(trace) == settings.instructions``) this produces the same record
    as :func:`run_sampled_workload`, and for custom traces the sampled
    estimate targets the same population as the detailed run it
    approximates.

    Checkpointed warming (resolved exactly as in
    :func:`run_sampled_workload`) is implemented in memory here: one
    cumulative functional pass over the materialised trace is snapshotted
    (serialised, matching the on-disk store's copy semantics bit for bit) at
    each interval's detailed-warmup start, so the record equals the
    store-backed paths without touching the store — custom traces are not
    content-addressable by ``(name, instructions, seed)``.
    """
    from repro.sampling.checkpoints import resolve_checkpointed

    plan = settings.sampling
    if plan is None:
        raise ValueError("settings carry no sampling plan")
    total = len(trace)
    windows = plan.intervals(total)
    spec = JobSpec(trace.name, config_name, settings, predictors)
    records = []
    if resolve_checkpointed(settings):
        import pickle

        from repro.harness.runner import make_policy

        warmer = FunctionalWarmer(
            settings.core, make_policy(config_name, sq_size=settings.sq_size,
                                       predictors=predictors))
        position = 0
        for window in windows:
            warmer.warm(trace[position:window.detailed_start])
            position = window.detailed_start
            # Pickle round trip = the frozen-copy semantics of the store.
            state = pickle.loads(pickle.dumps(warmer.state))
            stop = min(total, window.measure_end + _overrun(settings.core))
            records.append(_simulate_window(
                trace[window.detailed_start:stop], window, trace.name,
                config_name, settings, predictors, state))
    else:
        for window in windows:
            stop = min(total, window.measure_end + _overrun(settings.core))
            uops = trace[window.functional_start:stop]
            records.append(_run_interval(uops, window, trace.name, config_name,
                                         settings, predictors))
    if total != settings.instructions:
        import dataclasses

        spec = dataclasses.replace(
            spec, settings=dataclasses.replace(settings, instructions=total))
    return merge_interval_records(spec, records)
