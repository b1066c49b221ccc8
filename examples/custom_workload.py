#!/usr/bin/env python3
"""Building a custom workload and a custom SQ configuration.

Shows the lower-level APIs a downstream user would reach for:

* composing a trace directly from kernels (here: a tight producer/consumer
  loop with register spills plus a not-most-recent recurrence);
* configuring predictor geometry (a small 512-entry FSP/DDP, as in the
  Figure 5 capacity sweep) and a non-default store-queue size;
* reading detailed per-structure statistics back out of a run.

``builder.finish()`` returns an encoded stream
(:class:`repro.isa.plane.EncodedOps` — per-uop static-plane indices plus
dynamic fields).  It reads like a ``MicroOp`` list (``len``, iteration and
indexing yield ``MicroOp`` views, ``.stats``, ``.uops``) and is exactly
what ``simulate`` / ``OutOfOrderCore.run`` consume; they also accept a
``DynamicTrace`` or a plain ``MicroOp`` list and encode it on entry.  The
emit helpers (``builder.load``/``store``/``alu``/``branch``/``nop``) do not
return the emitted micro-op (decode a view via ``builder.finish()[i]`` if
one is needed) — constructing a ``MicroOp`` per emit is exactly the cost
the encoding removes.

Run with::

    python examples/custom_workload.py
"""

from repro import CoreConfig, IndexedSQPolicy, OracleAssociativePolicy, simulate
from repro.core.predictors import DDPConfig, FSPConfig, PredictorSuiteConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.kernels import NotMostRecentKernel, StackSpillKernel, StreamCopyKernel
from repro.workloads.program import ProgramBuilder


def build_custom_trace(iterations: int = 800):
    builder = ProgramBuilder("custom-producer-consumer", seed=42)
    spill = StackSpillKernel(builder, slots=4, work_ops=3)
    recurrence = NotMostRecentKernel(builder, lag=2)
    background = StreamCopyKernel(builder, working_set_bytes=64 * 1024)
    for i in range(iterations):
        spill.emit()
        if i % 3 == 0:
            recurrence.emit()
        background.emit()
    return builder.finish()


def main() -> None:
    trace = build_custom_trace()
    print(f"custom trace: {len(trace)} micro-ops, "
          f"{trace.stats.loads} loads, {trace.stats.stores} stores")

    small_predictors = PredictorSuiteConfig(
        fsp=FSPConfig(entries=512, assoc=2),
        ddp=DDPConfig(entries=512, assoc=2),
    )
    policy = IndexedSQPolicy(sq_size=32, use_delay=True, predictors=small_predictors)
    config = CoreConfig(store_queue_size=32)

    core = OutOfOrderCore(config, policy)
    result = core.run(trace, stats_warmup_fraction=0.2)
    baseline = simulate(trace, OracleAssociativePolicy(sq_size=32),
                        CoreConfig(store_queue_size=32))

    s = result.stats
    print(f"\nindexed SQ (32 entries, 512-entry FSP/DDP):")
    print(f"  IPC {s.ipc:.2f}, relative time vs ideal {s.cycles / baseline.stats.cycles:.3f}")
    print(f"  forwarding rate {100 * s.forwarding_rate:.1f}%, "
          f"mis-forwardings/1000 {s.mis_forwardings_per_1000_loads:.2f}, "
          f"loads delayed {s.percent_loads_delayed:.2f}%")
    print(f"\nstructure activity:")
    print(f"  FSP: {policy.fsp.stats.lookups} lookups, {policy.fsp.stats.inserts} inserts, "
          f"{policy.fsp.stats.evictions} evictions, occupancy {policy.fsp.occupancy()}")
    print(f"  SAT: {policy.sat.stats.updates} updates, {policy.sat.stats.undos} flush undos")
    print(f"  DDP: {policy.ddp.stats.delays_predicted} delays predicted, "
          f"{policy.ddp.stats.learns} learns, {policy.ddp.stats.unlearns} unlearns")
    print(f"  SVW: re-execution rate {policy.svw.stats.reexecution_rate:.3f}")
    print(f"  SQ:  {core.store_queue.stats.indexed_reads} indexed reads, "
          f"{core.store_queue.stats.associative_searches} associative searches")


if __name__ == "__main__":
    main()
