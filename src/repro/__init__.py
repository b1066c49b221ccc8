"""repro — reproduction of "Scalable Store-Load Forwarding via Store Queue
Index Prediction" (Sha, Martin, Roth; MICRO 2005).

The package is organised as the paper's system is:

* :mod:`repro.core` — the contribution: SSNs, the Forwarding Store Predictor
  (FSP), the Store Alias Table (SAT), the Delay Distance Predictor (DDP),
  SVW support structures (SSBF/SPCT), and the original Store Sets predictor.
* :mod:`repro.lsu` — the store queue and the pluggable SQ access policies
  (associative vs. indexed).
* :mod:`repro.pipeline` — the cycle-level out-of-order core.
* :mod:`repro.isa`, :mod:`repro.memory`, :mod:`repro.frontend` — substrates:
  the trace micro-op ISA, memory hierarchy, and branch prediction.
* :mod:`repro.workloads` — synthetic SPEC2000/MediaBench proxy workloads
  (segment-composed, so paper-length traces support random access).
* :mod:`repro.timing` — the CACTI-style SQ latency/energy model (Table 2).
* :mod:`repro.harness` — experiment runners that regenerate the paper's
  tables and figures.
* :mod:`repro.exec` — the parallel experiment engine and result cache.
* :mod:`repro.sampling` — statistical sampling (functional warming +
  detailed measurement intervals + confidence intervals) for paper-scale
  10M-instruction runs.

Quickstart::

    from repro import simulate, build_workload, IndexedSQPolicy, CoreConfig

    trace = build_workload("vortex", instructions=20_000)
    result = simulate(trace, IndexedSQPolicy(use_delay=True))
    print(result.ipc, result.stats.mis_forwardings_per_1000_loads)
"""

from repro.core import (
    DelayDistancePredictor,
    ForwardingStorePredictor,
    PredictorSuiteConfig,
    SSNAllocator,
    StoreAliasTable,
    StoreSetsPredictor,
    SVWFilter,
)
from repro.lsu import (
    AssociativeStoreSetsPolicy,
    IndexedSQPolicy,
    OracleAssociativePolicy,
    SQPolicy,
    StoreQueue,
)
from repro.pipeline import CoreConfig, OutOfOrderCore, SimulationResult, SimStats
from repro.isa import MicroOp, OpClass
from repro.sampling import SampledResult, SamplingPlan
from repro.workloads import build_workload, build_suite, workload_names
from repro.timing import SQGeometry, sq_latency_table
from repro.harness import run_figure4, run_figure5, run_table2, run_table3

__version__ = "1.1.0"

__all__ = [
    "AssociativeStoreSetsPolicy",
    "CoreConfig",
    "DelayDistancePredictor",
    "ForwardingStorePredictor",
    "IndexedSQPolicy",
    "MicroOp",
    "OpClass",
    "OracleAssociativePolicy",
    "OutOfOrderCore",
    "PredictorSuiteConfig",
    "SampledResult",
    "SamplingPlan",
    "SimStats",
    "SimulationResult",
    "SQGeometry",
    "SQPolicy",
    "SSNAllocator",
    "StoreAliasTable",
    "StoreQueue",
    "StoreSetsPredictor",
    "SVWFilter",
    "build_suite",
    "build_workload",
    "run_figure4",
    "run_figure5",
    "run_table2",
    "run_table3",
    "simulate",
    "sq_latency_table",
    "workload_names",
    "__version__",
]


def simulate(trace, policy, config=None):
    """Simulate ``trace`` under ``policy`` with an optional core configuration.

    This is the one-call entry point used by the examples; it constructs a
    fresh :class:`~repro.pipeline.core.OutOfOrderCore` so repeated calls do
    not share microarchitectural state.

    Parameters
    ----------
    trace:
        An :class:`~repro.isa.plane.EncodedOps` stream (e.g. from
        :func:`~repro.workloads.suites.build_workload`) or any micro-op
        iterable.
    policy:
        An :class:`~repro.lsu.policies.SQPolicy` instance describing the
        store-queue configuration.
    config:
        Optional :class:`~repro.pipeline.config.CoreConfig`; the paper's
        default machine is used when omitted.

    Returns
    -------
    SimulationResult
    """
    core = OutOfOrderCore(config or CoreConfig(), policy)
    return core.run(trace)
