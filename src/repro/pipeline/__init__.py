"""Cycle-level out-of-order core.

The timing model is trace driven: a functional workload generator produces a
dynamic instruction stream and :class:`~repro.pipeline.core.OutOfOrderCore`
replays it through a model of the paper's 8-way, 512-entry-ROB machine
(Section 4.1).  The store-queue behaviour is pluggable via
:mod:`repro.lsu.policies`, which is how the Figure 4 configurations are
built.  The in-flight window (ROB, issue queue, load queue) is the run
loop's own state (:mod:`repro.pipeline._vector_loop`), rebuilt empty for
each run; a core runs one trace.
"""

from repro.pipeline.config import CoreConfig, IssueLimits
from repro.pipeline.stats import SimStats
from repro.pipeline.core import OutOfOrderCore, SimulationResult

__all__ = [
    "CoreConfig",
    "IssueLimits",
    "OutOfOrderCore",
    "SimStats",
    "SimulationResult",
]
