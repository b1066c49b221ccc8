"""Experiment harness: regenerates every table and figure in the paper.

* :func:`~repro.harness.table2.run_table2` — SQ latency/energy (Table 2).
* :func:`~repro.harness.table3.run_table3` — forwarding and delay prediction
  diagnostics (Table 3 and the Section 4.3 headline numbers).
* :func:`~repro.harness.figure4.run_figure4` — relative execution time of the
  five SQ configurations (Figure 4).
* :func:`~repro.harness.figure5.run_figure5` — sensitivity to FSP/DDP
  capacity, FSP associativity, and DDP training ratio (Figure 5).

Each runner returns a structured result object with a ``render()`` method
that prints the same rows/series the paper reports, plus the paper's values
(from :mod:`repro.harness.paper_data`) for side-by-side comparison.

Every simulation-backed runner accepts an optional
:class:`~repro.exec.ExperimentEngine` (defaulting to one with
``REPRO_JOBS`` workers) that fans the ``(workload, configuration)`` grid
out over worker processes and memoizes finished cells under
``REPRO_CACHE_DIR`` (default ``.repro-cache/``; delete it at any time to
reset).  Serial, parallel, and cached runs are bit-identical.
"""

from repro.harness.runner import (
    ExperimentSettings,
    RunRecord,
    geometric_mean,
    make_policy,
    run_workload,
    FIGURE4_CONFIGS,
)
from repro.harness.table2 import Table2Result, run_table2
from repro.harness.table3 import Table3Result, Table3Row, run_table3
from repro.harness.figure4 import Figure4Result, run_figure4
from repro.harness.figure5 import Figure5Result, run_figure5

__all__ = [
    "ExperimentSettings",
    "FIGURE4_CONFIGS",
    "Figure4Result",
    "Figure5Result",
    "RunRecord",
    "Table2Result",
    "Table3Result",
    "Table3Row",
    "geometric_mean",
    "make_policy",
    "run_figure4",
    "run_figure5",
    "run_table2",
    "run_table3",
    "run_workload",
]
