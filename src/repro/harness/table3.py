"""Table 3: store-queue index prediction diagnostics.

For every workload the experiment runs two indexed-SQ configurations:

* ``indexed-3-fwd`` (no delay prediction) — gives the raw mis-forwarding
  rate (the ``Fwd`` column of Table 3), and
* ``indexed-3-fwd+dly`` — gives the improved mis-forwarding rate plus the
  fraction of loads delayed and the average delay (the ``Fwd+Dly`` columns).

The load-forwarding rate (first column) is measured on the ``Fwd`` run: a
load counts as forwarding when the youngest older store to its address is
still in flight when the load executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exec import ExperimentEngine, JobSpec
from repro.harness import paper_data
from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentSettings
from repro.workloads.profiles import get_profile
from repro.workloads.suites import ALL_SUITES, workload_names


@dataclass
class Table3Row:
    """One benchmark's diagnostics (mirrors the columns of Table 3)."""

    name: str
    suite: str
    forward_rate_pct: float
    mis_per_1000_fwd: float
    mis_per_1000_fwd_dly: float
    percent_delayed: float
    avg_delay_cycles: float


@dataclass
class Table3Result:
    """Per-benchmark rows plus suite averages."""

    rows: List[Table3Row]
    settings: ExperimentSettings

    def row(self, name: str) -> Table3Row:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no Table 3 row for {name!r}")

    def suite_average(self, suite: str) -> Table3Row:
        """Arithmetic average over one suite (or ``'all'``)."""
        rows = self.rows if suite == "all" else [r for r in self.rows if r.suite == suite]
        if not rows:
            raise ValueError(f"no rows for suite {suite!r}")
        n = len(rows)
        return Table3Row(
            name=f"{suite}.avg", suite=suite,
            forward_rate_pct=sum(r.forward_rate_pct for r in rows) / n,
            mis_per_1000_fwd=sum(r.mis_per_1000_fwd for r in rows) / n,
            mis_per_1000_fwd_dly=sum(r.mis_per_1000_fwd_dly for r in rows) / n,
            percent_delayed=sum(r.percent_delayed for r in rows) / n,
            avg_delay_cycles=sum(r.avg_delay_cycles for r in rows) / n,
        )

    def render(self) -> str:
        headers = ["benchmark", "%fwd", "paper", "mis/1000 fwd", "paper",
                   "mis/1000 +dly", "paper", "%delayed", "paper", "avg dly", "paper"]
        table_rows = []
        for row in self.rows:
            paper = paper_data.TABLE3.get(row.name, (0.0,) * 5)
            table_rows.append([
                row.name,
                row.forward_rate_pct, paper[0],
                row.mis_per_1000_fwd, paper[1],
                row.mis_per_1000_fwd_dly, paper[2],
                row.percent_delayed, paper[3],
                row.avg_delay_cycles, paper[4],
            ])
        for suite in list(ALL_SUITES) + ["all"]:
            try:
                avg = self.suite_average(suite)
            except ValueError:
                continue
            paper = paper_data.TABLE3_AVERAGES.get(suite, (0.0,) * 5)
            table_rows.append([
                avg.name,
                avg.forward_rate_pct, paper[0],
                avg.mis_per_1000_fwd, paper[1],
                avg.mis_per_1000_fwd_dly, paper[2],
                avg.percent_delayed, paper[3],
                avg.avg_delay_cycles, paper[4],
            ])
        return format_table(headers, table_rows,
                            title="Table 3: store queue index prediction diagnostics")


def run_table3(workloads: Optional[Sequence[str]] = None,
               settings: Optional[ExperimentSettings] = None,
               engine: Optional[ExperimentEngine] = None) -> Table3Result:
    """Regenerate Table 3 for the given workloads (default: all 47).

    Both indexed-SQ runs of every workload go through ``engine`` (process
    fan-out + on-disk memoization) as one workload-major job list.
    """
    settings = settings or ExperimentSettings()
    engine = engine or ExperimentEngine()
    names = list(workloads) if workloads is not None else workload_names()

    configs = ("indexed-3-fwd", "indexed-3-fwd+dly")
    specs = [JobSpec(name, config, settings)
             for name in names for config in configs]
    records = engine.run(specs, chunksize=len(configs))

    rows: List[Table3Row] = []
    for i, name in enumerate(names):
        suite = get_profile(name).suite
        fwd = records[2 * i].result.stats
        dly = records[2 * i + 1].result.stats
        rows.append(Table3Row(
            name=name,
            suite=suite,
            forward_rate_pct=100.0 * fwd.forwarding_rate,
            mis_per_1000_fwd=fwd.mis_forwardings_per_1000_loads,
            mis_per_1000_fwd_dly=dly.mis_forwardings_per_1000_loads,
            percent_delayed=dly.percent_loads_delayed,
            avg_delay_cycles=dly.avg_delay_cycles,
        ))
    return Table3Result(rows=rows, settings=settings)
