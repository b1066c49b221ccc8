"""Figure 4: execution time relative to the ideal associative store queue.

For every workload the experiment simulates the normalisation baseline (a
3-cycle associative SQ with oracle load scheduling) and the five compared
configurations, then reports per-benchmark relative execution times and the
per-suite / overall geometric means the paper prints below the bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.exec import ExperimentEngine, JobSpec
from repro.harness import paper_data
from repro.harness.reporting import format_table
from repro.harness.runner import (
    BASELINE_CONFIG,
    ExperimentSettings,
    FIGURE4_CONFIGS,
    geometric_mean,
)
from repro.workloads.profiles import get_profile
from repro.workloads.suites import ALL_SUITES, workload_names


@dataclass
class Figure4Row:
    """Per-benchmark relative execution times (baseline = 1.0)."""

    name: str
    suite: str
    baseline_ipc: float
    baseline_cycles: int
    relative_time: Dict[str, float]


@dataclass
class Figure4Result:
    """All per-benchmark rows plus geometric-mean aggregates."""

    rows: List[Figure4Row]
    settings: ExperimentSettings
    configs: Sequence[str] = FIGURE4_CONFIGS

    def row(self, name: str) -> Figure4Row:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no Figure 4 row for {name!r}")

    def gmean(self, config: str, suite: str = "all") -> float:
        rows = self.rows if suite == "all" else [r for r in self.rows if r.suite == suite]
        if not rows:
            raise ValueError(f"no rows for suite {suite!r}")
        return geometric_mean(r.relative_time[config] for r in rows)

    def gmeans(self) -> Dict[str, Dict[str, float]]:
        """suite -> config -> geometric-mean relative time."""
        result: Dict[str, Dict[str, float]] = {}
        for suite in list(ALL_SUITES) + ["all"]:
            if suite != "all" and not any(r.suite == suite for r in self.rows):
                continue
            result[suite] = {config: self.gmean(config, suite) for config in self.configs}
        return result

    def wins_vs(self, config_a: str, config_b: str, tolerance: float = 0.005) -> Dict[str, int]:
        """Count benchmarks where ``config_a`` beats / ties / loses to ``config_b``.

        The paper's claim "matches or exceeds ... on 31 of 47 programs" uses
        this comparison between the indexed SQ and the realistic associative
        SQ; ``tolerance`` defines a tie.
        """
        wins = ties = losses = 0
        for row in self.rows:
            a = row.relative_time[config_a]
            b = row.relative_time[config_b]
            if a < b - tolerance:
                wins += 1
            elif a > b + tolerance:
                losses += 1
            else:
                ties += 1
        return {"wins": wins, "ties": ties, "losses": losses}

    def render(self) -> str:
        headers = ["benchmark", "ideal IPC"] + [c for c in self.configs]
        rows = []
        for row in self.rows:
            rows.append([row.name, row.baseline_ipc] +
                        [row.relative_time[c] for c in self.configs])
        lines = [format_table(headers, rows,
                              title="Figure 4: execution time relative to ideal associative SQ")]

        gmean_headers = ["suite"] + [c for c in self.configs] + ["paper assoc-3", "paper assoc-5",
                                                                 "paper idx-fwd", "paper idx-fwd+dly"]
        gmean_rows = []
        for suite, values in self.gmeans().items():
            paper = paper_data.FIGURE4_GMEANS.get(suite, {})
            gmean_rows.append([suite] + [values[c] for c in self.configs] + [
                paper.get("associative-3", float("nan")),
                paper.get("associative-5", float("nan")),
                paper.get("indexed-3-fwd", float("nan")),
                paper.get("indexed-3-fwd+dly", float("nan")),
            ])
        lines.append(format_table(gmean_headers, gmean_rows, title="Figure 4: geometric means"))

        comparison = self.wins_vs("indexed-3-fwd+dly", "associative-5-predictive")
        lines.append(
            "indexed-3-fwd+dly vs associative-5 (forwarding prediction): "
            f"{comparison['wins']} wins, {comparison['ties']} ties, {comparison['losses']} losses "
            "(paper: beats on 19 of 47, matches on 12)")
        return "\n\n".join(lines)


def run_figure4(workloads: Optional[Sequence[str]] = None,
                settings: Optional[ExperimentSettings] = None,
                configs: Sequence[str] = FIGURE4_CONFIGS,
                engine: Optional[ExperimentEngine] = None) -> Figure4Result:
    """Regenerate Figure 4 for the given workloads (default: all 47).

    The ``(workload, configuration)`` grid — baseline included — is executed
    through ``engine`` (by default one with ``REPRO_JOBS`` workers), which
    fans jobs out over worker processes and memoizes finished cells on
    disk; results are merged back in input order, so the report is
    identical however the grid was executed.
    """
    settings = settings or ExperimentSettings()
    engine = engine or ExperimentEngine()
    names = list(workloads) if workloads is not None else workload_names()

    all_configs = [BASELINE_CONFIG] + list(configs)
    specs = [JobSpec(name, config, settings)
             for name in names for config in all_configs]
    records = engine.run(specs, chunksize=len(all_configs))

    rows: List[Figure4Row] = []
    for i, name in enumerate(names):
        group = records[i * len(all_configs):(i + 1) * len(all_configs)]
        baseline = group[0].result
        relative: Dict[str, float] = {}
        for config, record in zip(configs, group[1:]):
            relative[config] = record.result.stats.cycles / baseline.stats.cycles
        rows.append(Figure4Row(name=name, suite=get_profile(name).suite,
                               baseline_ipc=baseline.stats.ipc,
                               baseline_cycles=baseline.stats.cycles,
                               relative_time=relative))
    return Figure4Result(rows=rows, settings=settings, configs=tuple(configs))
