"""Table 2: store queue latencies (and the Section 4.2 energy comparison)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.harness import paper_data
from repro.harness.reporting import format_comparison, format_table
from repro.timing.cacti import AccessTiming
from repro.timing.sq_model import (
    EnergyComparison,
    SQLatencyRow,
    reference_rows,
    sq_energy_comparison,
    sq_latency_table,
)


@dataclass
class Table2Result:
    """Reproduction of Table 2 plus the energy headline."""

    sq_rows: List[SQLatencyRow]
    references: Dict[str, Dict[int, AccessTiming]]
    energy: EnergyComparison

    def row(self, entries: int, ports: int) -> SQLatencyRow:
        for row in self.sq_rows:
            if row.entries == entries and row.load_ports == ports:
                return row
        raise KeyError(f"no row for {entries} entries / {ports} ports")

    def render(self) -> str:
        """Text rendering with the paper's numbers alongside."""
        headers = ["entries", "ports",
                   "assoc ns", "assoc cyc", "paper assoc (ns/cyc)",
                   "index ns", "index cyc", "paper index (ns/cyc)"]
        rows = []
        for row in self.sq_rows:
            paper = paper_data.TABLE2_SQ.get((row.entries, row.load_ports))
            paper_assoc = f"{paper[0]:.2f}/{paper[1]}" if paper else "-"
            paper_index = f"{paper[2]:.2f}/{paper[3]}" if paper else "-"
            rows.append([row.entries, row.load_ports,
                         row.associative_ns, row.associative_cycles, paper_assoc,
                         row.indexed_ns, row.indexed_cycles, paper_index])
        lines = [format_table(headers, rows, title="Table 2: SQ load latency (90nm, 3GHz)")]

        ref_headers = ["structure", "ports", "ns", "cycles", "paper (ns/cyc)"]
        ref_rows = []
        for (size_kb, label) in ((8, "dcache_8kb"), (32, "dcache_32kb")):
            for ports, timing in sorted(self.references[label].items()):
                paper = paper_data.TABLE2_DCACHE.get((size_kb, ports))
                paper_text = f"{paper[0]:.2f}/{paper[1]}" if paper else "-"
                ref_rows.append([f"D$ bank {size_kb}KB 2-way", ports,
                                 timing.total_ns, timing.cycles, paper_text])
        for ports, timing in sorted(self.references["tlb_32"].items()):
            paper = paper_data.TABLE2_TLB.get(ports)
            paper_text = f"{paper[0]:.2f}/{paper[1]}" if paper else "-"
            ref_rows.append(["TLB 32-entry 4-way", ports, timing.total_ns, timing.cycles,
                             paper_text])
        lines.append(format_table(ref_headers, ref_rows, title="Table 2: reference structures"))

        lines.append(format_comparison(
            "Indexed SQ per-access energy saving (64 entries, 2 load ports)",
            self.energy.indexed_savings, paper_data.ENERGY_SAVINGS_64_2PORT))
        return "\n\n".join(lines)


def run_table2() -> Table2Result:
    """Regenerate Table 2 from the analytical timing model."""
    return Table2Result(
        sq_rows=sq_latency_table(),
        references=reference_rows(),
        energy=sq_energy_comparison(64, 2),
    )
