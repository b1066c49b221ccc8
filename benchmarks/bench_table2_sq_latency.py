"""Benchmark: regenerate Table 2 (SQ latency) and the Section 4.2 energy claim.

Prints the associative-vs-indexed SQ load-latency table (ns and cycles at
3 GHz) for 16-256 entries and 1-2 load ports, plus the D$ bank / TLB
reference rows, with the paper's values alongside.  Asserts only the
qualitative shape: the indexed SQ is always faster, its latency stays at or
below the data-cache bank latency, and the associative SQ's latency grows
super-linearly enough to exceed the cache for large windows (the paper's
motivating observation).
"""

from conftest import run_once

from repro.harness.paper_data import TABLE2_SQ
from repro.harness.table2 import run_table2
from repro.timing.cacti import dcache_bank_access


def test_table2_sq_latency(benchmark):
    result = run_once(benchmark, run_table2)
    print()
    print(result.render())

    dcache_cycles = dcache_bank_access(32, load_ports=2).cycles

    for row in result.sq_rows:
        # Shape: indexed always beats associative, and matches the paper's
        # cycle counts at every design point.
        assert row.indexed_ns < row.associative_ns
        paper = TABLE2_SQ[(row.entries, row.load_ports)]
        assert row.associative_cycles == paper[1]
        assert row.indexed_cycles == paper[3]
        if row.load_ports == 2:
            assert row.indexed_cycles <= dcache_cycles

    # The paper's headline point: a 64-entry 2-port associative SQ is slower
    # than the 32KB data-cache bank, while the indexed SQ is not.
    headline = result.row(64, 2)
    assert headline.associative_cycles > dcache_cycles
    assert headline.indexed_cycles < dcache_cycles

    benchmark.extra_info["assoc_64_2port_ns"] = round(headline.associative_ns, 3)
    benchmark.extra_info["indexed_64_2port_ns"] = round(headline.indexed_ns, 3)


def test_energy_comparison(benchmark):
    result = run_once(benchmark, run_table2)
    savings = result.energy.indexed_savings
    print(f"\nIndexed SQ per-access energy saving at 64 entries / 2 load ports: "
          f"{100 * savings:.1f}% (paper: ~30%)")
    assert 0.15 <= savings <= 0.45
    benchmark.extra_info["indexed_energy_savings"] = round(savings, 3)
