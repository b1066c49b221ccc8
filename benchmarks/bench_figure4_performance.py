"""Benchmark: regenerate Figure 4 (execution time relative to an ideal SQ).

Simulates every proxy workload under the ideal baseline (3-cycle associative
SQ with oracle scheduling) and the five compared configurations, then prints
per-benchmark relative execution times and the per-suite / overall geometric
means, with the paper's geometric means alongside.

Assertions check the ordering the paper reports, not absolute numbers:

* the realistic configurations are within a few percent of the ideal SQ on
  average;
* ``indexed-3-fwd+dly`` is much closer to the ideal SQ than
  ``indexed-3-fwd`` (delay prediction recovers most of the loss);
* ``indexed-3-fwd+dly`` is competitive with the 5-cycle associative SQ —
  matching or beating it on a substantial fraction of programs.

The first and last are bands calibrated on the full sweep, checked only at
full fidelity (``FULL_FIDELITY``: all 47 workloads, at least 8000
instructions); a subset run checks the orderings alone.
"""

from conftest import FULL_FIDELITY, run_once

from repro.harness.figure4 import run_figure4
from repro.harness.paper_data import FIGURE4_GMEANS
from repro.workloads.suites import workload_names


def test_figure4_relative_performance(benchmark, bench_settings, bench_workloads, bench_engine):
    names = bench_workloads or workload_names()
    result = run_once(benchmark, run_figure4, workloads=names, settings=bench_settings,
                      engine=bench_engine)
    print()
    print(result.render())

    gmeans = result.gmeans()["all"]

    # Ordering: the indexed SQ without delay is the worst configuration on
    # average; adding delay prediction recovers most of the gap.
    assert gmeans["indexed-3-fwd+dly"] < gmeans["indexed-3-fwd"]
    assert gmeans["associative-3"] <= gmeans["indexed-3-fwd"]

    # Magnitudes: all realistic configurations stay within ~15% of ideal on
    # average (paper: 1.4% - 6.3%), and indexed+delay within ~8% (paper 3.3%).
    # The bands are calibrated on the full sweep (FULL_FIDELITY).
    if FULL_FIDELITY:
        for config, value in gmeans.items():
            assert 0.9 < value < 1.15, (config, value)
        assert gmeans["indexed-3-fwd+dly"] < 1.08

    # The indexed SQ with delay matches or beats the realistic associative SQ
    # on a substantial fraction of programs (paper: 31 of 47); a share of a
    # few programs says nothing, so this band is full-sweep only too.
    comparison = result.wins_vs("indexed-3-fwd+dly", "associative-5-predictive",
                                tolerance=0.01)
    competitive = comparison["wins"] + comparison["ties"]
    if FULL_FIDELITY:
        assert competitive >= 0.4 * len(result.rows)

    print("\nGeometric means vs paper:")
    for config in ("associative-3", "indexed-3-fwd", "indexed-3-fwd+dly"):
        paper = FIGURE4_GMEANS["all"].get(config)
        print(f"  {config:22s} measured {gmeans[config]:.3f}   paper {paper:.3f}")

    benchmark.extra_info.update({f"gmean_{k}": round(v, 4) for k, v in gmeans.items()})
    benchmark.extra_info["indexed_vs_assoc5"] = comparison
    benchmark.extra_info["engine"] = dict(bench_engine.last_run_stats)


def test_figure4_pathological_benchmarks(benchmark, bench_settings, bench_engine):
    """The per-benchmark stories the paper tells: not-most-recent forwarding
    (mesa.texgen) and FSP conflicts (eon) hurt the raw indexed SQ and are
    largely repaired by delay prediction."""
    subset = ["mesa.t", "eon.c", "vortex", "adpcm.d"]
    result = run_once(benchmark, run_figure4, workloads=subset, settings=bench_settings,
                      engine=bench_engine)
    print()
    print(result.render())

    for name in ("mesa.t", "eon.c"):
        row = result.row(name)
        raw = row.relative_time["indexed-3-fwd"]
        with_delay = row.relative_time["indexed-3-fwd+dly"]
        assert raw > 1.05, name                      # visible slowdown without delay
        assert with_delay < raw, name                # delay recovers much of it

    quiet = result.row("adpcm.d")
    for config, value in quiet.relative_time.items():
        assert value < 1.03, (config, value)         # no forwarding -> no effect
