#!/usr/bin/env python
"""Regenerate the frozen hot-path golden numbers.

The goldens pin the *exact* merged counter dictionaries of fixed-seed
full-detail and sampled runs, so hot-path refactors (static-plane trace
encoding, core-loop rework, warming changes) diff against frozen numbers
rather than against themselves.  ``hotpath_golden.json`` covers the
blocking hierarchy; ``mlp_golden.json`` covers the non-blocking one (MSHR
files and the stride prefetcher), which the frozen seed stack in
``benchmarks/legacy_ref`` does not model.  Regenerate ONLY when trace
content or simulator semantics change intentionally:

    PYTHONPATH=src python tests/golden/generate_goldens.py

and explain the regeneration in the commit message.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "hotpath_golden.json"
MLP_GOLDEN_PATH = Path(__file__).resolve().parent / "mlp_golden.json"

FULL_DETAIL_WORKLOADS = ("vortex", "mesa.m")
FULL_DETAIL_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                       "indexed-3-fwd+dly")
FULL_DETAIL_INSTRUCTIONS = 20_000   # crosses the 16384-uop segment boundary

SAMPLED_WORKLOAD = "vortex"
SAMPLED_INSTRUCTIONS = 60_000
SAMPLED_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")

#: The MLP grid: every SQ policy under each non-blocking hierarchy variant,
#: with the workload rotating over a spread of SPEC- and MediaBench-proxy
#: generators so each variant meets all six.
MLP_WORKLOADS = ("vortex", "gzip", "mesa.m", "gsm.e", "epic.d", "twolf")
MLP_CONFIGS = ("oracle-associative-3", "associative-3",
               "associative-5-optimistic", "associative-5-predictive",
               "indexed-3-fwd", "indexed-3-fwd+dly")
MLP_VARIANTS = ("mshr8", "mshr16", "mshr8+prefetch")
MLP_INSTRUCTIONS = 1600
MLP_SEED = 2
MLP_WARMUP = 0.1


def _plan():
    from repro.sampling.plan import SamplingPlan

    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, functional_warmup=2_000, seed=3)


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


def _full_detail() -> dict:
    from repro.harness.runner import ExperimentSettings, run_workload
    from repro.workloads.suites import build_workload

    settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
    out = {}
    for workload in FULL_DETAIL_WORKLOADS:
        trace = build_workload(workload, instructions=FULL_DETAIL_INSTRUCTIONS,
                               seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            out[f"{workload}/{config}"] = {
                "stats": _stats_dict(record.result.stats),
                "extra": dict(sorted(record.result.extra.items())),
            }
    return out


def _sampled(checkpointed: bool) -> dict:
    from repro.harness.runner import ExperimentSettings
    from repro.sampling.driver import run_sampled_workload

    settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                  sampling=_plan(),
                                  checkpoints=checkpointed)
    out = {}
    for config in SAMPLED_CONFIGS:
        with tempfile.TemporaryDirectory(prefix="repro-golden-ckpt-") as ckpt:
            record = run_sampled_workload(
                SAMPLED_WORKLOAD, config, settings,
                checkpoint_dir=ckpt if checkpointed else None)
        sampled = record.result.sampled
        out[f"{SAMPLED_WORKLOAD}/{config}"] = {
            "stats": _stats_dict(record.result.stats),
            "cpi_mean": sampled.cpi_mean,
            "interval_cycles": [m.cycles for m in sampled.intervals],
            "interval_instructions": [m.instructions for m in sampled.intervals],
        }
    return out


def _mlp_core_config(variant: str):
    from repro.memory.hierarchy import MemoryHierarchyConfig
    from repro.memory.mshr import MLPConfig, PrefetchConfig
    from repro.pipeline.config import CoreConfig

    mlp = {
        "mshr8": MLPConfig(enabled=True, mshr_entries=8),
        "mshr16": MLPConfig(enabled=True, mshr_entries=16),
        "mshr8+prefetch": MLPConfig(enabled=True, mshr_entries=8,
                                    prefetch=PrefetchConfig(enabled=True)),
    }[variant]
    return CoreConfig(memory=MemoryHierarchyConfig(mlp=mlp))


def mlp_goldens() -> dict:
    """Every cell of the MLP grid, keyed ``variant/config/workload``."""
    from repro.harness.runner import make_policy
    from repro.pipeline.core import OutOfOrderCore
    from repro.workloads.suites import build_workload

    out = {}
    for v, variant in enumerate(MLP_VARIANTS):
        core_config = _mlp_core_config(variant)
        for c, config in enumerate(MLP_CONFIGS):
            workload = MLP_WORKLOADS[(v + c) % len(MLP_WORKLOADS)]
            trace = build_workload(workload, instructions=MLP_INSTRUCTIONS,
                                   seed=MLP_SEED)
            core = OutOfOrderCore(core_config, make_policy(config))
            result = core.run(trace, stats_warmup_fraction=MLP_WARMUP)
            out[f"{variant}/{config}/{workload}"] = {
                "stats": _stats_dict(result.stats),
                "extra": dict(sorted(result.extra.items())),
            }
    return out


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    _write(GOLDEN_PATH, {
        "full_detail": _full_detail(),
        "sampled_bounded": _sampled(checkpointed=False),
        "sampled_checkpointed": _sampled(checkpointed=True),
    })
    _write(MLP_GOLDEN_PATH, mlp_goldens())
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, os.pardir, "src"))
    sys.exit(main())
