#!/usr/bin/env python
"""Regenerate the frozen hot-path golden numbers.

The goldens pin the *exact* merged counter dictionaries of fixed-seed
full-detail and sampled runs, so hot-path refactors (static-plane trace
encoding, core-loop rework, warming changes) diff against frozen numbers
rather than against themselves.  ``hotpath_golden.json``'s ``store_sets``
cells pin the original Store Sets configuration on the default machine,
on cells that deadlocked until a squashed store's LFST entry was undone.
Its ``traces`` section pins trace composition itself: one content digest
per workload (:func:`trace_digest`) at a single-segment length and at the
40k default, which spans three segments.  ``hotpath_golden.json`` covers the
blocking hierarchy; ``mlp_golden.json`` covers the non-blocking one (MSHR
files and the stride prefetcher, and a 2-entry file whose structural
stalls hold ready loads at issue), which the frozen seed stack in
``benchmarks/legacy_ref`` does not model.  Regenerate ONLY when trace
content or simulator semantics change intentionally:

    PYTHONPATH=src python tests/golden/generate_goldens.py

and explain the regeneration in the commit message.
"""

import hashlib
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

#: The MSHR stall grid: a 2-entry file, with and without the prefetcher,
#: rotating over memory-bound programs long enough to miss past the cache
#: pre-warm, so every cell holds ready loads behind a full MSHR file
#: (``mshr_stall_cycles > 0``) — the issue-stage structural stall the grid
#: above never reaches.
STALL_WORKLOADS = ("mcf", "art", "swim", "parser")
STALL_VARIANTS = ("mshr2", "mshr2+prefetch")
STALL_INSTRUCTIONS = 6000

#: Original Store Sets (Table 1, row 1) on the default machine, as
#: ``(workload, seed)``: every cell used to deadlock.
STORE_SETS_CONFIG = "associative-original-storesets"
STORE_SETS_CELLS = (("vortex", 1), ("mesa.m", 1), ("gzip", 2), ("gcc", 3))
STORE_SETS_INSTRUCTIONS = 8000


#: Composed traces, as (instructions, seed): every workload at a length
#: inside one segment and at the 40k default (three segments).
TRACE_CELLS = ((800, 1), (40_000, 3))


def _plan():
    from repro.sampling.plan import SamplingPlan

    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, seed=3)


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


def _sampled() -> dict:
    from repro.harness.runner import ExperimentSettings
    from repro.sampling.driver import run_sampled_workload

    settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                  sampling=_plan())
    out = {}
    for config in SAMPLED_CONFIGS:
        with tempfile.TemporaryDirectory(prefix="repro-golden-ckpt-") as ckpt:
            record = run_sampled_workload(SAMPLED_WORKLOAD, config, settings,
                                          checkpoint_dir=ckpt)
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
        "mshr2": MLPConfig(enabled=True, mshr_entries=2),
        "mshr2+prefetch": MLPConfig(enabled=True, mshr_entries=2,
                                    prefetch=PrefetchConfig(enabled=True)),
    }[variant]
    return CoreConfig(memory=MemoryHierarchyConfig(mlp=mlp))


def mlp_goldens() -> dict:
    """Every cell of the MLP and MSHR stall grids, keyed
    ``variant/config/workload``."""
    from repro.harness.runner import make_policy
    from repro.pipeline.core import OutOfOrderCore
    from repro.workloads.suites import build_workload

    out = {}
    for variants, workloads, instructions in (
            (MLP_VARIANTS, MLP_WORKLOADS, MLP_INSTRUCTIONS),
            (STALL_VARIANTS, STALL_WORKLOADS, STALL_INSTRUCTIONS)):
        for v, variant in enumerate(variants):
            core_config = _mlp_core_config(variant)
            for c, config in enumerate(MLP_CONFIGS):
                workload = workloads[(v + c) % len(workloads)]
                trace = build_workload(workload, instructions=instructions,
                                       seed=MLP_SEED)
                core = OutOfOrderCore(core_config, make_policy(config))
                result = core.run(trace, stats_warmup_fraction=MLP_WARMUP)
                out[f"{variant}/{config}/{workload}"] = {
                    "stats": _stats_dict(result.stats),
                    "extra": dict(sorted(result.extra.items())),
                }
    return out


def store_sets_goldens() -> dict:
    """The original Store Sets cells, keyed ``workload/seed``."""
    from repro.harness.runner import ExperimentSettings, run_workload
    from repro.workloads.suites import build_workload

    out = {}
    for workload, seed in STORE_SETS_CELLS:
        settings = ExperimentSettings(instructions=STORE_SETS_INSTRUCTIONS,
                                      seed=seed)
        trace = build_workload(workload, instructions=STORE_SETS_INSTRUCTIONS,
                               seed=seed)
        record = run_workload(trace, STORE_SETS_CONFIG, settings)
        out[f"{workload}/{seed}"] = {
            "stats": _stats_dict(record.result.stats),
            "extra": dict(sorted(record.result.extra.items())),
        }
    return out


def trace_digest(ops) -> str:
    """SHA-256 of a trace's content: each micro-op's static descriptor
    ``(pc, op class, dest, srcs, call, ret)`` and its five dynamic fields
    (address, size, store value, taken, target).

    A micro-op names its descriptor by rank in the sorted table of the
    descriptors the trace uses, so the digest does not depend on how a
    process's static plane happens to number them.
    """
    descriptors = ops.plane.descriptors
    text = {si: json.dumps(descriptors[si]) for si in set(ops.sidx)}
    table = sorted(text, key=text.__getitem__)
    rank = {si: position for position, si in enumerate(table)}
    payload = json.dumps([[text[si] for si in table],
                          [rank[si] for si in ops.sidx], ops.addr, ops.size,
                          ops.value, ops.taken, ops.target])
    return hashlib.sha256(payload.encode()).hexdigest()


def trace_goldens() -> dict:
    """Every workload's trace digest, keyed ``instructions/seed`` then by
    workload name."""
    from repro.workloads.suites import build_workload, workload_names

    return {f"{instructions}/{seed}": {
        name: trace_digest(build_workload(name, instructions, seed))
        for name in workload_names()} for instructions, seed in TRACE_CELLS}


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    _write(GOLDEN_PATH, {
        "full_detail": _full_detail(),
        "sampled_checkpointed": _sampled(),
        "store_sets": store_sets_goldens(),
        "traces": trace_goldens(),
    })
    _write(MLP_GOLDEN_PATH, mlp_goldens())
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, os.pardir, "src"))
    sys.exit(main())
