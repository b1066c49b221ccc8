"""Golden bit-identity regression for the detailed hot path.

``tests/golden/hotpath_golden.json`` pins the *exact* merged counter
dictionaries of fixed-seed full-detail and sampled runs, frozen from the
pre-two-plane (PR 4) simulator.  This and future hot-path refactors diff
against those frozen numbers — not merely against themselves — so a
representation change that silently shifts any statistic fails here even if
it is internally self-consistent.

The same runs are additionally fed to the core as materialised
:class:`~repro.isa.uop.MicroOp` views, which the core encodes on entry and
must simulate bit-identically to the encoded stream.

``tests/golden/mlp_golden.json`` pins the same for the non-blocking
hierarchy: every SQ policy under MSHR files of 8 and 16 entries and under a
stride prefetcher, a model the frozen seed stack (``benchmarks/legacy_ref``)
does not have and so cannot cross-check.  Its stall grid (a 2-entry file,
with and without the prefetcher, on memory-bound programs) pins the
issue-stage MSHR hold: every one of those cells stalls.

The ``store_sets`` cells pin the original Store Sets configuration on the
default machine, where it deadlocked on most cells until a squashed
store's LFST entry was undone.

The ``traces`` section pins what the workload composer emits: one content
digest per workload (every micro-op's static descriptor and dynamic
fields) for all 47 workloads at 800 instructions, seed 1, and at 40,000
instructions, seed 3, three segments long.

Regenerate the goldens ONLY for intentional trace-content or
simulator-semantics changes: ``python tests/golden/generate_goldens.py``
(see that file's docstring).
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentSettings, run_workload
from repro.isa.plane import encode_uops
from repro.sampling.driver import run_sampled_workload
from repro.sampling.plan import SamplingPlan
from repro.workloads.suites import build_workload

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "hotpath_golden.json"
MLP_GOLDEN_PATH = GOLDEN_DIR / "mlp_golden.json"

FULL_DETAIL_WORKLOADS = ("vortex", "mesa.m")
FULL_DETAIL_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                       "indexed-3-fwd+dly")
FULL_DETAIL_INSTRUCTIONS = 20_000   # crosses the 16384-uop segment boundary

SAMPLED_WORKLOAD = "vortex"
SAMPLED_INSTRUCTIONS = 60_000
SAMPLED_CONFIGS = ("oracle-associative-3", "indexed-3-fwd+dly")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _plan():
    return SamplingPlan(interval_length=500, detailed_warmup=300,
                        period=10_000, seed=3)


def _stats_dict(stats) -> dict:
    return {name: value for name, value in sorted(stats.as_dict().items())}


class TestFullDetailGoldens:
    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_encoded_path_matches_frozen_counters(self, golden, workload):
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
        trace = build_workload(workload,
                               instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config

    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_microop_input_matches_frozen_counters(self, golden, workload):
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS)
        encoded = build_workload(workload,
                                 instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        microop_trace = encode_uops(encoded, name=workload)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(microop_trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert record.workload == workload
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config


class TestSampledGoldens:
    @pytest.mark.parametrize("config", SAMPLED_CONFIGS)
    def test_checkpointed_sampled_run_matches_frozen_counters(self, golden,
                                                              config):
        settings = ExperimentSettings(instructions=SAMPLED_INSTRUCTIONS,
                                      sampling=_plan())
        with tempfile.TemporaryDirectory(prefix="repro-golden-ckpt-") as ckpt:
            record = run_sampled_workload(SAMPLED_WORKLOAD, config, settings,
                                          checkpoint_dir=ckpt)
        want = golden["sampled_checkpointed"][f"{SAMPLED_WORKLOAD}/{config}"]
        sampled = record.result.sampled
        assert _stats_dict(record.result.stats) == want["stats"]
        assert sampled.cpi_mean == want["cpi_mean"]
        assert [m.cycles for m in sampled.intervals] == want["interval_cycles"]
        assert [m.instructions for m in sampled.intervals] \
            == want["interval_instructions"]


class TestDegenerateMLPGoldens:
    """The MLP degeneracy anchor, checked against the frozen goldens.

    ``mshr_entries=1`` with the non-blocking L2 and prefetcher off is
    *defined* to be the blocking hierarchy (PR 7), so running the golden
    workloads through a :class:`~repro.memory.mlp.NonBlockingHierarchy` in
    that configuration must reproduce the frozen counters bit for bit —
    including the *absence* of every MSHR statistic from the payload.
    """

    @pytest.mark.parametrize("workload", FULL_DETAIL_WORKLOADS)
    def test_degenerate_config_matches_frozen_counters(self, golden, workload):
        from repro.memory.hierarchy import MemoryHierarchyConfig
        from repro.memory.mshr import MLPConfig
        from repro.pipeline.config import CoreConfig

        degenerate = MLPConfig(enabled=True, mshr_entries=1, l2_enabled=False)
        core = CoreConfig(memory=MemoryHierarchyConfig(mlp=degenerate))
        settings = ExperimentSettings(instructions=FULL_DETAIL_INSTRUCTIONS,
                                      core=core)
        trace = build_workload(workload,
                               instructions=FULL_DETAIL_INSTRUCTIONS, seed=1)
        for config in FULL_DETAIL_CONFIGS:
            record = run_workload(trace, config, settings)
            want = golden["full_detail"][f"{workload}/{config}"]
            assert _stats_dict(record.result.stats) == want["stats"], config
            assert dict(sorted(record.result.extra.items())) == want["extra"], config


def _generator():
    sys.path.insert(0, str(GOLDEN_DIR))
    try:
        import generate_goldens
    finally:
        sys.path.remove(str(GOLDEN_DIR))
    return generate_goldens


class TestTraceGoldens:
    def test_composed_traces_match_frozen_digests(self, golden):
        want = golden["traces"]
        got = _generator().trace_goldens()
        assert sorted(got) == sorted(want) == ["40000/3", "800/1"]
        for cell, digests in want.items():
            assert len(digests) == 47
            assert got[cell] == digests, cell


class TestStoreSetsGoldens:
    def test_original_store_sets_cells_match_frozen_counters(self, golden):
        want = golden["store_sets"]
        got = _generator().store_sets_goldens()
        assert sorted(got) == sorted(want)
        for cell, counters in want.items():
            assert got[cell] == counters, cell
        # Every cell runs to the end and trains the predictor through
        # flushes (the squash path the cells pin).
        assert all(counters["stats"]["committed"] > 0 for counters in want.values())
        assert sum(counters["stats"]["flushes"] for counters in want.values()) > 0


class TestMLPGoldens:
    def test_mlp_grid_matches_frozen_counters(self):
        generate_goldens = _generator()
        want = json.loads(MLP_GOLDEN_PATH.read_text())
        got = generate_goldens.mlp_goldens()
        assert sorted(got) == sorted(want)
        for cell, counters in want.items():
            assert got[cell] == counters, cell
        # The grid must exercise what only it covers.
        assert all(counters["stats"]["prefetch_issued"] > 0
                   for cell, counters in want.items() if "prefetch" in cell)
        stall_cells = [counters for cell, counters in want.items()
                       if cell.split("/")[0] in generate_goldens.STALL_VARIANTS]
        assert len(stall_cells) == 2 * len(generate_goldens.MLP_CONFIGS)
        assert all(counters["stats"]["mshr_stall_cycles"] > 0
                   for counters in stall_cells)
