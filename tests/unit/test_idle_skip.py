"""The idle-cycle fast-forward is cycle-exact and statistics-identical.

The core's one fused loop has two modes: with ``CoreConfig.idle_skip`` it
jumps the clock over cycles in which nothing can happen, without it it steps
one cycle at a time.  Every test here runs the fast-forward against that
straight-line mode on the same trace and demands bit-identical results — not
just cycle counts but every counter, including the per-reason stall
attribution of skipped cycles.
"""

import dataclasses

import pytest

from repro.harness.runner import ExperimentSettings, make_policy, run_workload
from repro.isa.uop import make_alu, make_load, make_store
from repro.isa.trace import DynamicTrace
from repro.pipeline.config import CoreConfig, small_test_config
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload


def _run_both(trace, config_name="indexed-3-fwd+dly", core=None, warmup=0.0):
    core = core or CoreConfig()
    fast = OutOfOrderCore(core, make_policy(config_name)).run(
        trace, stats_warmup_fraction=warmup)
    slow_config = dataclasses.replace(core, idle_skip=False)
    slow = OutOfOrderCore(slow_config, make_policy(config_name)).run(
        trace, stats_warmup_fraction=warmup)
    return fast, slow


class TestIdleSkipEquivalence:
    def test_long_cache_miss_stall_same_cycle_count(self):
        """A dependent chain of far-apart loads stalls the machine for the
        full memory latency over and over; the event-aware loop must commit
        in exactly the same number of cycles as the straight-line loop."""
        uops = []
        # Pointer-chase-like chain: each load's address depends on the
        # previous load's value (register dependence), with stride large
        # enough that every access misses L1 and L2.
        for i in range(40):
            uops.append(make_load(pc=0x1000 + 8 * i, dest=1,
                                  addr=0x10_0000 + (i << 20), srcs=(1,)))
            uops.append(make_alu(pc=0x1004 + 8 * i, dest=2, srcs=(1,)))
        trace = DynamicTrace(name="chase", uops=uops)
        fast, slow = _run_both(trace)
        assert fast.stats.cycles == slow.stats.cycles
        assert fast.stats.as_dict() == slow.stats.as_dict()
        # Sanity: the stall really dominates (>= memory latency per load).
        assert fast.stats.cycles > 40 * 100

    def test_store_load_window_identical(self):
        uops = []
        for i in range(60):
            uops.append(make_store(pc=0x2000 + 16 * i, addr=0x500 + 8 * (i % 4),
                                   value=i, srcs=()))
            uops.append(make_load(pc=0x2008 + 16 * i, dest=3,
                                  addr=0x500 + 8 * (i % 4)))
        trace = DynamicTrace(name="fwd", uops=uops)
        fast, slow = _run_both(trace)
        assert fast.stats.as_dict() == slow.stats.as_dict()

    @pytest.mark.parametrize("workload", ["mcf", "gzip", "mesa.m", "adpcm.d"])
    @pytest.mark.parametrize("config_name", ["oracle-associative-3", "indexed-3-fwd+dly"])
    def test_real_workloads_identical(self, workload, config_name):
        trace = build_workload(workload, instructions=1500, seed=1)
        fast, slow = _run_both(trace, config_name=config_name, warmup=0.2)
        assert fast.stats.as_dict() == slow.stats.as_dict()

    def test_small_windows_identical(self):
        """Tiny structures force structural (ROB/IQ/LQ/SQ) stalls, covering
        the skipped-cycle stall attribution for every counter."""
        trace = build_workload("vortex", instructions=1200, seed=3)
        fast, slow = _run_both(trace, core=small_test_config())
        d_fast, d_slow = fast.stats.as_dict(), slow.stats.as_dict()
        assert d_fast == d_slow
        # The scenario must actually exercise structural stalls.
        assert d_fast["rob_stall_cycles"] + d_fast["iq_stall_cycles"] \
            + d_fast["lq_stall_cycles"] + d_fast["sq_stall_cycles"] > 0

    def test_max_cycles_clamp(self):
        """The fast-forward must not jump past an explicit cycle budget."""
        uops = [make_load(pc=0x3000, dest=1, addr=0x40_0000, srcs=()),
                make_alu(pc=0x3004, dest=2, srcs=(1,))]
        trace = DynamicTrace(name="clamp", uops=uops)
        core = dataclasses.replace(CoreConfig(), max_cycles=5)
        fast, slow = _run_both(trace, core=core)
        assert fast.stats.cycles == slow.stats.cycles == 5

    def test_settings_flag_roundtrip(self):
        settings = ExperimentSettings(instructions=1000)
        trace = build_workload("swim", instructions=1000, seed=1)
        record = run_workload(trace, "indexed-3-fwd", settings)
        assert record.cycles > 0
