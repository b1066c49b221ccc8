"""A detailed core is freed as soon as its last reference goes.

Sweeps and sampled runs build one core per job or interval.  A core that
forms a reference cycle (say, by storing a bound method or a closure over
itself on itself) outlives its job until the cyclic garbage collector happens
to run, and with it the ROB, queues, caches and predictor tables it owns —
which shows up directly in peak RSS.  With the collector disabled, a dropped
core must be dead.
"""

import gc
import weakref

import pytest

from repro.harness.runner import make_policy
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.mshr import MLPConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload

HIERARCHIES = {
    "blocking": CoreConfig(),
    "mshr8": CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=8))),
}


#: Every SQ policy: each owns different predictor tables, and any of them
#: could be the one that holds a reference back to the core.
CONFIGS = ("oracle-associative-3", "associative-3", "associative-5-optimistic",
           "associative-5-predictive", "indexed-3-fwd", "indexed-3-fwd+dly")


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
@pytest.mark.parametrize("config_name", CONFIGS)
def test_core_dies_with_its_last_reference(collector_off, hierarchy,
                                           config_name):
    trace = build_workload("gzip", instructions=600, seed=1)
    core = OutOfOrderCore(HIERARCHIES[hierarchy], make_policy(config_name))
    result = core.run(trace, stats_warmup_fraction=0.1)
    assert result.stats.committed > 0
    alive = weakref.ref(core)
    del core
    assert alive() is None, "the core is kept alive by a reference cycle"


def test_unused_core_dies_with_its_last_reference(collector_off):
    alive = weakref.ref(OutOfOrderCore(CoreConfig(),
                                       make_policy("indexed-3-fwd+dly")))
    assert alive() is None, "the core is kept alive by a reference cycle"
