"""A fresh core's cache warm-up, kept once per trace.

:meth:`repro.pipeline.core.OutOfOrderCore._warm_caches` touches the lines
of a trace's first memory accesses.  From empty caches the result depends
only on those addresses and the cache geometry, so the first fresh core
keeps the warmed lines on the trace
(:attr:`repro.isa.plane.EncodedOps.warm_lines`) and later fresh cores copy
them in.  Either way a core must end up exactly as if it had touched the
lines itself.
"""

import dataclasses
import pickle

import pytest

from repro.harness.runner import make_policy
from repro.isa.plane import KIND_LOAD
from repro.memory.cache import DEFAULT_L2_CONFIG
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig
from repro.pipeline import core as core_module
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore
from repro.workloads.suites import build_workload


def _trace(instructions=6000, seed=1):
    # A private trace: a built one may alias the process's segment memo.
    return build_workload("vortex", instructions=instructions,
                          seed=seed).slice(0, instructions)


def _core(config=None):
    return OutOfOrderCore(config or CoreConfig(),
                          make_policy("indexed-3-fwd+dly"))


def _caches(core):
    return (core.hierarchy.l1.state_signature(),
            core.hierarchy.l2.state_signature())


def _touched(trace, config=None, before=()):
    """The caches of a hierarchy that touched the warm-up lines itself."""
    hierarchy = MemoryHierarchy((config or CoreConfig()).memory)
    for addr in before:
        hierarchy.warm(addr)
    kind = trace.plane.kind
    for i in range(min(len(trace), core_module.WARM_INSTRUCTIONS)):
        if kind[trace.sidx[i]] >= KIND_LOAD:  # loads and stores
            hierarchy.warm(trace.addr[i])
    return hierarchy.l1.state_signature(), hierarchy.l2.state_signature()


def _forbid_touching(core):
    def touched(addr):
        raise AssertionError(f"touched {addr:#x} instead of copying")
    core.hierarchy.warm = touched


def test_a_later_fresh_core_copies_what_the_first_touched():
    trace = _trace()
    first = _core()
    first._warm_caches(trace)
    assert _caches(first) == _touched(trace)
    assert len(trace.warm_lines) == 1
    second = _core()
    _forbid_touching(second)
    second._warm_caches(trace)
    assert _caches(second) == _touched(trace)
    # A named alias shares the memo; a slice and a pickle start without it.
    assert trace.with_name("alias").warm_lines is trace.warm_lines
    assert trace.slice(0, len(trace)).warm_lines == {}
    assert pickle.loads(pickle.dumps(trace)).warm_lines == {}


def test_mutating_a_core_changes_neither_the_memo_nor_the_next_core():
    trace = _trace()
    first = _core()
    first._warm_caches(trace)
    second = _core()
    second._warm_caches(trace)
    for core in (first, second):
        for cache in (core.hierarchy.l1, core.hierarchy.l2):
            for addr in range(0x7000_0000, 0x7000_0000 + 64 * 4096, 64):
                cache.access(addr)
    third = _core()
    _forbid_touching(third)
    third._warm_caches(trace)
    assert _caches(third) == _touched(trace)


def test_caches_that_hold_lines_are_touched():
    """An imported state's caches are not empty: the warm-up touches the
    lines on top of them, as without a memo."""
    trace = _trace()
    _core()._warm_caches(trace)
    before = [0x6000_0000 + 64 * i for i in range(40)]
    core = _core()
    for addr in before:
        core.hierarchy.warm(addr)
    core._warm_caches(trace)
    assert _caches(core) == _touched(trace, before=before)
    assert _caches(core) != _touched(trace)


def test_an_extended_short_trace_warms_again():
    longer = _trace(5000)
    trace = longer.slice(0, 1000)
    _core()._warm_caches(trace)
    trace.extend(longer.slice(1000, 5000))
    core = _core()
    calls = []
    warm = core.hierarchy.warm
    core.hierarchy.warm = lambda addr: calls.append(addr) or warm(addr)
    core._warm_caches(trace)
    assert calls
    assert _caches(core) == _touched(trace)


def test_each_geometry_has_its_own_lines():
    trace = _trace()
    small = CoreConfig(memory=MemoryHierarchyConfig(
        l2=dataclasses.replace(DEFAULT_L2_CONFIG, size_bytes=64 * 1024)))
    _core()._warm_caches(trace)
    core = _core(small)
    core._warm_caches(trace)
    assert _caches(core) == _touched(trace, small)
    assert len(trace.warm_lines) == 2


@pytest.mark.parametrize("config", ["oracle-associative-3",
                                    "indexed-3-fwd+dly"])
def test_copied_lines_simulate_like_touched_ones(config):
    trace = _trace(4500, seed=2)

    def result():
        core = OutOfOrderCore(CoreConfig(), make_policy(config))
        run = core.run(trace, stats_warmup_fraction=0.25)
        return (sorted(run.stats.as_dict().items()), sorted(run.extra.items()),
                core.hierarchy.state_signature())

    touched = result()
    assert trace.warm_lines
    assert result() == touched
