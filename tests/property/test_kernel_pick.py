"""The composer's kernel pick against CPython's ``random.Random.choices``.

:meth:`~repro.workloads.suites.WorkloadComposer.compose` computes each
pool's cumulative weights once (:func:`~repro.workloads.suites._pick_table`)
and inlines the draw ``rng.choices(pool, weights=w)[0]`` makes.  Every
trace depends on the two picking the same kernels and leaving the
generator in the same state (later iterations keep drawing from it), so a
CPython release that changes ``choices`` fails here instead of silently
changing every trace and every golden.
"""

import dataclasses
import random
from bisect import bisect
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.workloads.profiles import get_profile
from repro.workloads.program import Kernel
from repro.workloads.suites import WorkloadComposer, _pick_table, _WeightedKernel

_weights = st.lists(st.one_of(st.floats(min_value=0.0, max_value=100.0),
                              st.integers(min_value=0, max_value=5)),
                    min_size=1, max_size=6).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1), _weights,
       st.integers(min_value=1, max_value=20))
def test_draw_matches_cpython_choices(seed, weights, draws):
    pool = [_WeightedKernel(SimpleNamespace(emit=i), w)
            for i, w in enumerate(weights)]
    emits, cum, total, hi = _pick_table(pool)
    ours = random.Random(seed)
    theirs = random.Random(seed)
    for _ in range(draws):
        assert (emits[bisect(cum, ours.random() * total, 0, hi)]
                == theirs.choices(pool, weights=weights)[0].kernel.emit)
    assert ours.getstate() == theirs.getstate()


class _Marker(Kernel):
    """One NOP at the kernel's own PC per iteration."""

    def __init__(self, builder, pc):
        super().__init__(builder)
        self.pc = pc

    def emit(self):
        self.builder.nop(self.pc)


def _reference_compose(composer, instructions):
    """The compose loop as written against ``random.choices``."""
    rng = composer._rng
    branchy = composer.profile.branchy
    while len(composer.builder) < instructions:
        if composer._forwarding_pool and rng.random() < composer._forward_prob:
            pool = composer._forwarding_pool
        elif composer._background_pool:
            pool = composer._background_pool
        else:
            pool = None
        if pool is not None:
            weights = [item.weight for item in pool]
            rng.choices(pool, weights=weights, k=1)[0].kernel.emit()
        if branchy > 0.0 and rng.random() < branchy:
            composer._branchy.emit()
    return composer.builder.finish().slice(0, instructions)


def _fields(ops):
    return (ops.sidx, ops.addr, ops.size, ops.value, ops.taken, ops.target)


def _assert_same(ours, theirs, instructions):
    assert _fields(ours.compose(instructions)) \
        == _fields(_reference_compose(theirs, instructions))
    assert ours._rng.getstate() == theirs._rng.getstate()
    assert ours.builder.rng.getstate() == theirs.builder.rng.getstate()


def _marker_composer(seed, forwarding, background, forward_prob):
    profile = dataclasses.replace(get_profile("gzip"), name="pick-test")
    composer = WorkloadComposer(profile, seed=seed)
    builder = composer.builder
    composer._forwarding_pool = [_WeightedKernel(_Marker(builder, 0x100 + 4 * i), w)
                                 for i, w in enumerate(forwarding)]
    composer._background_pool = [_WeightedKernel(_Marker(builder, 0x800 + 4 * i), w)
                                 for i, w in enumerate(background)]
    composer._forward_prob = forward_prob
    return composer


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 63) - 1),
       st.one_of(st.just([]), _weights), _weights,
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=400))
def test_compose_picks_as_choices_would(seed, forwarding, background,
                                        forward_prob, instructions):
    """Random pools of marker kernels: every iteration picks the kernel
    ``choices`` picks."""
    _assert_same(_marker_composer(seed, forwarding, background, forward_prob),
                 _marker_composer(seed, forwarding, background, forward_prob),
                 instructions)


@pytest.mark.parametrize("workload", ["gzip", "mcf", "vortex", "swim", "gsm.e"])
def test_workload_compose_matches_choices(workload):
    profile = get_profile(workload)
    _assert_same(WorkloadComposer(profile, seed=7),
                 WorkloadComposer(profile, seed=7), 3000)
