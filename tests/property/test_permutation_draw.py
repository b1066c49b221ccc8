"""The pointer-chase node order against CPython's ``random.Random.shuffle``.

``repro.workloads.kernels.shuffled_range`` inlines ``shuffle``'s
Fisher-Yates walk over ``getrandbits``.  Every trace that holds a
:class:`~repro.workloads.kernels.PointerChaseKernel` depends on the two
drawing the same permutation and leaving the generator in the same state
(later kernels keep drawing from it), so a CPython release that changes
``shuffle`` or ``_randbelow`` fails here instead of silently changing
every trace and every golden.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.workloads.kernels import PointerChaseKernel, shuffled_range
from repro.workloads.program import ProgramBuilder

#: Every power of two up to 4096 with its two neighbours (0 to 5 among
#: them): the draw changes its bit count exactly at the powers of two.
_SIZES = sorted({n for k in range(13)
                 for n in ((1 << k) - 1, 1 << k, (1 << k) + 1)})


def _reference(rng: random.Random, n: int) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.sampled_from(_SIZES),
       st.integers(min_value=0, max_value=3))
def test_draw_matches_cpython_shuffle(seed, n, earlier_draws):
    ours = random.Random(seed)
    theirs = random.Random(seed)
    # Start mid-stream as well, the way a composer's later kernels do.
    for _ in range(earlier_draws):
        assert ours.getrandbits(17) == theirs.getrandbits(17)
    assert shuffled_range(ours, n) == _reference(theirs, n)
    assert ours.getstate() == theirs.getstate()


def test_draw_matches_cpython_shuffle_at_131072_nodes():
    ours = random.Random(1)
    theirs = random.Random(1)
    assert shuffled_range(ours, 131_072) == _reference(theirs, 131_072)
    assert ours.getstate() == theirs.getstate()


def test_pointer_chase_kernel_draws_through_the_builder_rng():
    builder = ProgramBuilder("t", seed=5)
    kernel = PointerChaseKernel(builder, nodes=300)
    reference = random.Random(5)
    assert kernel._order == _reference(reference, 300)
    assert builder.rng.getstate() == reference.getstate()
