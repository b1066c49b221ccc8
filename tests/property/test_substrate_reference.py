"""Differential properties: the tuned substrate against the frozen seed stack.

The detailed core's per-access substrate keeps its own fast paths: a memory
image stored a 64-bit word at a time whose background words come from one
bounded, process-wide memo, SVW tables written and read as list slices, an
inlined associative SQ search, MRU fast paths in the BTB and the caches,
and a branch predictor that updates its counter lists directly.
``benchmarks/legacy_ref`` holds the same components as they stood at the
seed, byte- and entry-granular.  Each property applies one random operation
sequence to a component and to its seed twin, and after every step compares
what the operation returned and the observable state (statistics, state
signatures, queue contents).  The memory-image property drives two images
through the one memo, at its real bound and at bounds small enough that
every step evicts.

The operation pools are small, so accesses overlap, straddle words and
table wraps, and sets conflict.  The golden files pin these components only
through whole-core runs; these properties drive the corner cases directly.
"""

import pickle
import sys
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core.predictors import SVWConfig
from repro.core.svw import SVWFilter
from repro.frontend.branch_predictor import BranchPredictorConfig, BranchUnit
from repro.lsu.store_queue import StoreQueue
from repro.memory import image as image_module
from repro.memory.cache import Cache, CacheConfig
from repro.memory.image import MemoryImage

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from legacy_ref import branch_predictor as seed_branch  # noqa: E402
from legacy_ref import cache as seed_cache, image as seed_image  # noqa: E402
from legacy_ref import predictors as seed_predictors  # noqa: E402
from legacy_ref import store_queue as seed_sq, svw as seed_svw  # noqa: E402

_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])

_STEPS = 120
_SIZES = st.sampled_from([1, 2, 4, 8])


# ---------------------------------------------------------------------------
# Memory image
# ---------------------------------------------------------------------------

# Offsets span five words from a word-aligned base: every size lands both
# aligned and straddling a word boundary.  Each operation acts on one of two
# images that share the base, so both read and write the same words through
# the one background memo.
_image_op = st.tuples(
    st.sampled_from(["write"] * 6 + ["read"] * 6 + ["memo_then_narrow"] * 2
                    + ["read_byte", "copy", "roundtrip", "clear"]),
    st.integers(min_value=0, max_value=39),
    _SIZES,
    st.integers(min_value=0, max_value=(1 << 72) - 1),
    st.integers(min_value=0, max_value=1),
)


def _image_state(image) -> tuple:
    return image.state_signature(), image.written_byte_count()


def _apply_image_op(images, seeds, op, addr, size, raw, which):
    image, seed = images[which], seeds[which]
    if op == "write":
        # Sometimes wider than the access: only its low bytes are stored.
        value = raw if raw & 1 else raw & ((1 << (8 * size)) - 1)
        image.write(addr, size, value)
        seed.write(addr, size, value)
    elif op == "read":
        assert image.read(addr, size) == seed.read(addr, size)
    elif op == "memo_then_narrow":
        # Memoise a whole word (background and/or written bytes), then
        # overwrite part of it with a narrow store and read it back.
        word = addr & ~7
        assert image.read(word, 8) == seed.read(word, 8)
        narrow = 1 if size == 8 else size
        value = raw & ((1 << (8 * narrow)) - 1)
        image.write(addr, narrow, value)
        seed.write(addr, narrow, value)
        assert image.read(word, 8) == seed.read(word, 8)
    elif op == "read_byte":
        assert image.read_byte(addr) == seed.read_byte(addr)
        assert image.is_written(addr) == seed.is_written(addr)
    elif op == "copy":
        images[which] = image.copy()
    elif op == "roundtrip":
        # The memo is not image state: warm or cold, the pickle is the same.
        assert image.read(addr & ~7, 8) == seed.read(addr & ~7, 8)
        warm = pickle.dumps(image, pickle.HIGHEST_PROTOCOL)
        image_module._background_word.cache_clear()
        assert pickle.dumps(image, pickle.HIGHEST_PROTOCOL) == warm
        images[which] = pickle.loads(warm)
    else:
        image.clear()
        seed.clear()


@_SETTINGS
@given(st.sampled_from([0, 0x7000, 1 << 40]),
       st.sampled_from([1, 3, image_module.BACKGROUND_MEMO_WORDS]),
       st.lists(_image_op, min_size=1, max_size=_STEPS))
def test_memory_image_matches_seed_image(base, bound, ops):
    memo = lru_cache(maxsize=bound)(image_module._background_word.__wrapped__)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(image_module, "_background_word", memo)
        images = [MemoryImage(), MemoryImage()]
        seeds = [seed_image.MemoryImage(), seed_image.MemoryImage()]
        for op, offset, size, raw, which in ops:
            _apply_image_op(images, seeds, op, base + offset, size, raw, which)
            for image, seed in zip(images, seeds):
                assert _image_state(image) == _image_state(seed), op
            assert memo.cache_info().currsize <= bound
        for image, seed in zip(images, seeds):
            for addr in range(base - 8, base + 56):
                assert image.read_byte(addr) == seed.read_byte(addr)
                assert image.is_written(addr) == seed.is_written(addr)
                assert image.read(addr, 8) == seed.read(addr, 8)
        assert memo.cache_info().currsize <= bound


def test_background_memo_is_shared_and_evicts(monkeypatch):
    assert (image_module._background_word.cache_info().maxsize
            == image_module.BACKGROUND_MEMO_WORDS)
    memo = lru_cache(maxsize=2)(image_module._background_word.__wrapped__)
    monkeypatch.setattr(image_module, "_background_word", memo)
    first, second = MemoryImage(), MemoryImage()
    seed = seed_image.MemoryImage()
    for addr in (0x100, 0x108, 0x110):
        assert first.read(addr, 8) == seed.read(addr, 8)
    assert second.read(0x110, 8) == seed.read(0x110, 8)   # the other's entry
    assert memo.cache_info().hits == 1
    assert second.read(0x100, 8) == seed.read(0x100, 8)   # evicted, rehashed
    assert memo.cache_info().misses == 4
    assert memo.cache_info().currsize == 2


def test_memory_image_copy_is_independent_of_memo():
    image = MemoryImage()
    image.read(0x1000, 8)               # memoise the background word
    clone = image.copy()
    clone.write(0x1002, 2, 0xBEEF)
    seed = seed_image.MemoryImage()
    assert image.read(0x1000, 8) == seed.read(0x1000, 8)
    seed.write(0x1002, 2, 0xBEEF)
    assert clone.read(0x1000, 8) == seed.read(0x1000, 8)


# ---------------------------------------------------------------------------
# SVW filter (SSBF + SPCT)
# ---------------------------------------------------------------------------

_svw_op = st.tuples(
    st.sampled_from(["commit"] * 5 + ["reexec"] * 3 + ["last_writer"] * 3
                    + ["lookup"] * 2 + ["clear"]),
    st.integers(min_value=0, max_value=160),
    st.sampled_from([1, 2, 4, 8, 8, 16]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=3).map(lambda k: 0x400 + 4 * k),
)


@_SETTINGS
@given(st.sampled_from([8, 16, 32, 64]), st.sampled_from([8, 16, 32, 64]),
       st.lists(_svw_op, min_size=1, max_size=_STEPS))
def test_svw_filter_matches_seed_filter(ssbf_entries, spct_entries, ops):
    svw = SVWFilter(SVWConfig(ssbf_entries=ssbf_entries,
                              spct_entries=spct_entries))
    seed = seed_svw.SVWFilter(seed_predictors.SVWConfig(
        ssbf_entries=ssbf_entries, spct_entries=spct_entries))
    ssn = 0
    for op, addr, size, delta, pc in ops:
        if op == "commit":
            ssn += 1 + delta
            svw.store_committed(addr, size, ssn, pc)
            seed.store_committed(addr, size, ssn, pc)
        elif op == "reexec":
            svw_ssn = max(ssn - delta, 0)
            assert (svw.needs_reexecution(addr, size, svw_ssn)
                    == seed.needs_reexecution(addr, size, svw_ssn))
        elif op == "last_writer":
            assert svw.last_writer(addr, size) == seed.last_writer(addr, size)
        elif op == "lookup":
            assert svw.ssbf.lookup(addr, size) == seed.ssbf.lookup(addr, size)
            assert svw.spct.lookup(addr, size) == seed.spct.lookup(addr, size)
        else:
            svw.clear()
            seed.clear()
        assert svw.state_signature() == seed.state_signature(), op
        assert astuple(svw.stats) == astuple(seed.stats), op


# ---------------------------------------------------------------------------
# Store queue
# ---------------------------------------------------------------------------

_sq_op = st.tuples(
    st.sampled_from(["allocate"] * 4 + ["execute"] * 4 + ["search"] * 5
                    + ["indexed", "release", "release", "squash"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=23).map(lambda k: 0x100 + k),
    _SIZES,
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


def _entry(entry) -> tuple:
    return None if entry is None else astuple(entry)


def _sq_state(sq) -> tuple:
    return ([astuple(e) for e in sq.entries_in_order()],
            [_entry(e) for e in sq._slots],
            (sq.stats.associative_searches, sq.stats.indexed_reads))


@_SETTINGS
@given(st.sampled_from([4, 8, 16]), st.lists(_sq_op, min_size=1, max_size=_STEPS))
# A squash that left SSNs unallocated once put SSN 5 in the slot of the
# in-flight SSN 1, so executing SSN 1 raised KeyError in both queues.
@example(4, [("allocate", 0, 0x100, 8, 0)] * 16
         + [("squash", 1, 0x100, 8, 0), ("allocate", 0, 0x100, 8, 0),
            ("execute", 0, 0x100, 8, 0)])
def test_store_queue_matches_seed_queue(size, ops):
    """SSNs are allocated as the core allocates them: consecutively, and a
    squash rewinds the allocator to the squash point, clamped at the last
    committed SSN (``SSNAllocator.rewind_rename``)."""
    sq = StoreQueue(size)
    seed = seed_sq.StoreQueue(size)
    next_ssn = 1
    committed = 0
    for op, pick, addr, width, value in ops:
        inflight = [e.ssn for e in seed.entries_in_order()]
        if op == "allocate":
            if seed.is_full():
                continue
            sq.allocate(next_ssn, 0x40 + pick, next_ssn)
            seed.allocate(next_ssn, 0x40 + pick, next_ssn)
            next_ssn += 1
        elif op == "execute":
            if not inflight:
                continue
            ssn = inflight[pick % len(inflight)]
            sq.write_execute(ssn, addr, width, value)
            seed.write_execute(ssn, addr, width, value)
        elif op == "release":
            if not inflight:
                continue
            assert astuple(sq.release(inflight[0])) == astuple(seed.release(inflight[0]))
            committed = inflight[0]
        elif op == "squash":
            ssn = next_ssn - 1 - pick % 4
            got = sq.squash_younger(ssn)
            want = seed.squash_younger(ssn)
            assert [astuple(e) for e in got] == [astuple(e) for e in want]
            next_ssn = max(ssn, committed) + 1
        else:
            # Loads name any recent SSN, older or younger than the queue.
            before = next_ssn - pick % (size + 3)
            if op == "search":
                got = sq.associative_search(addr, width, before)
                want = seed.associative_search(addr, width, before)
            else:
                got = sq.read_indexed(before)
                want = seed.read_indexed(before)
            assert _entry(got) == _entry(want), op
        assert _sq_state(sq) == _sq_state(seed), op


# ---------------------------------------------------------------------------
# Branch unit (direction predictor, BTB, RAS)
# ---------------------------------------------------------------------------

#: Small direction tables so PCs conflict; the BTB keeps its paper
#: geometry (512 sets of 4 ways), so PCs are spread over two sets, eight
#: tags each, to force MRU misses and evictions.
_DIRECTION = dict(bimodal_entries=16, gshare_entries=16, chooser_entries=8,
                  history_bits=4)
_branch_pc = st.tuples(st.integers(min_value=0, max_value=1),
                       st.integers(min_value=0, max_value=7)).map(
    lambda p: (p[0] + 512 * p[1]) * 4)
_branch_op = st.tuples(
    _branch_pc,
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3).map(
        lambda k: 0x8000 + 4 * k)),
    st.sampled_from(["plain"] * 6 + ["call", "return"]),
)


@_SETTINGS
@given(st.lists(_branch_op, min_size=1, max_size=_STEPS))
def test_branch_unit_matches_seed_branch_unit(ops):
    unit = BranchUnit(BranchPredictorConfig(**_DIRECTION))
    seed = seed_branch.BranchUnit(seed_branch.BranchPredictorConfig(**_DIRECTION))
    for pc, taken, target, shape in ops:
        flags = (shape == "call", shape == "return")
        assert (unit.predict_and_resolve(pc, taken, target, *flags)
                == seed.predict_and_resolve(pc, taken, target, *flags))
        assert ((unit.predictions, unit.mispredictions, unit.btb_misses)
                == (seed.predictions, seed.mispredictions, seed.btb_misses))
        assert (unit.btb.lookups, unit.btb.hits) == (seed.btb.lookups, seed.btb.hits)
        assert unit.state_signature() == seed.state_signature()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

_cache_op = st.tuples(
    st.sampled_from(["touch_line"] * 3 + ["access"] * 3 + ["lookup"]),
    st.integers(min_value=0, max_value=31).map(lambda line: line * 64 + 5),
)


@_SETTINGS
@given(st.sampled_from([1, 2, 4]), st.lists(_cache_op, min_size=1, max_size=_STEPS))
def test_cache_matches_seed_cache(assoc, ops):
    geometry = dict(name="p", size_bytes=4 * assoc * 64, assoc=assoc,
                    line_bytes=64, latency=1)
    cache = Cache(CacheConfig(**geometry))
    seed = seed_cache.Cache(seed_cache.CacheConfig(**geometry))
    for op, addr in ops:
        assert getattr(cache, op)(addr) == getattr(seed, op)(addr), op
        assert astuple(cache.stats) == astuple(seed.stats), op
        assert cache.state_signature() == seed.state_signature(), op
