"""Property-based tests (hypothesis) on the core data structures and the
end-to-end simulator invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import simulate
from repro.core.predictors import PredictorSuiteConfig, FSPConfig, SATConfig, DDPConfig, SVWConfig
from repro.core.ssn import SSNAllocator, sq_index
from repro.core.svw import SVWFilter
from repro.isa.plane import encode_uops
from repro.isa.uop import make_alu, make_branch, make_load, make_store
from repro.lsu.policies import IndexedSQPolicy, OracleAssociativePolicy
from repro.lsu.store_queue import StoreQueue
from repro.memory.cache import Cache, CacheConfig
from repro.memory.image import MemoryImage
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import OutOfOrderCore

# ---------------------------------------------------------------------------
# Memory image: matches a reference dict-of-bytes model.
# ---------------------------------------------------------------------------

_write_op = st.tuples(
    st.integers(min_value=0, max_value=255),     # offset within a small region
    st.sampled_from([1, 2, 4, 8]),               # size
    st.integers(min_value=0),                    # raw value (masked to size)
)


@given(st.lists(_write_op, max_size=60))
def test_memory_image_matches_reference_model(operations):
    image = MemoryImage()
    reference = {}
    base = 0x7000
    for offset, size, raw in operations:
        value = raw & ((1 << (8 * size)) - 1)
        image.write(base + offset, size, value)
        for i in range(size):
            reference[base + offset + i] = (value >> (8 * i)) & 0xFF
    for addr, expected in reference.items():
        assert image.read_byte(addr) == expected
    # Reads reassemble bytes little-endian.
    for offset, size, _ in operations:
        addr = base + offset
        expected = 0
        for i in range(size):
            expected |= image.read_byte(addr + i) << (8 * i)
        assert image.read(addr, size) == expected


# ---------------------------------------------------------------------------
# Cache: never exceeds capacity, hits only lines previously accessed.
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=200))
def test_cache_hit_implies_previous_access_to_line(addresses):
    cache = Cache(CacheConfig(name="p", size_bytes=1024, assoc=2, line_bytes=64, latency=1))
    seen_lines = set()
    for addr in addresses:
        hit = cache.access(addr)
        line = addr >> 6
        if hit:
            assert line in seen_lines
        seen_lines.add(line)
    assert cache.stats.hits + cache.stats.misses == len(addresses)


# ---------------------------------------------------------------------------
# SSN allocator and SQ indexing.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([8, 16, 32, 64, 128, 256]))
def test_sq_index_in_range_and_periodic(ssn, sq_size):
    index = sq_index(ssn, sq_size)
    assert 0 <= index < sq_size
    assert sq_index(ssn + sq_size, sq_size) == index


@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_ssn_allocator_commit_never_passes_rename(operations):
    alloc = SSNAllocator()
    pending = []
    for do_allocate in operations:
        if do_allocate or not pending:
            pending.append(alloc.allocate())
        else:
            alloc.commit(pending.pop(0))
        assert alloc.ssn_commit <= alloc.ssn_rename
        assert alloc.ssn_rename - alloc.ssn_commit == len(pending)


# ---------------------------------------------------------------------------
# Store queue: associative search agrees with a reference model.
# ---------------------------------------------------------------------------

_store_spec = st.tuples(
    st.integers(min_value=0, max_value=15),      # 8-byte slot within a region
    st.integers(min_value=0, max_value=2 ** 32),
)


@given(st.lists(_store_spec, min_size=1, max_size=32),
       st.integers(min_value=0, max_value=15),
       st.sampled_from([1, 2, 4, 8]))
def test_associative_search_matches_reference(stores, load_slot, load_size):
    sq = StoreQueue(size=64)
    base = 0x9000
    executed = []
    for i, (slot, value) in enumerate(stores):
        ssn = i + 1
        sq.allocate(ssn, pc=0x400 + 4 * i, seq=i)
        sq.write_execute(ssn, base + 8 * slot, 8, value & 0xFFFF_FFFF_FFFF_FFFF)
        executed.append((ssn, base + 8 * slot))
    load_addr = base + 8 * load_slot
    result = sq.associative_search(load_addr, load_size, before_ssn=len(stores))
    expected = None
    for ssn, addr in executed:
        if addr <= load_addr and load_addr + load_size <= addr + 8:
            expected = ssn
    if expected is None:
        assert result is None
    else:
        assert result is not None and result.ssn == expected


@given(st.lists(_store_spec, min_size=1, max_size=32))
def test_indexed_read_returns_slot_occupant(stores):
    sq = StoreQueue(size=8)
    kept = {}
    for i, (slot, value) in enumerate(stores[:8]):
        ssn = i + 1
        sq.allocate(ssn, pc=0x400, seq=i)
        kept[sq_index(ssn, 8)] = ssn
    for probe in range(1, 9):
        entry = sq.read_indexed(probe)
        slot = sq_index(probe, 8)
        if slot in kept:
            assert entry is not None and entry.ssn == kept[slot]
        else:
            assert entry is None


# ---------------------------------------------------------------------------
# SVW filter conservativeness: aliasing may add re-executions but can never
# hide a store that makes the load vulnerable.
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.sampled_from([1, 2, 4, 8])), min_size=1, max_size=64),
       st.integers(min_value=0, max_value=63),
       st.sampled_from([1, 2, 4, 8]),
       st.integers(min_value=0, max_value=64))
def test_ssbf_is_conservative(stores, load_slot, load_size, load_svw_ssn):
    svw = SVWFilter(SVWConfig(ssbf_entries=64, spct_entries=64))
    reference = {}
    base = 0xA000
    for i, (slot, size) in enumerate(stores):
        ssn = i + 1
        addr = base + slot
        svw.store_committed(addr, size, ssn, store_pc=0x400 + 4 * i)
        for b in range(size):
            reference[addr + b] = ssn
    load_addr = base + load_slot
    true_youngest = max((reference.get(load_addr + b, 0) for b in range(load_size)), default=0)
    filter_says = svw.needs_reexecution(load_addr, load_size, load_svw_ssn)
    if true_youngest > load_svw_ssn:
        assert filter_says, "SVW filter must never miss a vulnerable load"


# ---------------------------------------------------------------------------
# FSP/SAT chained prediction never names a store younger than SSNren.
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=30)), max_size=60))
def test_fsp_sat_prediction_bounded_by_rename_ssn(events):
    predictors = PredictorSuiteConfig(
        fsp=FSPConfig(entries=64, assoc=2), sat=SATConfig(entries=64),
        ddp=DDPConfig(entries=64, assoc=2),
        svw=SVWConfig(ssbf_entries=256, spct_entries=256))
    policy = IndexedSQPolicy(sq_size=64, predictors=predictors)
    ssn = 0
    for load_sel, store_sel in events:
        store_pc = 0x500 + 4 * store_sel
        load_pc = 0x100 + 4 * load_sel
        ssn += 1
        policy.store_renamed(store_pc, ssn)
        policy.fsp.insert(load_pc, store_pc)
        prediction = policy.predict_load(load_pc, ssn_ren=ssn, ssn_cmt=0)
        assert prediction.fwd_ssn <= ssn
        assert prediction.dly_ssn <= ssn


# ---------------------------------------------------------------------------
# End-to-end simulator properties on random small traces.
# ---------------------------------------------------------------------------

def _random_trace(draw_ops):
    """Build a well-formed trace from a list of (kind, slot, value) tuples."""
    uops = []
    base = 0xB000
    for kind, slot, value in draw_ops:
        addr = base + 8 * slot
        if kind == 0:
            uops.append(make_store(0x400 + 4 * (slot % 16), addr=addr,
                                   value=value & 0xFFFF_FFFF, size=4, srcs=(1,)))
        elif kind == 1:
            uops.append(make_load(0x500 + 4 * (slot % 16), dest=(slot % 8) + 1, addr=addr, size=4))
        elif kind == 2:
            uops.append(make_alu(0x600 + 4 * (slot % 16), dest=(slot % 8) + 1,
                                 srcs=((value % 8) + 1,)))
        else:
            uops.append(make_branch(0x700 + 4 * (slot % 16), taken=bool(value % 2),
                                    target=0x700))
    return encode_uops(uops, name="random")


_trace_op = st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=15),
                      st.integers(min_value=0, max_value=1000))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_trace_op, min_size=10, max_size=250))
def test_simulation_commits_every_instruction(ops):
    trace = _random_trace(ops)
    predictors = PredictorSuiteConfig(
        fsp=FSPConfig(entries=64, assoc=2), sat=SATConfig(entries=64),
        ddp=DDPConfig(entries=64, assoc=2),
        svw=SVWConfig(ssbf_entries=256, spct_entries=256))
    result = simulate(trace, IndexedSQPolicy(sq_size=16, use_delay=True, predictors=predictors))
    assert result.stats.committed == len(trace)
    assert result.stats.committed_loads == trace.stats.loads
    assert result.stats.committed_stores == trace.stats.stores
    assert result.stats.cycles >= len(trace) / 8


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_trace_op, min_size=10, max_size=200))
def test_final_memory_state_matches_program_order_semantics(ops):
    """After simulation, memory equals the result of executing all stores in
    program order, regardless of the speculation that happened in between."""
    trace = _random_trace(ops)
    core = OutOfOrderCore(CoreConfig(), OracleAssociativePolicy())
    core.run(trace)
    reference = MemoryImage()
    for uop in trace:
        if uop.is_store:
            reference.write(uop.mem.addr, uop.mem.size, uop.mem.value)
    for uop in trace:
        if uop.is_memory:
            assert core.memory.read(uop.mem.addr, 8) == reference.read(uop.mem.addr, 8)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_trace_op, min_size=20, max_size=200))
def test_indexed_and_oracle_agree_on_architectural_state(ops):
    trace = _random_trace(ops)
    predictors = PredictorSuiteConfig(
        fsp=FSPConfig(entries=64, assoc=2), sat=SATConfig(entries=64),
        ddp=DDPConfig(entries=64, assoc=2),
        svw=SVWConfig(ssbf_entries=256, spct_entries=256))
    oracle_core = OutOfOrderCore(CoreConfig(), OracleAssociativePolicy())
    oracle_core.run(trace)
    indexed_core = OutOfOrderCore(CoreConfig(),
                                  IndexedSQPolicy(sq_size=16, predictors=predictors))
    indexed_core.run(trace)
    addrs = sorted({u.mem.addr for u in trace if u.is_store})
    for addr in addrs:
        assert oracle_core.memory.read(addr, 4) == indexed_core.memory.read(addr, 4)
