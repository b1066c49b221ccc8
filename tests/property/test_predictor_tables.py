"""Differential properties: the sparse FSP and DDP tables against the dense ones.

:mod:`repro.core.fsp` and :mod:`repro.core.ddp` build a set only on its first
insert; ``benchmarks/legacy_ref`` holds the frozen seed predictors, which
build every set up front.  A set that was never written must behave exactly
like one whose ways are all invalid.  Each property draws a small geometry
(so that sets collide and ways are evicted), applies one random operation
sequence to both tables over a small pool of PCs, and after every step
compares what the operation returned, the statistics, the occupancy and the
state signature.  Pickle round trips of the sparse table (the checkpoint
store's snapshot path) and rare whole-table invalidations ride along.

The golden files reach only the default 2048-set geometry; these properties
cover conflicts, evictions, invalidation and snapshot round trips at many.
"""

import pickle
import sys
from dataclasses import astuple
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.ddp import DelayDistancePredictor
from repro.core.fsp import ForwardingStorePredictor
from repro.core.predictors import DDPConfig, FSPConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from legacy_ref import ddp as dense_ddp, fsp as dense_fsp  # noqa: E402
from legacy_ref import predictors as dense_predictors  # noqa: E402

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])

#: Pool sizes: ~12 PCs over a few small tables keeps sets colliding.
_POOL = 12
_STEPS = 160


@st.composite
def _geometry(draw):
    """Entries, associativity, tag width and training weights that fit."""
    assoc = draw(st.sampled_from([1, 2, 4]))
    entries = draw(st.sampled_from([e for e in (2, 4, 8, 16, 32, 64) if e >= assoc]))
    counter_bits = draw(st.integers(min_value=1, max_value=4))
    counter_max = (1 << counter_bits) - 1
    return dict(
        entries=entries,
        assoc=assoc,
        tag_bits=draw(st.sampled_from([1, 2, 8])),
        counter_bits=counter_bits,
        positive_weight=draw(st.integers(min_value=0, max_value=counter_max)),
        negative_weight=draw(st.integers(min_value=0, max_value=3)),
    )


_pcs = st.lists(st.integers(min_value=0, max_value=1 << 12).map(lambda w: w * 4),
                min_size=_POOL, max_size=_POOL)

# Weighted op mixes: the whole-table invalidation is rare.
_fsp_op = st.tuples(
    st.sampled_from(["lookup"] * 4 + ["strengthen"] * 4 + ["weaken"] * 3
                    + ["weaken_all"] * 2 + ["insert"] * 4 + ["roundtrip"]
                    + ["invalidate_all"]),
    st.integers(min_value=0, max_value=_POOL - 1),
    st.integers(min_value=0, max_value=_POOL - 1),
)

_ddp_op = st.tuples(
    st.sampled_from(["delay_ssn"] * 5 + ["train_wrong_prediction"] * 5
                    + ["train_correct_prediction"] * 4 + ["roundtrip"]
                    + ["invalidate_all"]),
    st.integers(min_value=0, max_value=_POOL - 1),
    st.integers(min_value=0, max_value=80),
)


def _observable(table) -> tuple:
    return astuple(table.stats), table.occupancy(), table.state_signature()


@_SETTINGS
@given(_geometry(), st.sampled_from([2, 8]), _pcs, _pcs,
       st.lists(_fsp_op, min_size=1, max_size=_STEPS))
def test_sparse_fsp_matches_dense_fsp(geometry, store_pc_bits, load_pcs, store_pcs, ops):
    sparse = ForwardingStorePredictor(FSPConfig(store_pc_bits=store_pc_bits, **geometry))
    dense = dense_fsp.ForwardingStorePredictor(
        dense_predictors.FSPConfig(store_pc_bits=store_pc_bits, **geometry))
    for op, load_i, store_i in ops:
        load_pc, store_pc = load_pcs[load_i], store_pcs[store_i]
        if op == "roundtrip":
            sparse = pickle.loads(pickle.dumps(sparse, pickle.HIGHEST_PROTOCOL))
        elif op == "invalidate_all":
            sparse.invalidate_all()
            dense.invalidate_all()
        elif op in ("lookup", "weaken_all"):
            got = getattr(sparse, op)(load_pc)
            want = getattr(dense, op)(load_pc)
            if op == "lookup":
                assert [astuple(e) for e in got] == [astuple(e) for e in want]
        else:
            getattr(sparse, op)(load_pc, store_pc)
            getattr(dense, op)(load_pc, store_pc)
        assert _observable(sparse) == _observable(dense), op


@_SETTINGS
@given(_geometry(), st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=8),
       st.sampled_from([4, 16, 64]), _pcs,
       st.lists(_ddp_op, min_size=1, max_size=_STEPS))
def test_sparse_ddp_matches_dense_ddp(geometry, threshold, future_interval, sq_size,
                                      load_pcs, ops):
    fields = dict(geometry,
                  counter_threshold=min(threshold, (1 << geometry["counter_bits"]) - 1),
                  future_interval=future_interval)
    sparse = DelayDistancePredictor(DDPConfig(**fields), sq_size=sq_size)
    dense = dense_ddp.DelayDistancePredictor(dense_predictors.DDPConfig(**fields),
                                             sq_size=sq_size)
    ssn = 0
    for op, load_i, value in ops:
        load_pc = load_pcs[load_i]
        if op == "roundtrip":
            sparse = pickle.loads(pickle.dumps(sparse, pickle.HIGHEST_PROTOCOL))
        elif op == "invalidate_all":
            sparse.invalidate_all()
            dense.invalidate_all()
        elif op == "delay_ssn":
            ssn += value
            assert sparse.delay_ssn(load_pc, ssn) == dense.delay_ssn(load_pc, ssn)
        elif op == "train_wrong_prediction":
            sparse.train_wrong_prediction(load_pc, value)
            dense.train_wrong_prediction(load_pc, value)
        else:
            sparse.train_correct_prediction(load_pc)
            dense.train_correct_prediction(load_pc)
        assert _observable(sparse) == _observable(dense), op
