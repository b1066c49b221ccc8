"""Property: bounding a load's store-queue access by its true producer.

The detailed core passes ``policy.forward`` the SSN of the load's true
producer (the youngest older store writing any of its bytes) instead of the
load's rename SSN.  A store that can forward to the load writes its bytes,
so it is never younger than the producer, and every policy must answer
both bounds alike: the same decision, from the same entry, after the same
store-queue accesses (:meth:`repro.lsu.policies.SQPolicy.forward`).

Each example fills a store queue with in-flight stores (executed or not,
overlapping the load or not, some of them younger than the load), puts the
load between them, and picks its producer the way the commit facts do: the
youngest in-flight store older than the load that writes one of its bytes,
else a committed writer (or none).  Predictions name any slot, the
producer's included.

The commit facts name no writer from before a run
(:mod:`repro.pipeline.commit_facts`), so a load whose only writers
committed before the run gets producer 0, not their SSN.  Two more
properties, each run for every ``make_policy`` name, show that the loop
cannot tell the two apart: a committed bound forwards exactly like the
bound 0, and a committed oracle dependence predicts exactly like none, as
far as the loop reads a prediction (what it waits for, the latency it
assumes, the SQ access it bounds and the training at commit).
"""

import pickle
from dataclasses import astuple
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.harness.runner import make_policy
from repro.isa.plane import encode_uops
from repro.isa.uop import make_load, make_store
from repro.lsu.policies import LoadCommitInfo, LoadPrediction
from repro.lsu.store_queue import StoreQueue
from repro.pipeline.config import CoreConfig
from repro.sampling.functional import FunctionalWarmer

#: Every configuration ``make_policy`` knows.
POLICY_NAMES = ("oracle-associative-3", "associative-3",
                "associative-5-optimistic", "associative-5-predictive",
                "associative-original-storesets", "indexed-3-fwd",
                "indexed-3-fwd+dly")

_SETTINGS = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_BASE = 0x7000

#: An in-flight store: offset into a three-word span, width, executed?,
#: value.
_store = st.tuples(st.integers(min_value=0, max_value=16),
                   st.sampled_from([1, 2, 4, 8]), st.booleans(),
                   st.integers(min_value=0, max_value=(1 << 64) - 1))


def _overlaps(a, a_size, b, b_size):
    return a < b + b_size and b < a + a_size


@st.composite
def _case(draw):
    size = draw(st.sampled_from([4, 8, 16]))
    ssn_commit = draw(st.integers(min_value=0, max_value=40))
    stores = draw(st.lists(_store, max_size=size))
    # Often at a store's address, where an indexed read can match.
    offsets = st.integers(min_value=0, max_value=16)
    if stores:
        offsets = st.one_of(offsets, st.sampled_from([s[0] for s in stores]))
    load = (_BASE + draw(offsets), draw(st.sampled_from([1, 2, 4, 8])))
    # The load sits after ``older`` of the in-flight stores.
    older = draw(st.integers(min_value=0, max_value=len(stores)))
    ssn_ren = ssn_commit + older
    producer = 0
    for ssn, (offset, width, _, _) in enumerate(stores[:older],
                                                ssn_commit + 1):
        if _overlaps(_BASE + offset, width, *load):
            producer = ssn
    if not producer and ssn_commit:
        # The youngest writer of the load's bytes committed (0: none).
        producer = draw(st.integers(min_value=0, max_value=ssn_commit))
    fwd_ssn = draw(st.one_of(
        st.just(producer),
        st.integers(min_value=0, max_value=ssn_commit + len(stores) + size)))
    return (draw(st.sampled_from(POLICY_NAMES)), size, ssn_commit, stores,
            load, ssn_ren, producer, LoadPrediction(fwd_ssn=fwd_ssn))


def _queue(size, ssn_commit, stores):
    sq = StoreQueue(size)
    for ssn, (offset, width, executed, value) in enumerate(stores,
                                                           ssn_commit + 1):
        sq.allocate(ssn, 0x400 + 4 * ssn, ssn)
        if executed:
            sq.write_execute(ssn, _BASE + offset, width,
                             value & ((1 << (8 * width)) - 1))
    return sq


def _outcome(decision, sq):
    entry = decision.from_entry
    return (decision.forwarded, decision.value, decision.forward_ssn,
            None if entry is None else astuple(entry), astuple(sq.stats))


#: SSNs 11 and 12 in flight; the load, after both, reads the 8 bytes SSN
#: 11 wrote: its producer is the oldest entry, and the bound is its SSN.
_EDGE = (4, 10, [(0, 8, True, 0x1122334455667788), (8, 8, True, 5)],
         (_BASE, 8), 12, 11)


@_SETTINGS
@given(_case())
@example(("associative-3", *_EDGE, LoadPrediction()))
@example(("indexed-3-fwd", *_EDGE, LoadPrediction(fwd_ssn=11)))
def test_the_producer_bound_forwards_like_the_rename_bound(case):
    name, size, ssn_commit, stores, load, ssn_ren, producer, prediction = case
    outcomes = []
    for bound in (ssn_ren, producer):
        policy = make_policy(name, sq_size=size)
        sq = _queue(size, ssn_commit, stores)
        decision = policy.forward(*load, bound, prediction, sq)
        outcomes.append(_outcome(decision, sq))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0]:
        # Only a store writing the load's bytes forwards, so never one
        # younger than the producer.
        assert outcomes[0][2] <= producer


# ---------------------------------------------------------------------------
# A producer that committed before the run
# ---------------------------------------------------------------------------

#: The load and the store it forwards from in the warming trace, so that
#: every predictor names the store when it sees the load.
_LOAD_PC = 0x600
_STORE_PC = 0x500

#: The L1 latency the loop hands ``assumed_load_latency``.
_L1_LATENCY = CoreConfig().memory.l1.latency


@lru_cache(maxsize=None)
def _warmed_blob(name, size):
    """A pickled policy whose FSP or store sets have learned that the load
    at ``_LOAD_PC`` depends on the store at ``_STORE_PC``."""
    uops = []
    for _ in range(8):
        uops += [make_store(_STORE_PC, addr=_BASE, value=1),
                 make_load(_LOAD_PC, dest=1, addr=_BASE)]
    policy = make_policy(name, sq_size=size)
    FunctionalWarmer(CoreConfig(), policy).warm(encode_uops(uops))
    return pickle.dumps(policy)


@st.composite
def _committed_case(draw):
    """In-flight stores above ``ssn_commit`` and a load whose youngest
    writer ``committed`` (at most ``ssn_commit``) has left the queue."""
    size = draw(st.sampled_from([4, 8, 16]))
    ssn_commit = draw(st.integers(min_value=1, max_value=40))
    stores = draw(st.lists(_store, max_size=size))
    offsets = st.integers(min_value=0, max_value=16)
    if stores:
        offsets = st.one_of(offsets, st.sampled_from([s[0] for s in stores]))
    load = (_BASE + draw(offsets), draw(st.sampled_from([1, 2, 4, 8])))
    ssn_ren = ssn_commit + draw(st.integers(min_value=0,
                                            max_value=len(stores)))
    committed = draw(st.integers(min_value=1, max_value=ssn_commit))
    fwd_ssn = draw(st.one_of(
        st.just(committed),
        st.integers(min_value=0, max_value=ssn_commit + len(stores) + size)))
    return (size, ssn_commit, stores, load, ssn_ren, committed,
            LoadPrediction(fwd_ssn=fwd_ssn))


#: SSN 11 in flight at the load's address and size, named by the
#: prediction; the load's writer, SSN 3, has committed.
_COMMITTED_EDGE = (4, 10, [(0, 8, True, 5)], (_BASE, 8), 11, 3,
                   LoadPrediction(fwd_ssn=11))

#: The tests below run once per ``make_policy`` name, so each name draws
#: its own examples instead of a share of ``_SETTINGS``'s.
_PER_POLICY = settings(_SETTINGS, max_examples=60)


@pytest.mark.parametrize("name", POLICY_NAMES)
@_PER_POLICY
@given(_committed_case())
@example(_COMMITTED_EDGE)
def test_a_committed_bound_forwards_like_none(name, case):
    size, ssn_commit, stores, load, _, committed, prediction = case
    outcomes = []
    for bound in (committed, 0):
        policy = make_policy(name, sq_size=size)
        sq = _queue(size, ssn_commit, stores)
        outcomes.append(_outcome(policy.forward(*load, bound, prediction, sq),
                                 sq))
    assert outcomes[0] == outcomes[1]
    assert not outcomes[0][0]


def _waits(prediction, ssn_commit):
    """The in-flight stores the loop makes a load wait for: the predicted
    forwarding store (constraint 1) and the delay store (constraint 2)."""
    return tuple(ssn if ssn > ssn_commit else 0
                 for ssn in (prediction.fwd_ssn, prediction.dly_ssn))


@pytest.mark.parametrize("name", POLICY_NAMES)
@_PER_POLICY
@given(_committed_case(), st.booleans())
def test_a_committed_dependence_predicts_like_none(name, case, renamed):
    """Each policy, trained and with its store renamed in flight or not,
    sees the load once with the committed dependence and once with none,
    and goes through what the loop does with the prediction."""
    size, ssn_commit, stores, load, ssn_ren, committed, _ = case
    runs = []
    for dependence in (committed, 0):
        policy = pickle.loads(_warmed_blob(name, size))
        if renamed and ssn_ren > ssn_commit:
            policy.store_renamed(_STORE_PC, ssn_ren)
        prediction = policy.predict_load(_LOAD_PC, ssn_ren, ssn_commit,
                                         dependence)
        sq = _queue(size, ssn_commit, stores)
        decision = policy.forward(*load, dependence, prediction, sq)
        view = (_waits(prediction, ssn_commit),
                policy.assumed_load_latency(prediction, _L1_LATENCY),
                _outcome(decision, sq))
        policy.load_committed(LoadCommitInfo(
            pc=_LOAD_PC, addr=load[0], size=load[1], spec_value=0,
            correct_value=0, forwarded=decision.forwarded,
            forward_ssn=decision.forward_ssn, prediction=prediction,
            ssn_at_rename=ssn_ren, ssn_cmt=ssn_commit, violation=False,
            last_ssn=committed, last_pc=_STORE_PC))
        runs.append((view, pickle.dumps(policy)))
    assert runs[0] == runs[1]
    if name == "oracle-associative-3":
        # The oracle reads the dependence, and a committed one leaves the
        # load waiting for nothing at the L1 latency.
        assert runs[0][0][:2] == ((0, 0), _L1_LATENCY)
