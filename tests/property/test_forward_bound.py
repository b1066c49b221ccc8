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
"""

from dataclasses import astuple

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.harness.runner import make_policy
from repro.lsu.policies import LoadPrediction
from repro.lsu.store_queue import StoreQueue

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
