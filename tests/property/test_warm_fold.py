"""Differential property: per-policy warming folds against a per-load replay.

:meth:`~repro.sampling.functional.FunctionalWarmer.warm` retires a segment
once, records every load and store, and lets each policy fold the records
(:meth:`~repro.lsu.policies.SQPolicy.warm_segment`).  The reference below
is the warm loop that did the same work one access at a time: a per-byte
last-writer dict and, for every policy and every access, the detailed-mode
calls the per-load and per-store hooks made —

* stores: the rename-time table update (``store_renamed``; the SAT or, for
  the original Store Sets formulation, the SSIT/LFST without the in-flight
  serialisation map) and ``store_committed``;
* indexed loads: ``predict_load`` then ``load_committed`` with the
  would-forward signal as ``forwarded`` and no violation;
* associative loads: ``fsp.strengthen`` or ``store_sets.train_violation``
  when the load would forward.

Traces mix near and far store-to-load distances (a small ROB and SQ make
both common), bursts to one address, narrow and unaligned accesses, and
branches.  Each example warms 1-7 policies drawn from every
:func:`~repro.harness.runner.make_policy` name in two ``warm`` calls split
at a random point, and requires identical pickled policies, shared
signature and instruction count; a policies-only replay
(``policies_only=True``, which skips the branch unit, caches and memory
image) must end with the same pickled policies.

The warmer folds one policy per warm class and derives the others
(:func:`~repro.lsu.policies.warm_classes`).  The class draws below are rich
in same-class pairs and give policies of one type different predictor
configs (FSP entries, DDP sets, SVW entries), which must never share a
class.  Every policy must end exactly as a warmer of its own leaves it
(pickle and ``state_signature()``), holding no table another policy
holds.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.frontend.branch_predictor import BranchUnit
from repro.harness.runner import make_policy
from repro.isa.plane import encode_uops
from repro.isa.uop import MemAccess, MicroOp, OpClass
from repro.lsu.policies import (AssociativeStoreSetsPolicy, IndexedSQPolicy,
                                LoadCommitInfo)
from repro.memory.image import MemoryImage
from repro.memory.mlp import build_hierarchy
from repro.core.predictors import (DDPConfig, FSPConfig, PredictorSuiteConfig,
                                   SVWConfig)
from repro.core.ssn import SSNAllocator
from repro.lsu.policies import warm_classes
from repro.pipeline.config import CoreConfig
from repro.sampling.checkpoints import shared_signature
from repro.sampling.functional import FunctionalWarmer

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])

_NAMES = ["oracle-associative-3", "associative-3",
          "associative-5-optimistic", "associative-5-predictive",
          "associative-original-storesets", "indexed-3-fwd",
          "indexed-3-fwd+dly"]

_BASE = 0x10000

# (kind, pc slot, address offset, size, repeat).  Few PCs and addresses, so
# predictor sets and SVW entries are shared; "gap" pads the distance to the
# next access past the ROB.
_access = st.tuples(
    st.sampled_from(["load"] * 5 + ["store"] * 4 + ["branch", "gap"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=15),
    st.sampled_from([8, 8, 8, 4, 2, 1]),
    st.integers(min_value=1, max_value=4),
)


def _trace(accesses):
    uops = []
    for kind, slot, offset, size, repeat in accesses:
        pc = 0x400 + 4 * slot
        for _ in range(repeat):
            if kind == "load":
                uops.append(MicroOp(pc=pc, op_class=OpClass.LOAD, dest=1,
                                    mem=MemAccess(_BASE + offset, size)))
            elif kind == "store":
                value = (offset * 97 + slot) & ((1 << (8 * size)) - 1)
                uops.append(MicroOp(pc=pc + 0x100, op_class=OpClass.STORE,
                                    srcs=(2,),
                                    mem=MemAccess(_BASE + offset, size,
                                                  value=value)))
            elif kind == "branch":
                uops.append(MicroOp(pc=pc + 0x200, op_class=OpClass.BRANCH,
                                    is_taken=bool(offset & 1),
                                    target=pc + 0x240))
            else:
                uops.extend(MicroOp(pc=pc + 0x300, op_class=OpClass.INT_ALU,
                                    dest=3) for _ in range(8 * repeat))
    return uops


class _Reference:
    """The per-load warm loop, with a per-byte last-writer dict."""

    def __init__(self, config, policies):
        self.config = config
        self.policies = policies
        self.branch_unit = BranchUnit(config.branch_predictor)
        self.hierarchy = build_hierarchy(config.memory)
        self.memory = MemoryImage()
        self.ssn_alloc = SSNAllocator(bits=config.ssn_bits)
        self.last_writer = {}
        self.index = 0

    def warm(self, uops):
        for uop in uops:
            if uop.is_load:
                self._load(uop.pc, uop.mem.addr, uop.mem.size)
            elif uop.is_store:
                self._store(uop.pc, uop.mem.addr, uop.mem.size, uop.mem.value)
            elif uop.is_branch:
                self.branch_unit.predict_and_resolve(
                    uop.pc, uop.is_taken, uop.target, uop.hint_call,
                    uop.hint_return)
            self.index += 1

    def _load(self, pc, addr, size):
        self.hierarchy.load_latency(addr)
        best = None
        best_ssn = 0
        for byte_addr in range(addr, addr + size):
            entry = self.last_writer.get(byte_addr)
            if entry is not None and entry[0] > best_ssn:
                best_ssn = entry[0]
                best = entry
        ssn_cmt = self.ssn_alloc.ssn_commit
        dep_pc = best[1] if best is not None else 0
        for policy in self.policies:
            would_forward = (best is not None
                             and self.index - best[2] < self.config.rob_size
                             and ssn_cmt - best_ssn < policy.sq_size)
            if isinstance(policy, IndexedSQPolicy):
                prediction = policy.predict_load(pc, ssn_cmt, ssn_cmt, best_ssn)
                last_ssn, last_pc = policy.svw.last_writer(addr, size)
                policy.load_committed(LoadCommitInfo(
                    pc=pc, addr=addr, size=size, spec_value=0,
                    correct_value=0, forwarded=would_forward,
                    forward_ssn=best_ssn if would_forward else 0,
                    prediction=prediction, ssn_at_rename=ssn_cmt,
                    ssn_cmt=ssn_cmt, violation=False,
                    last_ssn=last_ssn, last_pc=last_pc))
            elif isinstance(policy, AssociativeStoreSetsPolicy):
                if would_forward and dep_pc != 0:
                    if policy.formulation == "original":
                        policy.store_sets.train_violation(pc, dep_pc)
                    else:
                        policy.fsp.strengthen(pc, dep_pc)

    def _store(self, pc, addr, size, value):
        ssn = self.ssn_alloc.allocate()
        for policy in self.policies:
            if getattr(policy, "formulation", None) == "original":
                policy.store_sets.store_renamed(pc, ssn)
            else:
                policy.store_renamed(pc, ssn)
        self.memory.write(addr, size, value)
        self.ssn_alloc.commit(ssn)
        for policy in self.policies:
            policy.store_committed(pc, ssn, addr, size)
        self.hierarchy.store_touch(addr)
        entry = (ssn, pc, self.index)
        for byte_addr in range(addr, addr + size):
            self.last_writer[byte_addr] = entry

    def shared_signature(self):
        alloc = self.ssn_alloc
        return (self.branch_unit.state_signature(),
                self.hierarchy.state_signature(),
                self.memory.state_signature(),
                (alloc.bits, alloc.ssn_rename, alloc.ssn_commit, alloc.wraps),
                self.index)


@_SETTINGS
@given(accesses=st.lists(_access, min_size=1, max_size=60),
       names=st.lists(st.sampled_from(_NAMES), min_size=1, max_size=7),
       sq_size=st.sampled_from([2, 4, 64]),
       rob_size=st.sampled_from([8, 32]),
       split=st.floats(min_value=0.0, max_value=1.0))
def test_fold_matches_per_load_replay(accesses, names, sq_size, rob_size,
                                      split):
    config = CoreConfig(rob_size=rob_size)
    uops = _trace(accesses)
    cut = int(len(uops) * split)

    reference = _Reference(config, [make_policy(name, sq_size=sq_size)
                                    for name in names])
    reference.warm(uops)

    policies = [make_policy(name, sq_size=sq_size) for name in names]
    warmer = FunctionalWarmer(config, policies=policies)
    warmer.warm(encode_uops(uops[:cut]))
    warmer.warm(uops[cut:])

    assert warmer.state.instructions_warmed == len(uops)
    # The warmer's state holds the shared structures under the snapshot's
    # names.
    assert shared_signature(warmer.state) == reference.shared_signature()
    for name, mine, theirs in zip(names, policies, reference.policies):
        assert pickle.dumps(mine) == pickle.dumps(theirs), name

    policies_only = [make_policy(name, sq_size=sq_size) for name in names]
    warmer = FunctionalWarmer(config, policies=policies_only,
                              policies_only=True)
    warmer.warm(encode_uops(uops[:cut]))
    warmer.warm(uops[cut:])
    for name, mine, theirs in zip(names, policies_only, reference.policies):
        assert pickle.dumps(mine) == pickle.dumps(theirs), name


#: Predictor configs a class draw gives a policy (index 0: the default).
_PREDICTORS = (None,
               PredictorSuiteConfig(fsp=FSPConfig(entries=8, assoc=2)),
               PredictorSuiteConfig(ddp=DDPConfig(entries=4, assoc=2)),
               PredictorSuiteConfig(svw=SVWConfig(ssbf_entries=16,
                                                  spct_entries=16)))

#: Names whose folds share tables, so draws from one group pair them up.
_CLASS_MATES = (("associative-3", "associative-5-optimistic",
                 "associative-5-predictive"),
                ("indexed-3-fwd", "indexed-3-fwd+dly"),
                ("oracle-associative-3", "associative-original-storesets"))

_member = st.tuples(st.sampled_from(_NAMES),
                    st.integers(min_value=0, max_value=len(_PREDICTORS) - 1))
_mates = st.sampled_from(_CLASS_MATES).flatmap(
    lambda names: st.lists(st.tuples(st.sampled_from(names),
                                     st.sampled_from([0, 0, 1, 2, 3])),
                           min_size=2, max_size=6))


def _tables(policy):
    """Every mutable table a policy's warming touches."""
    tables = [policy.stats, policy.svw.stats, policy.svw.ssbf._table,
              policy.svw.spct._table]
    for name in ("fsp", "ddp"):
        predictor = getattr(policy, name, None)
        if predictor is not None:
            tables += [predictor.stats, predictor._sets]
            tables += [entry for ways in predictor._sets.values()
                       for entry in ways]
    if hasattr(policy, "sat"):
        tables += [policy.sat.stats, policy.sat._table]
    if hasattr(policy, "store_sets"):
        tables += [policy.store_sets.stats, policy.store_sets._ssit,
                   policy.store_sets._lfst]
    return tables


def _build(members, sq_size):
    return [make_policy(name, sq_size=sq_size, predictors=_PREDICTORS[p])
            for name, p in members]


@_SETTINGS
@given(accesses=st.lists(_access, min_size=1, max_size=60),
       members=st.one_of(st.lists(_member, min_size=1, max_size=8), _mates),
       sq_size=st.sampled_from([2, 4, 64]),
       rob_size=st.sampled_from([8, 32]),
       split=st.floats(min_value=0.0, max_value=1.0),
       policies_only=st.booleans())
def test_warm_classes_match_separate_warmers(accesses, members, sq_size,
                                             rob_size, split, policies_only):
    config = CoreConfig(rob_size=rob_size)
    uops = _trace(accesses)
    cut = int(len(uops) * split)

    policies = _build(members, sq_size)
    classes = warm_classes(policies)
    for mates in classes:
        assert len({(type(p), p.sq_size, p.predictor_config,
                     getattr(p, "formulation", None)) for p in mates}) == 1
        # The representative trains every table a member holds.
        assert mates[0].use_delay or not any(p.use_delay for p in mates)
    assert sorted(map(id, policies)) == sorted(
        id(p) for mates in classes for p in mates)
    for one in classes:
        for other in classes:
            if one is not other:
                assert one[0].warm_class_key() != other[0].warm_class_key()

    warmer = FunctionalWarmer(config, policies=policies,
                              policies_only=policies_only)
    warmer.warm(encode_uops(uops[:cut]))
    warmer.warm(uops[cut:])

    for member, mine, policy in zip(members, policies,
                                    _build(members, sq_size)):
        FunctionalWarmer(config, policy).warm(uops)
        assert pickle.dumps(mine) == pickle.dumps(policy), member
        assert mine.state_signature() == policy.state_signature(), member

    owners = {}
    for policy in policies:
        for table in _tables(policy):
            assert owners.setdefault(id(table), policy) is policy
