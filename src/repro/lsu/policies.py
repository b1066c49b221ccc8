"""Store queue access policies.

A policy encapsulates everything that differs between the store-queue
configurations compared in the paper (Table 1, Figure 4):

* how loads are scheduled (which store a load waits for, and whether it is
  additionally delayed until some store *commits*),
* how the load obtains a value from the SQ at execution (fully-associative
  search vs. speculative indexed read of one predicted entry),
* what latency the scheduler assumes when waking a load's dependants, and
* how the predictors are trained at load/store commit.

The cycle-level core (:class:`repro.pipeline.core.OutOfOrderCore`) is policy
agnostic: it calls the methods below at decode/rename, execute, and commit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fsp import ForwardingStorePredictor
from repro.core.ddp import DelayDistancePredictor
from repro.core.predictors import PredictorSuiteConfig
from repro.core.sat import SATUndoRecord, StoreAliasTable
from repro.core.store_sets import StoreSetsPredictor
from repro.core.svw import SVWFilter
from repro.lsu.store_queue import StoreQueue, StoreQueueEntry


@dataclass(slots=True)
class LoadPrediction:
    """Per-dynamic-load predictions generated at decode/rename.

    ``fwd_ssn`` is the paper's ``SSNfwd`` (0 means "no relevant store");
    ``dly_ssn`` is ``SSNdly`` (0 means "no delay").  ``predicted_store_pc``
    is the partial store PC the FSP produced (``None`` if the FSP missed) and
    is used at commit to drive training.  ``predict_forward`` is the
    scheduler hint used by the forwarding-prediction variant of the 5-cycle
    associative SQ.
    """

    fwd_ssn: int = 0
    dly_ssn: int = 0
    predicted_store_pc: Optional[int] = None
    predict_forward: bool = False


#: Shared no-prediction instance (``fwd_ssn == dly_ssn == 0``): most loads
#: carry no forwarding or delay prediction, and the instance is read-only by
#: convention (predictions are never mutated after creation).
_NO_PREDICTION = LoadPrediction()


@dataclass(slots=True)
class ForwardDecision:
    """Outcome of the SQ access performed when a load executes."""

    forwarded: bool = False
    value: Optional[int] = None
    forward_ssn: int = 0
    from_entry: Optional[StoreQueueEntry] = None


#: Shared not-forwarded decision: every SQ access that does not forward
#: returns this one instance, read-only like :data:`_NO_PREDICTION`.
_NO_FORWARD = ForwardDecision()


def _fsp_sat_predict(fsp: ForwardingStorePredictor, sat: StoreAliasTable,
                     load_pc: int) -> Tuple[int, Optional[int]]:
    """The FSP -> SAT walk at load rename: ``(best SSN, its partial PC)``.

    Every valid FSP way whose tag matches ``load_pc`` names a partial store
    PC; the SAT maps each to the SSN of its youngest in-flight instance and
    the largest wins (``(0, None)`` when nothing matches or every SSN is 0).
    Inlined for the per-load hot path, with the table reads, statistics and
    LRU sequencing of :meth:`ForwardingStorePredictor.lookup` followed by
    one :meth:`StoreAliasTable.lookup_partial` per match.
    """
    fsp_stats = fsp.stats
    fsp_stats.lookups += 1
    word = load_pc >> 2
    tag = (word >> fsp._tag_shift) & fsp._tag_mask
    best_ssn = 0
    best_pc: Optional[int] = None
    matched = False
    for entry in fsp._sets.get(word & fsp._set_mask, ()):
        if entry.valid and entry.tag == tag:
            if not matched:
                matched = True
                fsp_stats.hits += 1
                fsp._lru_clock += 1
            entry.lru = fsp._lru_clock
            sat.stats.lookups += 1
            store_pc = entry.store_pc
            ssn = sat._table[store_pc & sat._index_mask]
            if ssn > best_ssn:
                best_ssn = ssn
                best_pc = store_pc
    return best_ssn, best_pc


def _associative_forward(store_queue: StoreQueue, addr: int, size: int,
                         older_than_ssn: int) -> ForwardDecision:
    """Forward from the youngest older store covering the load, if any."""
    entry = store_queue.associative_search(addr, size, older_than_ssn)
    if entry is None:
        return _NO_FORWARD
    return ForwardDecision(forwarded=True, value=entry.extract(addr, size),
                           forward_ssn=entry.ssn, from_entry=entry)


@dataclass(slots=True)
class LoadCommitInfo:
    """Information available when a load commits (drives training).

    ``last_ssn``/``last_pc`` are the SVW's answer at the commit
    (:meth:`~repro.core.svw.SVWFilter.last_writer`): the SSN and PC of the
    youngest committed store writing one of the load's bytes.
    """

    pc: int
    addr: int
    size: int
    spec_value: int
    correct_value: int
    forwarded: bool
    forward_ssn: int
    prediction: LoadPrediction
    ssn_at_rename: int
    ssn_cmt: int
    violation: bool
    last_ssn: int
    last_pc: int


@dataclass(slots=True)
class PolicyStats:
    """Counters common to all policies."""

    loads_predicted: int = 0
    loads_predicted_forwarding: int = 0
    fsp_correct_pc: int = 0
    fsp_wrong_pc: int = 0
    delay_predictions: int = 0


class SQPolicy:
    """Base class for SQ access policies.

    Subclasses override the prediction, forwarding, and training hooks; this
    base class owns the structures shared by every configuration (the SVW
    filter used for re-execution filtering and predictor training).
    """

    #: Human-readable configuration name (matches Figure 4 labels).
    name: str = "base"
    #: SQ access latency in cycles (Table 2).
    sq_latency: int = 3
    #: Whether the policy delays loads through a DDP (indexed ``fwd+dly``).
    use_delay: bool = False

    def __init__(self, sq_size: int = 64,
                 predictors: Optional[PredictorSuiteConfig] = None) -> None:
        self.sq_size = sq_size
        self.predictor_config = predictors or PredictorSuiteConfig()
        self.svw = SVWFilter(self.predictor_config.svw)
        self.stats = PolicyStats()

    # -- decode / rename --------------------------------------------------------

    def predict_load(self, load_pc: int, ssn_ren: int, ssn_cmt: int,
                     oracle_dep_ssn: int = 0) -> LoadPrediction:
        """Generate the load's forwarding/delay predictions."""
        raise NotImplementedError

    def store_renamed(self, store_pc: int, ssn: int) -> Optional[SATUndoRecord]:
        """Note a renamed store (SAT/LFST update); returns an undo token."""
        return None

    def store_squashed(self, store_pc: int, ssn: int, token: Optional[SATUndoRecord]) -> None:
        """Undo the effect of :meth:`store_renamed` for a squashed store."""

    def store_dependence(self, store_pc: int, ssn: int) -> int:
        """SSN of an older store this store must wait for (0 = none).

        Only the original Store Sets formulation serialises stores within a
        set; every other policy returns 0.
        """
        return 0

    # -- execute ----------------------------------------------------------------

    def assumed_load_latency(self, prediction: LoadPrediction, l1_latency: int) -> int:
        """Latency the scheduler assumes when speculatively waking dependants."""
        return l1_latency

    def forwarded_load_latency(self, l1_latency: int) -> int:
        """Latency of a load that obtains its value from the SQ.

        The core evaluates this once per run, so an override must depend
        only on ``l1_latency`` and the policy's configuration, never on
        predictor state.
        """
        return max(self.sq_latency, l1_latency)

    def forward(self, addr: int, size: int, older_than_ssn: int,
                prediction: LoadPrediction, store_queue: StoreQueue) -> ForwardDecision:
        """Access the SQ on behalf of an executing load.

        A policy forwards only from an executed, in-flight store that
        writes the load's bytes and whose SSN is at most
        ``older_than_ssn``.  The bound is the load's rename SSN or, as the
        detailed core passes it, the SSN of the load's true producer (the
        youngest older store writing any of its bytes): a store that can
        forward to the load writes its bytes, so it is never younger than
        the producer, and both bounds must give the same decision and make
        the same store-queue accesses.
        """
        raise NotImplementedError

    # -- commit -----------------------------------------------------------------

    def store_committed(self, store_pc: int, ssn: int, addr: int, size: int) -> None:
        """Update SVW structures (and any policy state) when a store commits.

        An override must update the SVW as this does: the detailed core
        takes each load's SVW answer from a program-order replay of the
        stores (:mod:`repro.pipeline.commit_facts`).
        """
        self.svw.store_committed(addr, size, ssn, store_pc)

    def load_committed(self, info: LoadCommitInfo) -> None:
        """Train predictors with the outcome of a committed load."""

    # -- functional warming ------------------------------------------------------

    #: Whether :meth:`warm_segment` reads the SVW answer of each load record.
    warm_reads_svw: bool = False

    def warm_segment(self, records: Sequence[tuple], window: int) -> None:
        """Train this policy's predictors on one functionally retired
        trace segment.

        The functional warmer (:mod:`repro.sampling.functional`) retires
        the segment once for every policy and records each memory access,
        in program order, as a plain tuple:

        * a store: ``(pc, ssn, addr, size)``; it renamed and committed
          at once (functional replay has no in-flight window);
        * a load: ``(pc, addr, size, dep_ssn, dep_pc, dep_distance,
          ssn_cmt)``.  ``dep_ssn``/``dep_pc`` name the youngest older
          store writing any byte of the access and ``dep_distance`` is
          the number of dynamic instructions from that store to the load
          (all three 0 when no store wrote the bytes); ``ssn_cmt`` is
          ``SSNcmt`` when the load retires.  When some policy of the pass
          sets :attr:`warm_reads_svw`, load records carry two more fields,
          ``last_ssn, last_pc``: the SVW's ``last_writer(addr, size)``
          answer at that load, after every older store and before any
          younger one.

        A load *would forward* when its writer is within ``window``
        dynamic instructions (the ROB size) and within ``sq_size``
        committed stores: the store would plausibly still have been in
        the SQ of the detailed machine.  Policies use that signal to train
        their predictors the way detailed-mode forwardings and violations
        would have.

        The SVW tables are not the fold's business: the warmer updates
        them once per store in its shared pass, for every policy.  The
        fold reads only the records and the policy's predictor tables, so
        policies with equal :meth:`warm_class_key` end a fold in equal
        states, and the warmer folds one of them per class
        (:meth:`adopt_warm_state`).  The base policy trains nothing.
        """

    def warm_class_key(self) -> tuple:
        """What :meth:`warm_segment` reads besides the records.

        Policies with equal keys form one *warm class*: from equal states,
        their folds over the same records leave equal predictor tables
        and counters, so the warmer folds one representative and the
        others adopt its state.  The key holds the policy type, the SQ
        size and every predictor config (SVW included).  Scheduling mode
        and SQ latency never enter warming, so they stay out; a subclass
        whose fold reads more must add it.
        """
        return (type(self), self.sq_size, self.predictor_config)

    def adopt_warm_state(self, representative: "SQPolicy") -> None:
        """Take over the state ``representative``'s warming fold trained.

        ``representative`` is in this policy's warm class and trains at
        least what this policy holds (:func:`warm_classes` picks it).  The
        tables are copied into this policy's own structures, so the two
        stay independent.  The SVW is not copied here: the warmer shares
        it per SVW config (:meth:`~repro.core.svw.SVWFilter.copy_from`).
        """
        self.stats = replace(representative.stats)

    # -- state snapshots --------------------------------------------------------

    def state_signature(self) -> tuple:
        """Hashable snapshot of the policy's long-lived predictor state.

        Subclasses extend the tuple with their own structures; the
        checkpoint round-trip tests assert that serialising and re-importing
        warmed state preserves the signature exactly.
        """
        return (self.name, self.svw.state_signature())

    # -- wrap handling ----------------------------------------------------------

    def clear_ssn_state(self) -> None:
        """Clear all structures that hold SSNs (hardware SSN wrap event)."""
        self.svw.clear()


def warm_classes(policies: Sequence[SQPolicy]) -> List[List[SQPolicy]]:
    """Group ``policies`` by :meth:`SQPolicy.warm_class_key`.

    Classes come in order of first appearance; within a class the
    policies keep their order, except that one that trains its DDP
    (:attr:`SQPolicy.use_delay`) comes first.  The first member is the
    class *representative*: its fold trains every table any member
    holds.  A policy passed twice is listed once.
    """
    classes: Dict[tuple, List[SQPolicy]] = {}
    for policy in policies:
        members = classes.setdefault(policy.warm_class_key(), [])
        if not any(member is policy for member in members):
            members.append(policy)
    for members in classes.values():
        members.sort(key=lambda policy: not policy.use_delay)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Oracle-scheduled associative SQ (the idealised Figure 4 baseline)
# ---------------------------------------------------------------------------

class OracleAssociativePolicy(SQPolicy):
    """Ideal associative SQ with oracle load scheduling.

    The load waits exactly until the store it actually depends on (the
    youngest older store writing its address) has executed, then performs an
    associative search.  There are no forwarding mis-predictions and no
    unnecessary delays; this is the configuration every Figure 4 bar is
    normalised against.
    """

    name = "oracle-associative-3"

    def __init__(self, sq_size: int = 64, sq_latency: int = 3,
                 predictors: Optional[PredictorSuiteConfig] = None) -> None:
        super().__init__(sq_size=sq_size, predictors=predictors)
        self.sq_latency = sq_latency

    def predict_load(self, load_pc: int, ssn_ren: int, ssn_cmt: int,
                     oracle_dep_ssn: int = 0) -> LoadPrediction:
        self.stats.loads_predicted += 1
        if not oracle_dep_ssn:
            return _NO_PREDICTION
        return LoadPrediction(fwd_ssn=oracle_dep_ssn, predict_forward=oracle_dep_ssn > ssn_cmt)

    def forward(self, addr: int, size: int, older_than_ssn: int,
                prediction: LoadPrediction, store_queue: StoreQueue) -> ForwardDecision:
        return _associative_forward(store_queue, addr, size, older_than_ssn)


# ---------------------------------------------------------------------------
# Associative SQ with Store Sets scheduling (realistic baselines)
# ---------------------------------------------------------------------------

class AssociativeStoreSetsPolicy(SQPolicy):
    """Associative SQ scheduled by Store Sets.

    ``formulation='reformulated'`` uses the paper's FSP/SAT (PC/SSN) version
    of Store Sets; ``formulation='original'`` uses the SSIT/LFST version
    (first row of Table 1).  ``scheduling`` controls how the 5-cycle variant
    wakes dependants:

    * ``'optimistic'`` — assume cache latency for every load; forwarding
      causes dependant replays,
    * ``'predictive'`` — use the dependence predictor to guess whether the
      load forwards and assume the SQ latency for predicted-forwarding loads.
    """

    def __init__(self, sq_size: int = 64, sq_latency: int = 3,
                 scheduling: str = "predictive", formulation: str = "reformulated",
                 predictors: Optional[PredictorSuiteConfig] = None) -> None:
        super().__init__(sq_size=sq_size, predictors=predictors)
        if scheduling not in ("optimistic", "predictive"):
            raise ValueError(f"unknown scheduling mode {scheduling!r}")
        if formulation not in ("original", "reformulated"):
            raise ValueError(f"unknown Store Sets formulation {formulation!r}")
        self.sq_latency = sq_latency
        self.scheduling = scheduling
        self.formulation = formulation
        self.name = f"associative-{sq_latency}-{scheduling}"
        self.fsp = ForwardingStorePredictor(self.predictor_config.fsp)
        self.sat = StoreAliasTable(self.predictor_config.sat)
        self.store_sets = StoreSetsPredictor(self.predictor_config.store_sets)
        # Original-formulation only: store SSN -> SSN of the previous store in
        # its set (captured at rename time, consumed by store_dependence()).
        self._store_set_deps: dict = {}

    # -- decode / rename --------------------------------------------------------

    def predict_load(self, load_pc: int, ssn_ren: int, ssn_cmt: int,
                     oracle_dep_ssn: int = 0) -> LoadPrediction:
        self.stats.loads_predicted += 1
        if self.formulation == "original":
            ssn = self.store_sets.load_renamed(load_pc) or 0
            if not ssn:
                return _NO_PREDICTION
            predict_forward = ssn > ssn_cmt
            if predict_forward:
                self.stats.loads_predicted_forwarding += 1
            return LoadPrediction(fwd_ssn=ssn, predict_forward=predict_forward)

        best_ssn, best_pc = _fsp_sat_predict(self.fsp, self.sat, load_pc)
        if not best_ssn:
            return _NO_PREDICTION
        predict_forward = best_ssn > ssn_cmt
        if predict_forward:
            self.stats.loads_predicted_forwarding += 1
        return LoadPrediction(fwd_ssn=best_ssn, predicted_store_pc=best_pc,
                              predict_forward=predict_forward)

    def store_renamed(self, store_pc: int, ssn: int) -> Optional[SATUndoRecord]:
        if self.formulation == "original":
            previous = self.store_sets.store_renamed(store_pc, ssn)
            self._store_set_deps[ssn] = previous or 0
            return None
        return self.sat.update(store_pc, ssn)

    def store_squashed(self, store_pc: int, ssn: int, token: Optional[SATUndoRecord]) -> None:
        if self.formulation == "original":
            self.store_sets.store_squashed(
                store_pc, ssn, self._store_set_deps.pop(ssn, 0))
        if token is not None and self.predictor_config.sat.repair == "log":
            self.sat.undo(token)

    def store_dependence(self, store_pc: int, ssn: int) -> int:
        """Original Store Sets serialises stores within a set: the previous
        store of the set, if it is strictly older than this one."""
        if self.formulation != "original":
            return 0
        previous = self._store_set_deps.get(ssn, 0)
        return previous if previous < ssn else 0

    # -- execute ----------------------------------------------------------------

    def assumed_load_latency(self, prediction: LoadPrediction, l1_latency: int) -> int:
        if self.sq_latency <= l1_latency:
            return l1_latency
        if self.scheduling == "predictive" and prediction.predict_forward:
            return self.sq_latency
        return l1_latency

    def forward(self, addr: int, size: int, older_than_ssn: int,
                prediction: LoadPrediction, store_queue: StoreQueue) -> ForwardDecision:
        return _associative_forward(store_queue, addr, size, older_than_ssn)

    # -- commit -----------------------------------------------------------------

    def store_committed(self, store_pc: int, ssn: int, addr: int, size: int) -> None:
        super().store_committed(store_pc, ssn, addr, size)
        if self.formulation == "original":
            self.store_sets.store_committed(store_pc, ssn)

    def load_committed(self, info: LoadCommitInfo) -> None:
        """Train the scheduler only when re-execution found a violation
        (Table 1, first and second configurations)."""
        if not info.violation:
            return
        last_pc = info.last_pc
        if last_pc == 0:
            return
        if self.formulation == "original":
            self.store_sets.train_violation(info.pc, last_pc)
        else:
            self.fsp.insert(info.pc, last_pc)

    # -- functional warming ------------------------------------------------------

    def warm_segment(self, records: Sequence[tuple], window: int) -> None:
        """Update the SAT (or SSIT/LFST) per store, and learn the
        dependences detailed-mode violations would have taught.

        In detailed mode this policy trains only when re-execution catches
        a violation, i.e. on loads whose producing store was in flight and
        unpredicted.  Would-forward loads (see :meth:`SQPolicy.warm_segment`)
        identify exactly those during functional replay, so the warmed
        tables converge to the same dependence set without simulating the
        violations.  No per-store undo bookkeeping is kept: stores retire
        at once.
        """
        sq_size = self.sq_size
        if self.formulation == "original":
            store_sets = self.store_sets
            renamed = store_sets.store_renamed
            committed = store_sets.store_committed
            train = store_sets.train_violation
        else:
            renamed = self.sat.update
            committed = None
            train = self.fsp.strengthen
        for record in records:
            if len(record) == 4:
                pc, ssn, _, _ = record
                renamed(pc, ssn)
                if committed is not None:
                    committed(pc, ssn)
            else:
                # Indexed: a load record may carry the SVW answer too.
                pc, dep_ssn, dep_pc = record[0], record[3], record[4]
                if dep_pc and record[5] < window \
                        and record[6] - dep_ssn < sq_size:
                    train(pc, dep_pc)

    def warm_class_key(self) -> tuple:
        return super().warm_class_key() + (self.formulation,)

    def adopt_warm_state(self, representative: "SQPolicy") -> None:
        super().adopt_warm_state(representative)
        self.fsp.copy_from(representative.fsp)
        self.sat.copy_from(representative.sat)
        self.store_sets.copy_from(representative.store_sets)

    def clear_ssn_state(self) -> None:
        super().clear_ssn_state()
        self.sat.clear()

    def state_signature(self) -> tuple:
        if self.formulation == "original":
            return super().state_signature() + (
                self.store_sets.ssit_signature(),)
        return super().state_signature() + (
            self.fsp.state_signature(), self.sat.state_signature())


# ---------------------------------------------------------------------------
# The paper's contribution: the speculative indexed SQ
# ---------------------------------------------------------------------------

class IndexedSQPolicy(SQPolicy):
    """Speculative indexed SQ access via FSP/SAT, optionally guarded by the DDP.

    ``use_delay=False`` corresponds to the ``indexed-3-fwd`` configuration in
    Figure 4 and the ``Fwd`` column of Table 3; ``use_delay=True`` adds the
    delay index predictor (``indexed-3-fwd+dly`` / ``Fwd+Dly``).
    """

    def __init__(self, sq_size: int = 64, sq_latency: int = 2, use_delay: bool = True,
                 predictors: Optional[PredictorSuiteConfig] = None) -> None:
        super().__init__(sq_size=sq_size, predictors=predictors)
        self.sq_latency = sq_latency
        self.use_delay = use_delay
        self.name = "indexed-3-fwd+dly" if use_delay else "indexed-3-fwd"
        self.fsp = ForwardingStorePredictor(self.predictor_config.fsp)
        self.sat = StoreAliasTable(self.predictor_config.sat)
        self.ddp = DelayDistancePredictor(self.predictor_config.ddp, sq_size=sq_size)

    # -- decode / rename --------------------------------------------------------

    def predict_load(self, load_pc: int, ssn_ren: int, ssn_cmt: int,
                     oracle_dep_ssn: int = 0) -> LoadPrediction:
        self.stats.loads_predicted += 1
        best_ssn, best_pc = _fsp_sat_predict(self.fsp, self.sat, load_pc)
        predict_forward = best_ssn > ssn_cmt
        if predict_forward:
            self.stats.loads_predicted_forwarding += 1

        dly_ssn = 0
        if self.use_delay:
            dly_ssn = self.ddp.delay_ssn(load_pc, ssn_ren)
            if dly_ssn > ssn_cmt:
                self.stats.delay_predictions += 1
            else:
                dly_ssn = 0

        if best_ssn == 0 and dly_ssn == 0:
            return _NO_PREDICTION
        return LoadPrediction(fwd_ssn=best_ssn, dly_ssn=dly_ssn,
                              predicted_store_pc=best_pc, predict_forward=predict_forward)

    def store_renamed(self, store_pc: int, ssn: int) -> Optional[SATUndoRecord]:
        return self.sat.update(store_pc, ssn)

    def store_squashed(self, store_pc: int, ssn: int, token: Optional[SATUndoRecord]) -> None:
        if token is not None and self.predictor_config.sat.repair == "log":
            self.sat.undo(token)

    # -- execute ----------------------------------------------------------------

    def forward(self, addr: int, size: int, older_than_ssn: int,
                prediction: LoadPrediction, store_queue: StoreQueue) -> ForwardDecision:
        if prediction.fwd_ssn == 0:
            return _NO_FORWARD
        entry = store_queue.read_indexed(prediction.fwd_ssn)
        if entry is None or not entry.executed or entry.addr is None:
            return _NO_FORWARD
        if entry.ssn > older_than_ssn:
            # The predicted slot now holds a *younger* store (the predicted
            # store committed and the slot was reused); forwarding from it
            # would violate program order, so the load uses the cache.
            return _NO_FORWARD
        if entry.addr != addr or size > entry.size:
            return _NO_FORWARD
        mask = (1 << (8 * size)) - 1
        return ForwardDecision(forwarded=True, value=entry.value & mask,
                               forward_ssn=entry.ssn, from_entry=entry)

    # -- commit -----------------------------------------------------------------

    def load_committed(self, info: LoadCommitInfo) -> None:
        """FSP and DDP training per Sections 3.2 and 3.3."""
        prediction = info.prediction
        self._train_load(info.pc, info.last_ssn, info.last_pc, info.forwarded,
                         info.violation, prediction.fwd_ssn,
                         prediction.predicted_store_pc, info.ssn_cmt)

    def _train_load(self, pc: int, last_ssn: int, last_pc: int,
                    forwarded: bool, violation: bool, fwd_ssn: int,
                    predicted_pc: Optional[int], ssn_cmt: int) -> None:
        """The commit-time training rules, shared by detailed commit
        (:meth:`load_committed`) and functional warming
        (:meth:`warm_segment`).

        ``last_ssn``/``last_pc`` are the SVW's youngest committed writer of
        the load's bytes (:meth:`~repro.core.svw.SVWFilter.last_writer`);
        ``fwd_ssn``/``predicted_pc`` are the load's rename-time prediction
        (``SSNfwd`` and the FSP's partial store PC, ``None`` on a miss).
        """
        fsp = self.fsp
        distance = ssn_cmt - last_ssn
        could_forward = last_ssn > 0 and distance < self.sq_size
        predicted_pc_correct = (predicted_pc is not None and last_pc != 0 and
                                predicted_pc == fsp.partial_store_pc(last_pc))

        if predicted_pc_correct:
            self.stats.fsp_correct_pc += 1
        elif predicted_pc is not None:
            self.stats.fsp_wrong_pc += 1

        # ---- FSP training -----------------------------------------------------
        # Section 3.2: learn dependences on correct forwarding (reinforce) and
        # on mis-forwardings where even the store PC was unpredicted (create
        # new dependences); unlearn when the dependence cannot be useful
        # (writer further away than the SQ) or when the store PC is right but
        # the dynamic instance is not (not-most-recent forwarding).  New
        # dependences are created only from *violations* so that SSBF/SPCT
        # aliasing on non-forwarding loads cannot poison the predictor.
        if forwarded and not violation:
            # Correct forwarding: reinforce the dependence known to be useful.
            if last_pc != 0:
                fsp.strengthen(pc, last_pc)
        elif violation and not predicted_pc_correct and last_pc != 0:
            # Mis-forwarding where we failed to predict even the store PC:
            # create a new, potentially useful dependence.
            fsp.insert(pc, last_pc)
        elif violation and predicted_pc_correct:
            # Right store PC, wrong dynamic instance *and* it cost a flush:
            # reinforce anyway (the dependence is real) — the delay predictor
            # is the mechanism that prevents the next flush.
            fsp.strengthen(pc, last_pc)
        elif (predicted_pc_correct and not forwarded and could_forward
              and fwd_ssn != last_ssn):
            # Correct store PC but wrong dynamic instance (not-most-recent
            # forwarding): there is no point waiting on the predicted
            # instance, so unlearn.
            fsp.weaken(pc, last_pc)
        elif predicted_pc is not None and not could_forward:
            # The load and the most recent store to its address are further
            # apart than the SQ: no forwarding is possible, unlearn so the
            # load stops waiting on its predicted store.
            fsp.weaken_all(pc)

        # ---- DDP training -----------------------------------------------------
        if not self.use_delay:
            return
        # A load is a candidate for delay only if it is "difficult": it either
        # flushed (mis-forwarding) or it carried a forwarding prediction that
        # named the wrong dynamic store.  Loads with no prediction and no
        # violation are left alone — SSBF aliasing would otherwise make every
        # streaming load look like it had a nearby writer.
        wrong_prediction = fwd_ssn != last_ssn
        if violation or (fwd_ssn != 0 and wrong_prediction):
            self.ddp.train_wrong_prediction(pc, max(distance, 0))
        elif not wrong_prediction:
            self.ddp.train_correct_prediction(pc)

    # -- functional warming ------------------------------------------------------

    warm_reads_svw = True

    def warm_segment(self, records: Sequence[tuple], window: int) -> None:
        """FSP/DDP warming through the *detailed* prediction and training
        rules.

        Each load is predicted as at rename (the FSP -> SAT walk and the
        DDP lookup, with ``SSNren == SSNcmt`` since stores retire at
        once), then trained as at commit by :meth:`_train_load`, with
        ``forwarded`` approximated by the would-forward signal (see
        :meth:`SQPolicy.warm_segment`), no violation (functional replay
        cannot mis-speculate) and the record's SVW answer.  Strengthening
        *and* the weakening rules (not-most-recent instances, writers
        further away than the SQ) therefore apply exactly as in detailed
        mode, which keeps the warmed FSP from over-predicting; new
        dependences are created because ``strengthen`` inserts on a miss,
        standing in for the violation-driven inserts of detailed mode.
        Stores update the SAT.
        """
        sat_update = self.sat.update
        fsp = self.fsp
        sat = self.sat
        delay_ssn = self.ddp.delay_ssn if self.use_delay else None
        train = self._train_load
        sq_size = self.sq_size
        loads = predicted_forwarding = delays = 0
        for record in records:
            if len(record) == 4:
                pc, ssn, _, _ = record
                sat_update(pc, ssn)
                continue
            (pc, _, _, dep_ssn, _, dep_distance, ssn_cmt, last_ssn,
             last_pc) = record
            loads += 1
            best_ssn, best_pc = _fsp_sat_predict(fsp, sat, pc)
            if best_ssn > ssn_cmt:
                predicted_forwarding += 1
            if delay_ssn is not None and delay_ssn(pc, ssn_cmt) > ssn_cmt:
                delays += 1
            forwarded = (dep_ssn != 0 and dep_distance < window
                         and ssn_cmt - dep_ssn < sq_size)
            train(pc, last_ssn, last_pc, forwarded, False, best_ssn, best_pc,
                  ssn_cmt)
        # predict_load's counters, added once per segment.
        stats = self.stats
        stats.loads_predicted += loads
        stats.loads_predicted_forwarding += predicted_forwarding
        stats.delay_predictions += delays

    def adopt_warm_state(self, representative: "SQPolicy") -> None:
        """Take over the FSP/SAT and counters; the DDP and its
        ``delay_predictions`` only when this policy delays loads (an
        ``indexed-3-fwd`` member keeps its fresh DDP and its own count)."""
        delay_predictions = self.stats.delay_predictions
        super().adopt_warm_state(representative)
        self.fsp.copy_from(representative.fsp)
        self.sat.copy_from(representative.sat)
        if self.use_delay:
            self.ddp.copy_from(representative.ddp)
        else:
            self.stats.delay_predictions = delay_predictions

    def clear_ssn_state(self) -> None:
        super().clear_ssn_state()
        self.sat.clear()

    def state_signature(self) -> tuple:
        return super().state_signature() + (
            self.fsp.state_signature(), self.sat.state_signature(),
            self.ddp.state_signature())
