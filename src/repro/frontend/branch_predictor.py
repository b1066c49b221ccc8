"""Branch direction predictors.

Implements a bimodal table and a gshare table of saturating counters, and
the hybrid (chooser-based) combination used by the paper's baseline
processor.  The pipeline queries the predictor at fetch and updates it at
branch resolution; a misprediction redirects the front end after the branch
executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Sizes of the hybrid predictor components (paper defaults)."""

    bimodal_entries: int = 4096
    gshare_entries: int = 4096
    chooser_entries: int = 4096
    history_bits: int = 12
    counter_bits: int = 2

    def __post_init__(self) -> None:
        for n in (self.bimodal_entries, self.gshare_entries, self.chooser_entries):
            if n <= 0 or n & (n - 1):
                raise ValueError("predictor table sizes must be powers of two")
        if not 1 <= self.history_bits <= 32:
            raise ValueError("history bits must be between 1 and 32")


class _CounterTable:
    """A table of two-bit counters stored as plain integers for speed."""

    def __init__(self, entries: int, bits: int) -> None:
        self._mask = entries - 1
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        self._table: List[int] = [self._threshold] * entries

    def predict(self, index: int) -> bool:
        return self._table[index & self._mask] >= self._threshold

    def update(self, index: int, taken: bool) -> None:
        i = index & self._mask
        v = self._table[i]
        if taken:
            if v < self._max:
                self._table[i] = v + 1
        elif v > 0:
            self._table[i] = v - 1

    def copy(self) -> "_CounterTable":
        clone = _CounterTable.__new__(_CounterTable)
        clone._mask = self._mask
        clone._max = self._max
        clone._threshold = self._threshold
        clone._table = self._table[:]
        return clone

    def state_signature(self) -> tuple:
        """Hashable snapshot of the counter values."""
        return tuple(self._table)


class BimodalPredictor:
    """PC-indexed table of saturating counters."""

    def __init__(self, entries: int = 4096, counter_bits: int = 2) -> None:
        self._table = _CounterTable(entries, counter_bits)

    def predict(self, pc: int) -> bool:
        return self._table.predict(pc >> 2)

    def update(self, pc: int, taken: bool) -> None:
        self._table.update(pc >> 2, taken)

    def copy(self) -> "BimodalPredictor":
        clone = BimodalPredictor.__new__(BimodalPredictor)
        clone._table = self._table.copy()
        return clone

    def state_signature(self) -> tuple:
        return self._table.state_signature()


class GSharePredictor:
    """Global-history-XOR-PC indexed table of saturating counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 12, counter_bits: int = 2) -> None:
        self._table = _CounterTable(entries, counter_bits)
        self._history_mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) ^ self.history

    def predict(self, pc: int) -> bool:
        return self._table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self._table.update(self._index(pc), taken)
        self.history = ((self.history << 1) | int(taken)) & self._history_mask

    def copy(self) -> "GSharePredictor":
        clone = GSharePredictor.__new__(GSharePredictor)
        clone._table = self._table.copy()
        clone._history_mask = self._history_mask
        clone.history = self.history
        return clone

    def state_signature(self) -> tuple:
        return (self._table.state_signature(), self.history)


class HybridPredictor:
    """gshare/bimodal hybrid with a PC-indexed chooser.

    The chooser counter selects between the component predictions; it is
    trained toward whichever component was correct when they disagree.
    """

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        self.config = config or BranchPredictorConfig()
        self.bimodal = BimodalPredictor(self.config.bimodal_entries, self.config.counter_bits)
        self.gshare = GSharePredictor(self.config.gshare_entries, self.config.history_bits,
                                      self.config.counter_bits)
        self._chooser = _CounterTable(self.config.chooser_entries, self.config.counter_bits)

    def predict(self, pc: int) -> bool:
        use_gshare = self._chooser.predict(pc >> 2)
        return self.gshare.predict(pc) if use_gshare else self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_pred = self.bimodal.predict(pc)
        gshare_pred = self.gshare.predict(pc)
        if bimodal_pred != gshare_pred:
            # Train the chooser toward the component that was right.
            self._chooser.update(pc >> 2, gshare_pred == taken)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)

    def resolve(self, pc: int, taken: bool) -> bool:
        """Fused :meth:`predict` + :meth:`update` for the resolve-immediately
        pipeline: the component predictions are computed once and reused for
        both the hybrid choice and the chooser training (bit-identical to
        the split calls, which recompute them from unchanged state).  The
        three counter lists are read and written directly, with the
        saturation rules of :meth:`_CounterTable.update`."""
        word = pc >> 2
        bimodal = self.bimodal._table
        gshare = self.gshare
        gshare_table = gshare._table
        bimodal_counters = bimodal._table
        gshare_counters = gshare_table._table
        bi = word & bimodal._mask
        gi = (word ^ gshare.history) & gshare_table._mask
        bv = bimodal_counters[bi]
        gv = gshare_counters[gi]
        bimodal_pred = bv >= bimodal._threshold
        gshare_pred = gv >= gshare_table._threshold
        if bimodal_pred == gshare_pred:
            predicted = bimodal_pred
        else:
            chooser = self._chooser
            chooser_counters = chooser._table
            ci = word & chooser._mask
            cv = chooser_counters[ci]
            predicted = gshare_pred if cv >= chooser._threshold else bimodal_pred
            # Train the chooser toward the component that was right.
            if gshare_pred == taken:
                if cv < chooser._max:
                    chooser_counters[ci] = cv + 1
            elif cv > 0:
                chooser_counters[ci] = cv - 1
        if taken:
            if bv < bimodal._max:
                bimodal_counters[bi] = bv + 1
            if gv < gshare_table._max:
                gshare_counters[gi] = gv + 1
            gshare.history = ((gshare.history << 1) | 1) & gshare._history_mask
        else:
            if bv > 0:
                bimodal_counters[bi] = bv - 1
            if gv > 0:
                gshare_counters[gi] = gv - 1
            gshare.history = (gshare.history << 1) & gshare._history_mask
        return predicted

    def copy(self) -> "HybridPredictor":
        clone = HybridPredictor.__new__(HybridPredictor)
        clone.config = self.config
        clone.bimodal = self.bimodal.copy()
        clone.gshare = self.gshare.copy()
        clone._chooser = self._chooser.copy()
        return clone

    def state_signature(self) -> tuple:
        """Hashable snapshot of all three component tables."""
        return (self.bimodal.state_signature(),
                self.gshare.state_signature(),
                self._chooser.state_signature())


class BranchUnit:
    """Front-end branch handling façade.

    Combines the hybrid direction predictor, BTB, and RAS into a single
    ``predict``/``resolve`` interface.  The pipeline treats a branch as
    mispredicted when either the predicted direction is wrong or a taken
    branch misses in the BTB (no target available at fetch).
    """

    def __init__(self, config: BranchPredictorConfig | None = None) -> None:
        # Imported here to avoid a circular import at package load time.
        from repro.frontend.btb import BranchTargetBuffer
        from repro.frontend.ras import ReturnAddressStack

        self.direction = HybridPredictor(config)
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        self.predictions = 0
        self.mispredictions = 0
        self.btb_misses = 0

    def predict_and_resolve(self, pc: int, taken: bool, target: int | None,
                            is_call: bool = False, is_return: bool = False) -> bool:
        """Predict a branch and immediately resolve it against the trace.

        Returns True when the branch was *mispredicted* (direction wrong, or
        taken with no BTB/RAS-supplied target).  The structures are updated
        with the actual outcome, so a subsequent instance of the same branch
        sees trained state.
        """
        self.predictions += 1
        mispredicted = False

        # The direction predictor is consulted and trained in one fused pass
        # (prediction from pre-update state, exactly as the split calls did).
        predicted_taken = self.direction.resolve(pc, taken)

        if is_return:
            predicted_target = self.ras.pop()
            if not taken:
                mispredicted = predicted_taken
            else:
                mispredicted = predicted_target != target
        else:
            if predicted_taken != taken:
                mispredicted = True
            elif taken:
                predicted_target = self.btb.lookup(pc)
                if predicted_target is None or (target is not None and predicted_target != target):
                    self.btb_misses += 1
                    mispredicted = True

        if taken and target is not None:
            self.btb.insert(pc, target)
        if is_call:
            self.ras.push(pc + 4)

        if mispredicted:
            self.mispredictions += 1
        return mispredicted

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0

    def reset_stats(self) -> None:
        """Reset the activity counters, keeping all predictive state warm.

        Used when functionally warmed state is imported into a detailed
        core so per-interval reports cover only their own predictions.
        """
        self.predictions = 0
        self.mispredictions = 0
        self.btb_misses = 0

    def copy(self) -> "BranchUnit":
        """An exact copy (direction tables, BTB, RAS and counters) that
        shares no mutable state with this unit."""
        clone = BranchUnit.__new__(BranchUnit)
        clone.direction = self.direction.copy()
        clone.btb = self.btb.copy()
        clone.ras = self.ras.copy()
        clone.predictions = self.predictions
        clone.mispredictions = self.mispredictions
        clone.btb_misses = self.btb_misses
        return clone

    def direction_state_signature(self) -> tuple:
        """Hashable snapshot of the direction-predictor tables (tests use
        this to compare functionally warmed state against detailed state)."""
        return self.direction.state_signature()

    def state_signature(self) -> tuple:
        """Hashable snapshot of the whole front end (direction + BTB + RAS);
        used to assert checkpoint export/import round trips are exact."""
        return (self.direction.state_signature(),
                self.btb.state_signature(),
                self.ras.state_signature())
