"""Delay Distance Predictor (DDP).

Section 3.3: the DDP maps each static load to the distance (in dynamic
stores) between the load and the closest older store that causes its
mis-forwardings.  It is a tagged, PC-indexed, set-associative table; each
entry has a valid bit, partial tag, saturating counter, and two distance
fields.  The counter decides whether a load should be delayed at all; the
distance is used at rename to compute ``SSNdly = SSNren - Ddly``; the load
then waits until the store with that SSN has committed.

Training (all at load commit):

* On a *wrong forwarding prediction* the counter is incremented and a delay
  distance equal to ``SSNcmt - SSBF[load.addr]`` is learned, but only if it
  is smaller than the currently known distance (conservatively preserving
  information about previous delays).
* On a *correct forwarding prediction* the counter is decremented.
* To allow distances to be unlearned (not just the delay-or-not decision),
  each entry has a second "future" distance field trained in parallel; every
  ``future_interval`` (8) load instances the current field is replaced by the
  future field and the future field is reset.

Distances are clamped to the SQ size: any delay distance larger than the SQ
is effectively no delay at all (the store is guaranteed to have committed by
the time the load could possibly execute).

The table is sparse, laid out like the FSP's: ``_sets`` maps a set index to
that set's list of ``assoc`` ways, and a set is created (all ways invalid, in
way order) on its first insert.  A set that was never written behaves
exactly like one whose ways are all invalid: lookups skip invalid ways,
``_insert`` takes the first invalid way (else the minimum-``(counter, lru)``
victim in way order), and ``state_signature`` lists only valid entries.  So
only the sets a run touches are built, snapshotted, and loaded back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.predictors import DDPConfig


@dataclass(slots=True)
class DDPEntry:
    """One DDP entry."""

    valid: bool = False
    tag: int = 0
    counter: int = 0
    current_distance: int = 0
    future_distance: int = 0
    instances: int = 0
    lru: int = 0


@dataclass(slots=True)
class DDPStats:
    """DDP activity counters."""

    lookups: int = 0
    hits: int = 0
    delays_predicted: int = 0
    learns: int = 0
    unlearns: int = 0
    inserts: int = 0
    evictions: int = 0
    promotions: int = 0


class DelayDistancePredictor:
    """Tagged, PC-indexed load-delay-distance predictor.

    ``_sets`` holds only the sets that have been inserted into (set index ->
    ``assoc`` ways); reads use ``_sets.get(index, ())``, so a prediction
    never creates a set.
    """

    def __init__(self, config: Optional[DDPConfig] = None, sq_size: int = 64) -> None:
        self.config = config or DDPConfig()
        if sq_size <= 0 or sq_size & (sq_size - 1):
            raise ValueError("SQ size must be a positive power of two")
        self.sq_size = sq_size
        self.stats = DDPStats()
        self._sets: Dict[int, List[DDPEntry]] = {}
        self._set_mask = self.config.sets - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._counter_max = (1 << self.config.counter_bits) - 1
        self._no_delay_distance = sq_size  # "distance >= SQ size" means no delay
        self._tag_shift = self.config.sets.bit_length() - 1
        self._lru_clock = 0

    # -- indexing ---------------------------------------------------------------

    def _index(self, load_pc: int) -> int:
        return (load_pc >> 2) & self._set_mask

    def _tag(self, load_pc: int) -> int:
        return ((load_pc >> 2) >> self._tag_shift) & self._tag_mask

    def _find(self, load_pc: int) -> Optional[DDPEntry]:
        pc = load_pc >> 2
        tag = (pc >> self._tag_shift) & self._tag_mask
        for entry in self._sets.get(pc & self._set_mask, ()):
            if entry.valid and entry.tag == tag:
                return entry
        return None

    # -- prediction -------------------------------------------------------------

    def predict_distance(self, load_pc: int) -> Optional[int]:
        """Delay distance for this load, or ``None`` for no delay.

        ``None`` is returned when the load has no DDP entry, its counter is
        below threshold, or its learned distance is at least the SQ size
        (which can impose no effective delay).
        """
        self.stats.lookups += 1
        entry = self._find(load_pc)
        if entry is None:
            return None
        self.stats.hits += 1
        if entry.counter < self.config.counter_threshold:
            return None
        if entry.current_distance >= self._no_delay_distance:
            return None
        self.stats.delays_predicted += 1
        return entry.current_distance

    def delay_ssn(self, load_pc: int, ssn_rename: int) -> int:
        """``SSNdly`` for a load renamed when ``SSNren == ssn_rename``.

        Returns 0 (no delay) when the predictor does not delay this load.
        """
        distance = self.predict_distance(load_pc)
        if distance is None:
            return 0
        ssn_dly = ssn_rename - distance
        return max(ssn_dly, 0)

    # -- training ---------------------------------------------------------------

    def train_wrong_prediction(self, load_pc: int, observed_distance: int) -> None:
        """Train on a wrong forwarding prediction.

        ``observed_distance`` is ``SSNcmt - SSBF[load.addr]`` computed at load
        commit: the distance (in dynamic stores) from the load's commit point
        back to the actual most recent store to its address.
        """
        observed_distance = max(0, min(observed_distance, self._no_delay_distance))
        entry = self._find(load_pc)
        if entry is None:
            self._insert(load_pc, observed_distance)
            return
        self.stats.learns += 1
        entry.counter = min(self._counter_max, entry.counter + self.config.positive_weight)
        # Conservatively keep the smallest (most conservative) distance.
        if observed_distance < entry.current_distance:
            entry.current_distance = observed_distance
        if observed_distance < entry.future_distance:
            entry.future_distance = observed_distance
        self._tick(entry)

    def train_correct_prediction(self, load_pc: int) -> None:
        """Train on a correct forwarding prediction (decrement the counter)."""
        entry = self._find(load_pc)
        if entry is None:
            return
        self.stats.unlearns += 1
        entry.counter = max(0, entry.counter - self.config.negative_weight)
        self._tick(entry)

    def _tick(self, entry: DDPEntry) -> None:
        """Advance the per-entry instance counter; promote the future field
        every ``future_interval`` instances (distance down-training)."""
        entry.instances += 1
        if entry.instances >= self.config.future_interval:
            entry.instances = 0
            entry.current_distance = entry.future_distance
            entry.future_distance = self._no_delay_distance
            self.stats.promotions += 1

    def _insert(self, load_pc: int, distance: int) -> None:
        index = self._index(load_pc)
        tag = self._tag(load_pc)
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = [DDPEntry() for _ in range(self.config.assoc)]
        self.stats.inserts += 1
        self._lru_clock += 1
        for entry in ways:
            if not entry.valid:
                self._fill(entry, tag, distance)
                return
        victim = min(ways, key=lambda e: (e.counter, e.lru))
        self.stats.evictions += 1
        self._fill(victim, tag, distance)

    def _fill(self, entry: DDPEntry, tag: int, distance: int) -> None:
        entry.valid = True
        entry.tag = tag
        entry.counter = min(self._counter_max, self.config.positive_weight)
        entry.current_distance = distance
        entry.future_distance = distance
        entry.instances = 0
        entry.lru = self._lru_clock

    # -- maintenance ------------------------------------------------------------

    def invalidate_all(self) -> None:
        """Clear the predictor (dropping every set: an absent set is an
        all-invalid one)."""
        self._sets.clear()

    def copy_from(self, other: "DelayDistancePredictor") -> None:
        """Take over ``other``'s entries, LRU clock and counters (same
        geometry; entries are copied, as :meth:`ForwardingStorePredictor.copy_from`
        does)."""
        self._sets = {index: [DDPEntry(e.valid, e.tag, e.counter,
                                       e.current_distance, e.future_distance,
                                       e.instances, e.lru)
                              for e in ways]
                      for index, ways in other._sets.items()}
        self._lru_clock = other._lru_clock
        self.stats = replace(other.stats)

    def occupancy(self) -> int:
        return sum(1 for ways in self._sets.values() for e in ways if e.valid)

    def state_signature(self) -> frozenset:
        """The set of (set index, tag, current distance) delays held
        (counters/LRU excluded; see the FSP's ``state_signature``)."""
        return frozenset(
            (index, entry.tag, entry.current_distance)
            for index, ways in self._sets.items()
            for entry in ways if entry.valid)

    def storage_bits(self) -> int:
        """Approximate storage cost in bits (two distances + counter + tag)."""
        distance_bits = (self.sq_size - 1).bit_length()
        per_entry = 1 + self.config.tag_bits + self.config.counter_bits + 2 * distance_bits
        return per_entry * self.config.entries
