"""Configuration dataclasses for the prediction structures.

Defaults follow Section 4.1 of the paper: 4K-entry 2-way FSP and DDP, a
256-entry untagged SAT, a 2K-entry byte-granularity SSBF and SPCT, 16-bit
SSNs, an FSP positive:negative training ratio of 8:1 and a DDP ratio of 4:1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _require_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class FSPConfig:
    """Forwarding Store Predictor configuration.

    Attributes
    ----------
    entries:
        Total number of entries (sets * associativity).
    assoc:
        Set associativity; also the maximum number of store dependences a
        single load can represent (Section 3.2).
    tag_bits:
        Width of the partial tag stored per entry (1 byte in the paper).
    store_pc_bits:
        Width of the partial store PC stored per entry.  The paper stores
        1 byte because the SAT is indexed with only 8 bits.
    counter_bits:
        Width of the per-entry saturating counter.
    positive_weight / negative_weight:
        Training ratio: a positive (learning) event moves the counter up by
        ``positive_weight`` while a negative (unlearning) event moves it down
        by ``negative_weight``.  The paper's default ratio is 8:1.
    """

    entries: int = 4096
    assoc: int = 2
    tag_bits: int = 8
    store_pc_bits: int = 8
    counter_bits: int = 4
    positive_weight: int = 8
    negative_weight: int = 1

    def __post_init__(self) -> None:
        _require_power_of_two("FSP entries", self.entries)
        if self.assoc <= 0 or self.entries % self.assoc != 0:
            raise ValueError("FSP associativity must divide the entry count")
        _require_power_of_two("FSP sets", self.entries // self.assoc)
        if self.counter_bits < 1:
            raise ValueError("FSP counter must have at least one bit")
        if self.positive_weight < 0 or self.negative_weight < 0:
            raise ValueError("training weights must be non-negative")

    @property
    def sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class SATConfig:
    """Store Alias Table configuration.

    The SAT is untagged and indexed by a partial store PC; the paper uses
    256 entries (8 index bits).  Flush repair is by undo log (``"log"``,
    exact) or off (``"none"``); see :mod:`repro.core.sat`.
    """

    entries: int = 256
    repair: str = "log"  # one of "log", "none"

    def __post_init__(self) -> None:
        _require_power_of_two("SAT entries", self.entries)
        if self.repair not in ("log", "none"):
            raise ValueError(f"unknown SAT repair mode {self.repair!r}")


@dataclass(frozen=True)
class DDPConfig:
    """Delay Distance Predictor configuration.

    ``positive_weight``/``negative_weight`` encode the training ratio studied
    in Figure 5 (bottom); the paper's default is 4:1.  ``future_interval`` is
    the number of load instances between promotions of the "future" distance
    field into the "current" field (8 in the paper), which allows delay
    distances to be unlearned.
    """

    entries: int = 4096
    assoc: int = 2
    tag_bits: int = 8
    counter_bits: int = 4
    counter_threshold: int = 8
    positive_weight: int = 4
    negative_weight: int = 1
    future_interval: int = 8

    def __post_init__(self) -> None:
        _require_power_of_two("DDP entries", self.entries)
        if self.assoc <= 0 or self.entries % self.assoc != 0:
            raise ValueError("DDP associativity must divide the entry count")
        _require_power_of_two("DDP sets", self.entries // self.assoc)
        if self.counter_bits < 1:
            raise ValueError("DDP counter must have at least one bit")
        if not 0 <= self.counter_threshold <= (1 << self.counter_bits) - 1:
            raise ValueError("DDP counter threshold out of range")
        if self.future_interval < 1:
            raise ValueError("future interval must be at least 1")

    @property
    def sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class SVWConfig:
    """SVW filter configuration (SSBF + SPCT geometry, SSN width)."""

    ssbf_entries: int = 2048
    spct_entries: int = 2048
    ssn_bits: int = 16
    banks: int = 8

    def __post_init__(self) -> None:
        _require_power_of_two("SSBF entries", self.ssbf_entries)
        _require_power_of_two("SPCT entries", self.spct_entries)
        if not 4 <= self.ssn_bits <= 64:
            raise ValueError("SSN width must be between 4 and 64 bits")
        _require_power_of_two("SVW banks", self.banks)


@dataclass(frozen=True)
class StoreSetsConfig:
    """Original Store Sets predictor configuration (SSIT + LFST)."""

    ssit_entries: int = 1024
    lfst_entries: int = 256
    counter_bits: int = 2

    def __post_init__(self) -> None:
        _require_power_of_two("SSIT entries", self.ssit_entries)
        _require_power_of_two("LFST entries", self.lfst_entries)


@dataclass(frozen=True)
class PredictorSuiteConfig:
    """Bundle of all predictor configurations used by one SQ policy."""

    fsp: FSPConfig = field(default_factory=FSPConfig)
    sat: SATConfig = field(default_factory=SATConfig)
    ddp: DDPConfig = field(default_factory=DDPConfig)
    svw: SVWConfig = field(default_factory=SVWConfig)
    store_sets: StoreSetsConfig = field(default_factory=StoreSetsConfig)

    def scaled_fsp_ddp(self, entries: int) -> "PredictorSuiteConfig":
        """Return a copy with FSP and DDP capacity set to ``entries``.

        Used by the Figure 5 (top) capacity sweep, which varies FSP and DDP
        capacity in conjunction.
        """
        return replace(self, fsp=replace(self.fsp, entries=entries),
                       ddp=replace(self.ddp, entries=entries))

    def with_fsp_assoc(self, assoc: int) -> "PredictorSuiteConfig":
        """Return a copy with the FSP associativity changed (Figure 5 middle)."""
        return replace(self, fsp=replace(self.fsp, assoc=assoc))

    def with_ddp_ratio(self, positive: int, negative: int) -> "PredictorSuiteConfig":
        """Return a copy with the DDP training ratio changed (Figure 5 bottom)."""
        return replace(self, ddp=replace(self.ddp, positive_weight=positive,
                                         negative_weight=negative))
