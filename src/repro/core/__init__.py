"""The paper's primary contribution: store-queue index prediction.

This package contains the structures introduced or adapted by the paper:

* :mod:`repro.core.ssn` — Store Sequence Numbers (SSNs) and wrap handling.
* :mod:`repro.core.fsp` — the Forwarding Store Predictor (FSP), a PC-indexed
  set-associative table mapping load PCs to the store PCs they forward from.
* :mod:`repro.core.sat` — the Store Alias Table (SAT), mapping store PCs to
  the SSN of their youngest in-flight instance, with log repair.
* :mod:`repro.core.ddp` — the Delay Distance Predictor (DDP), which delays
  difficult loads until all but the predicted candidate store have committed.
* :mod:`repro.core.svw` — the Store Vulnerability Window support structures
  (SSBF and SPCT) used to filter load re-execution and train the predictors.
* :mod:`repro.core.store_sets` — the original Store Sets predictor
  (SSIT/LFST) used by the earliest baseline configuration in Table 1.
* :mod:`repro.core.predictors` — configuration dataclasses shared by the
  above.
"""

from repro.core.ssn import SSNAllocator, sq_index
from repro.core.predictors import FSPConfig, SATConfig, DDPConfig, SVWConfig, StoreSetsConfig, PredictorSuiteConfig
from repro.core.fsp import ForwardingStorePredictor, FSPEntry
from repro.core.sat import StoreAliasTable, SATUndoRecord
from repro.core.ddp import DelayDistancePredictor, DDPEntry
from repro.core.svw import StoreSequenceBloomFilter, StorePCTable, SVWFilter
from repro.core.store_sets import StoreSetsPredictor

__all__ = [
    "DDPConfig",
    "DDPEntry",
    "DelayDistancePredictor",
    "ForwardingStorePredictor",
    "FSPConfig",
    "FSPEntry",
    "PredictorSuiteConfig",
    "SATConfig",
    "SATUndoRecord",
    "SSNAllocator",
    "StoreAliasTable",
    "StorePCTable",
    "StoreSequenceBloomFilter",
    "StoreSetsConfig",
    "StoreSetsPredictor",
    "SVWConfig",
    "SVWFilter",
    "sq_index",
]
