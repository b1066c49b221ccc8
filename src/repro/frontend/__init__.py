"""Front-end substrate: branch direction predictors, BTB, and RAS.

The paper's processor predicts branches with a 4K-entry hybrid
gshare/bimodal predictor, a 2K-entry 4-way BTB, and a 32-entry return address
stack (Section 4.1).  The front-end model here supplies those structures plus
a small façade (:class:`BranchUnit`) the pipeline uses to decide whether a
fetched branch redirects the front end.
"""

from repro.frontend.branch_predictor import (
    BimodalPredictor,
    BranchPredictorConfig,
    BranchUnit,
    GSharePredictor,
    HybridPredictor,
)
from repro.frontend.btb import BranchTargetBuffer, BTBConfig
from repro.frontend.ras import ReturnAddressStack

__all__ = [
    "BimodalPredictor",
    "BranchPredictorConfig",
    "BranchTargetBuffer",
    "BranchUnit",
    "BTBConfig",
    "GSharePredictor",
    "HybridPredictor",
    "ReturnAddressStack",
]
