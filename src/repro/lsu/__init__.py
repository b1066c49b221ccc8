"""Load-store unit: the store queue and the forwarding policies.

The store queue (:mod:`repro.lsu.store_queue`) is the age-ordered buffer of
in-flight stores shared by every configuration.  The load queue, which with
SVW needs no address CAM (Section 2), is an age-ordered list of in-flight
loads inside the core's run loop (:mod:`repro.pipeline._vector_loop`).
What differs between the paper's configurations is *how loads access the
store queue*:

* :class:`~repro.lsu.policies.OracleAssociativePolicy` — idealised
  fully-associative search with oracle load scheduling (the Figure 4
  baseline).
* :class:`~repro.lsu.policies.AssociativeStoreSetsPolicy` — fully-associative
  search with Store Sets style scheduling, at a configurable SQ latency
  (3-cycle ideal or 5-cycle realistic), with optimistic-replay or
  forwarding-prediction wake-up of dependants.
* :class:`~repro.lsu.policies.IndexedSQPolicy` — the paper's contribution:
  speculative indexed SQ access driven by the FSP/SAT, optionally guarded by
  the DDP delay predictor.
"""

from repro.lsu.store_queue import StoreQueue, StoreQueueEntry
from repro.lsu.policies import (
    AssociativeStoreSetsPolicy,
    ForwardDecision,
    IndexedSQPolicy,
    LoadCommitInfo,
    LoadPrediction,
    OracleAssociativePolicy,
    SQPolicy,
)

__all__ = [
    "AssociativeStoreSetsPolicy",
    "ForwardDecision",
    "IndexedSQPolicy",
    "LoadCommitInfo",
    "LoadPrediction",
    "OracleAssociativePolicy",
    "SQPolicy",
    "StoreQueue",
    "StoreQueueEntry",
]
