"""Processor configuration.

Defaults reproduce the machine described in Section 4.1 of the paper:

* 512-entry reorder buffer, 300-entry issue queue, 128-entry load queue,
  64-entry store queue;
* 19-stage pipeline (3 fetch, 2 decode, 2 rename, 2 schedule, 3 register
  read, 1 execute, 1 writeback, 1 SVW, 3 re-execute, 1 commit);
* fetch up to 12 instructions per cycle past a single taken branch;
* decode/rename/issue/commit 8 instructions per cycle with an issue mix of
  6 integer, 4 FP, 1 branch, 2 store, and 2 loads per cycle;
* 3-cycle 64 KB L1, 10-cycle 1 MB L2, 150-cycle memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.frontend.branch_predictor import BranchPredictorConfig


@dataclass(frozen=True)
class IssueLimits:
    """Per-cycle issue bandwidth by operation class (Section 4.1 issue mix)."""

    total: int = 8
    int_ops: int = 6
    fp_ops: int = 4
    branches: int = 1
    loads: int = 2
    stores: int = 2

    def __post_init__(self) -> None:
        for value in (self.total, self.int_ops, self.fp_ops, self.branches, self.loads, self.stores):
            if value <= 0:
                raise ValueError("issue limits must be positive")


@dataclass(frozen=True)
class CoreConfig:
    """Full core configuration."""

    # Window sizes.
    rob_size: int = 512
    issue_queue_size: int = 300
    load_queue_size: int = 128
    store_queue_size: int = 64

    # Widths.
    fetch_width: int = 12
    rename_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    taken_branches_per_cycle: int = 1
    issue_limits: IssueLimits = field(default_factory=IssueLimits)

    # Pipeline depths / penalties (cycles).
    frontend_depth: int = 9          # fetch(3)+decode(2)+rename(2)+schedule(2)
    backend_commit_delay: int = 5    # writeback(1)+SVW(1)+re-execute(3)
    branch_redirect_penalty: int = 9  # refill the front end after a mispredict
    flush_penalty: int = 10          # refetch redirect after a re-execution flush
    replay_penalty: int = 3          # scheduler replay of mis-woken dependants
    ssn_wrap_drain_penalty: int = 40  # pipeline drain when 16-bit SSNs wrap

    # Memory system.
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    branch_predictor: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)

    # SSN width (hardware wrap modelling).
    ssn_bits: int = 16
    model_ssn_wrap: bool = True

    # Simulator fast path: fast-forward the clock over cycles in which
    # nothing can issue, dispatch, complete, or commit.  Cycle-exact and
    # statistics-identical to the straight-line loop; disable to A/B-check
    # the event-aware loop against the original one-cycle-at-a-time loop.
    idle_skip: bool = True

    # Safety valve for the cycle loop.
    max_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        for size in (self.rob_size, self.issue_queue_size,
                     self.load_queue_size, self.store_queue_size):
            if size <= 0:
                raise ValueError("window sizes must be positive")
        if self.store_queue_size & (self.store_queue_size - 1):
            raise ValueError("store queue size must be a power of two")
        for width in (self.fetch_width, self.rename_width, self.issue_width, self.commit_width):
            if width <= 0:
                raise ValueError("pipeline widths must be positive")
        if self.flush_penalty < 0 or self.branch_redirect_penalty < 0 or self.replay_penalty < 0:
            raise ValueError("penalties must be non-negative")


def small_test_config(**overrides) -> CoreConfig:
    """A scaled-down configuration for fast unit tests.

    Keeps the structural relationships of the default machine (SQ smaller
    than LQ smaller than ROB) while making tests that need to fill windows
    run quickly.
    """
    params = dict(
        rob_size=64,
        issue_queue_size=32,
        load_queue_size=16,
        store_queue_size=8,
        fetch_width=4,
        rename_width=4,
        issue_width=4,
        commit_width=4,
    )
    params.update(overrides)
    return CoreConfig(**params)
