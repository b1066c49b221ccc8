#!/usr/bin/env python
"""Print one SHA-256 digest line per verification grid.

Every simulated statistic is deterministic, so a change that must leave
the simulation untouched prints exactly the lines its parent prints, and
the check is one ``diff``::

    PYTHONPATH=src python benchmarks/cell_digests.py > change.txt
    PYTHONPATH=<parent>/src python benchmarks/cell_digests.py > parent.txt
    diff parent.txt change.txt

The script reads the simulator from ``PYTHONPATH``, so one copy of it
digests either tree.  Grids (pass names to run a subset, default all):

``fig4-800-s1`` / ``fig4-2000-s3``
    The 282 Figure-4 cells (47 workloads x ``BASELINE_CONFIG`` +
    ``FIGURE4_CONFIGS``) at 800 instructions, seed 1, and at 2000
    instructions, seed 3; ``stats_warmup_fraction=0.25``.
``small-window``
    36 cells: two small machines that stall every window structure and
    wrap the SSN, over vortex, gzip and mcf at 1200 instructions, seed 2,
    policies sized to the machine's SQ; ``stats_warmup_fraction=0.1``.
``mshr``
    72 cells: a 2-entry MSHR file with and without the stride prefetcher
    and a 4-entry file, over mcf, art, swim and equake at 8000
    instructions, seed 1.
``snapshots-4`` / ``snapshots-7``
    Checkpoint snapshots of perfbench's ``sampled-ckpt`` settings for
    seeds 1-3 (one line per seed) in a private store: every interval's
    shared snapshot, by structure (the branch-unit, hierarchy and memory
    ``state_signature()``, the SSN counters and ``instructions_warmed``,
    so trees whose snapshots hold different sets of structures compare),
    and every policy snapshot's pickle, for the four ``SAMPLED_CONFIGS``
    and for all seven ``make_policy`` names.
``intervals-7``
    Every interval of the same settings for seeds 1-3 (one line per seed),
    both programs and all seven names, each run through
    ``run_interval_job`` from the snapshots of a private store and
    digested with the cell signature of the core that ran it.

A cell's signature is the ``repr`` of its sorted statistics, sorted extra
metrics, the memory, policy, branch-unit and hierarchy
``state_signature()`` and the store-queue, policy and SVW counters (how
often the store queue was searched and read, what the policy predicted,
how many loads the SVW checked); a grid's digest hashes its cells in
order.  The whole run takes a few minutes on one core.
"""

import hashlib
import pickle
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from passes import (  # noqa: E402
    SAMPLED_CONFIGS,
    SAMPLED_PROGRAMS,
    SIZES,
    sampled_settings,
)

from repro.harness.runner import (  # noqa: E402
    BASELINE_CONFIG,
    FIGURE4_CONFIGS,
    ExperimentSettings,
    make_policy,
)
from repro.memory.hierarchy import MemoryHierarchyConfig  # noqa: E402
from repro.memory.mshr import MLPConfig, PrefetchConfig  # noqa: E402
from repro.pipeline.config import CoreConfig  # noqa: E402
from repro.pipeline.core import OutOfOrderCore  # noqa: E402
from repro.workloads.suites import build_workload, workload_names  # noqa: E402

CONFIGS = (BASELINE_CONFIG,) + FIGURE4_CONFIGS

#: Every configuration name ``make_policy`` knows.
ALL_POLICY_NAMES = (BASELINE_CONFIG, "associative-3",
                    "associative-5-optimistic", "associative-5-predictive",
                    "associative-original-storesets", "indexed-3-fwd",
                    "indexed-3-fwd+dly")

#: The small-window machines of ``tests/property/test_core_reference.py``.
SMALL_WINDOWS = (
    CoreConfig(rob_size=48, issue_queue_size=12, load_queue_size=10,
               store_queue_size=8, ssn_bits=6),
    CoreConfig(rob_size=24, issue_queue_size=24, load_queue_size=24,
               store_queue_size=16),
)

MSHR_MACHINES = (
    CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=2))),
    CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=2,
                      prefetch=PrefetchConfig(enabled=True)))),
    CoreConfig(memory=MemoryHierarchyConfig(
        mlp=MLPConfig(enabled=True, mshr_entries=4))),
)


def cell_signature(core, result) -> str:
    return repr((sorted(result.stats.as_dict().items()),
                 sorted(result.extra.items()),
                 core.memory.state_signature(),
                 core.policy.state_signature(),
                 core.branch_unit.state_signature(),
                 core.hierarchy.state_signature(),
                 core.store_queue.stats, core.policy.stats,
                 core.policy.svw.stats))


def _cells(machine, workloads, instructions, seed, warmup, sq_size=None):
    digest = hashlib.sha256()
    count = 0
    for name in workloads:
        trace = build_workload(name, instructions=instructions, seed=seed)
        for config in CONFIGS:
            policy = make_policy(config) if sq_size is None \
                else make_policy(config, sq_size=sq_size)
            core = OutOfOrderCore(machine, policy)
            result = core.run(trace, stats_warmup_fraction=warmup)
            digest.update(cell_signature(core, result).encode())
            count += 1
    return count, digest.hexdigest()


def fig4(instructions, seed):
    return _cells(ExperimentSettings().core, workload_names(), instructions,
                  seed, 0.25)


def small_window():
    digest = hashlib.sha256()
    count = 0
    for machine in SMALL_WINDOWS:
        cells, part = _cells(machine, ("vortex", "gzip", "mcf"), 1200, 2,
                             0.1, sq_size=machine.store_queue_size)
        digest.update(part.encode())
        count += cells
    return count, digest.hexdigest()


def mshr():
    digest = hashlib.sha256()
    count = 0
    for machine in MSHR_MACHINES:
        cells, part = _cells(machine, ("mcf", "art", "swim", "equake"), 8000,
                             1, 0.25)
        digest.update(part.encode())
        count += cells
    return count, digest.hexdigest()


def _shared_structures(shared) -> str:
    """The structures a shared snapshot hands a detailed core, by name."""
    alloc = shared.ssn_alloc
    return repr((shared.branch_unit.state_signature(),
                 shared.hierarchy.state_signature(),
                 shared.memory.state_signature(),
                 (alloc.bits, alloc.ssn_rename, alloc.ssn_commit, alloc.wraps),
                 shared.instructions_warmed))


def snapshots(names, seed):
    from repro.sampling.checkpoints import (
        CheckpointStore,
        generate_checkpoints,
        policy_key,
        shared_key,
    )

    settings = sampled_settings(seed, SIZES["full"]["sampled-ckpt"])
    identities = [(name, settings.sq_size, None) for name in names]
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory(prefix="cell-digests-") as directory:
        store = CheckpointStore(directory)
        for program in SAMPLED_PROGRAMS:
            generate_checkpoints(store, program, settings, identities)
            for index in range(settings.sampling.num_intervals(
                    settings.instructions)):
                digest.update(_shared_structures(
                    store.get(shared_key(program, settings, index))).encode())
                for identity in identities:
                    digest.update(pickle.dumps(store.get(
                        policy_key(program, settings, identity, index))))
                count += 1
    return count, digest.hexdigest()


class _RecordedCore(OutOfOrderCore):
    """A core that remembers the last instance to run, so the digest can
    read the machine state an interval job leaves behind."""

    last = None

    def run(self, *args, **kwargs):
        _RecordedCore.last = self
        return super().run(*args, **kwargs)


def intervals(seed):
    from repro.exec.jobs import IntervalJobSpec
    from repro.sampling import driver
    from repro.sampling.checkpoints import CheckpointStore, generate_checkpoints

    settings = sampled_settings(seed, SIZES["full"]["sampled-ckpt"])
    identities = [(name, settings.sq_size, None) for name in ALL_POLICY_NAMES]
    digest = hashlib.sha256()
    count = 0
    driver.OutOfOrderCore = _RecordedCore
    try:
        with tempfile.TemporaryDirectory(prefix="cell-digests-") as directory:
            store = CheckpointStore(directory)
            for program in SAMPLED_PROGRAMS:
                generate_checkpoints(store, program, settings, identities)
                for index in range(settings.sampling.num_intervals(
                        settings.instructions)):
                    for name in ALL_POLICY_NAMES:
                        record = driver.run_interval_job(IntervalJobSpec(
                            program, name, settings, index,
                            checkpoint_dir=directory))
                        digest.update(cell_signature(
                            _RecordedCore.last, record.result).encode())
                        count += 1
    finally:
        driver.OutOfOrderCore = OutOfOrderCore
    return count, digest.hexdigest()


GRIDS = {
    "fig4-800-s1": lambda: [("", fig4(800, 1))],
    "fig4-2000-s3": lambda: [("", fig4(2000, 3))],
    "small-window": lambda: [("", small_window())],
    "mshr": lambda: [("", mshr())],
    "snapshots-4": lambda: [(f" seed={seed}", snapshots(SAMPLED_CONFIGS, seed))
                            for seed in (1, 2, 3)],
    "snapshots-7": lambda: [(f" seed={seed}",
                             snapshots(ALL_POLICY_NAMES, seed))
                            for seed in (1, 2, 3)],
    "intervals-7": lambda: [(f" seed={seed}", intervals(seed))
                            for seed in (1, 2, 3)],
}


def main(argv) -> int:
    selected = argv[1:] or list(GRIDS)
    unknown = [name for name in selected if name not in GRIDS]
    if unknown:
        print(f"unknown grid(s): {', '.join(unknown)}; "
              f"choose from {', '.join(GRIDS)}", file=sys.stderr)
        return 2
    for name in selected:
        for suffix, (count, digest) in GRIDS[name]():
            print(f"{name}{suffix} n={count} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
