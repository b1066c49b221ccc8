#!/usr/bin/env python
"""CI check: regenerated paper artifacts carry the committed numbers.

Compares the Table 2, Table 3, Figure 4 and Figure 5 ``BENCH_*.json`` files
at the repository root with their committed versions, ``git show
HEAD:<file>``, key by key.  Keys that describe the run rather than the
simulation (``_common.RUN_KEYS``: time stamp, wall time, CPU counts, knobs,
engine/scheduler/resilience counters, git provenance) are skipped; every
other key (the simulated gmeans, averages, latencies and energy savings)
must be identical, because the simulation is deterministic.

``BENCH_memory.json`` is compared on its ``cells`` only: the simulated
counters of every (workload, configuration, MSHR file) cell, several of
which hold loads behind a full MSHR file.  Its other keys are timings
that ``RUN_KEYS`` does not list.  Prints each differing key and exits 1
when any file differs or cannot be read::

    REPRO_BENCH_ONLY=memory python benchmarks/run_all.py
    REPRO_BENCH_ONLY=table2,table3,figure4,figure5 python benchmarks/run_all.py
    python benchmarks/ci_artifact_check.py
"""

import json
import subprocess
import sys
from pathlib import Path

from _common import REPO_ROOT, RUN_KEYS

#: The paper artifacts whose every non-run key is a simulated result.
ARTIFACTS = ("BENCH_table2.json", "BENCH_table3.json",
             "BENCH_figure4.json", "BENCH_figure5.json")

#: Artifacts compared on these keys only (the rest are timings).
COMPARED_KEYS = {"BENCH_memory.json": frozenset({"cells"})}

#: Every file the check compares.
CHECKED = ARTIFACTS + tuple(COMPARED_KEYS)

_MISSING = object()


def differing_keys(committed: dict, regenerated: dict, only=None) -> list:
    """The non-run keys (or the keys in ``only``) whose values differ (or
    exist on one side only)."""
    if only is None:
        keys = (committed.keys() | regenerated.keys()) - RUN_KEYS
    else:
        keys = only
    return sorted(key for key in keys
                  if committed.get(key, _MISSING) != regenerated.get(key, _MISSING))


def committed_json(root: Path, name: str) -> dict:
    """``name`` as committed at ``HEAD`` of the repository at ``root``."""
    shown = subprocess.run(["git", "show", f"HEAD:{name}"], cwd=root,
                           capture_output=True, text=True, timeout=60, check=True)
    return json.loads(shown.stdout)


def check(root: Path = REPO_ROOT, names=CHECKED) -> int:
    """Compare each file in ``names`` under ``root`` with ``HEAD``; 0 if all match."""
    failed = False
    for name in names:
        try:
            committed = committed_json(root, name)
            regenerated = json.loads((root / name).read_text())
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"{name}: cannot compare: {exc}")
            failed = True
            continue
        keys = differing_keys(committed, regenerated, COMPARED_KEYS.get(name))
        for key in keys:
            print(f"{name}: {key} differs: committed "
                  f"{committed.get(key)!r}, regenerated {regenerated.get(key)!r}")
        if not keys:
            print(f"{name}: ok")
        failed = failed or bool(keys)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check())
