"""Test-suite-wide configuration.

The experiment engine memoizes simulation results under ``.repro-cache/``
by default.  Tests must not read or write a cache that persists across test
runs (hidden coupling; stale results could mask regressions), so caching is
switched off for the whole suite unless the developer explicitly opts in by
exporting ``REPRO_CACHE`` themselves.  Tests that exercise the cache pass an
explicit ``cache_dir`` / ``ResultCache`` (an explicit opt-in that overrides
the switch) pointed at ``tmp_path``.

Every sampled run warms from the checkpoint store, so the suite points
``REPRO_CHECKPOINT_DIR`` at one temporary directory per session, removed
when the session ends: no test reads a store that outlives the run, and
none writes ``.repro-checkpoints/`` into the worktree.  Tests that inspect
a store still pass their own ``tmp_path`` store.
"""

import os
import shutil
import tempfile

os.environ.setdefault("REPRO_CACHE", "0")

_CHECKPOINT_DIR = tempfile.mkdtemp(prefix="repro-test-checkpoints-")
os.environ["REPRO_CHECKPOINT_DIR"] = _CHECKPOINT_DIR


def pytest_unconfigure(config):
    shutil.rmtree(_CHECKPOINT_DIR, ignore_errors=True)
