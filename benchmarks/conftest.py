"""Pytest configuration for the reproduction benchmarks.

Each benchmark regenerates one of the paper's tables or figures.  Because a
single regeneration already simulates dozens of (workload, configuration)
pairs, every benchmark is run exactly once (``rounds=1``) — the timing
reported by pytest-benchmark is the cost of regenerating the artifact, and
the artifact itself is printed and attached to ``benchmark.extra_info``.

All simulation grids execute through :class:`repro.exec.ExperimentEngine`:
jobs fan out over a process pool and finished cells are memoized on disk,
so a re-run after an interrupted sweep only simulates the missing cells.
Cached cells make the pytest-benchmark wall time an underestimate of full
regeneration cost — each bench attaches ``engine`` stats (cache hits vs
simulated) to ``extra_info`` so the timing stays interpretable;
``benchmarks/run_all.py`` disables caching for its timed runs and is the
authoritative trajectory measurement.

The knobs, helpers, and the ``BENCH_*.json`` writer live in
:mod:`_common` (pytest-free, shared with ``run_all.py`` and the
``repro-bench`` console entry point); this module adds only the fixtures.
"""

import pytest

# Re-exported so benches can keep importing everything `from conftest`.
from _common import (  # noqa: F401
    DEFAULT_INSTRUCTIONS,
    DEFAULT_JOBS,
    FULL_FIDELITY,
    REPO_ROOT,
    WORKLOAD_SUBSET,
    run_environment,
    run_once,
    write_bench_json,
)

from repro.exec import ExperimentEngine
from repro.harness.runner import ExperimentSettings


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings shared by all timing benchmarks."""
    return ExperimentSettings(instructions=DEFAULT_INSTRUCTIONS,
                              stats_warmup_fraction=0.25)


@pytest.fixture(scope="session")
def bench_engine() -> ExperimentEngine:
    """The experiment engine shared by all timing benchmarks."""
    return ExperimentEngine(jobs=DEFAULT_JOBS)


@pytest.fixture(scope="session")
def bench_workloads():
    """Workload subset override (None means the experiment's default set)."""
    return WORKLOAD_SUBSET
