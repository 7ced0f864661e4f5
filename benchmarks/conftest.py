"""Shared infrastructure for the benchmark harness.

Every file in this directory regenerates one of the paper's evaluation
figures/tables (see DESIGN.md's per-experiment index).  Expensive
artifacts — published systems and query sweeps — are cached in a
session-scoped :class:`SweepCache`, so running the whole directory
performs each publish and each (dataset, method, k, |E(Q)|) workload
cell once, no matter how many figures slice it.

Environment knobs:

* ``REPRO_BENCH_SCALE``   — dataset scale factor (default 0.25)
* ``REPRO_BENCH_QUERIES`` — queries averaged per cell (default 10)
* ``REPRO_BENCH_KS``      — comma-separated k values (default 2,3,4,5,6)
* ``REPRO_BENCH_SIZES``   — comma-separated |E(Q)| values (default 4,6,8,10,12)
* ``REPRO_BENCH_DATASETS``— comma-separated dataset names (default all three)
"""

from __future__ import annotations

import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.bench import ExperimentContext
from repro.obs.views import AggregatedMetrics

DEFAULT_SCALE = 0.25
DEFAULT_QUERIES = 10


def _env_list(name: str, default: list[int]) -> list[int]:
    raw = os.environ.get(name)
    if not raw:
        return default
    return [int(part) for part in raw.split(",") if part.strip()]


def bench_ks() -> list[int]:
    return _env_list("REPRO_BENCH_KS", [2, 3, 4, 5, 6])


def bench_sizes() -> list[int]:
    return _env_list("REPRO_BENCH_SIZES", [4, 6, 8, 10, 12])


def bench_datasets() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_DATASETS")
    if not raw:
        return ["Web-NotreDame", "DBpedia", "UK-2002"]
    return [part.strip() for part in raw.split(",") if part.strip()]


def bench_scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
    except ValueError:
        return DEFAULT_SCALE


def bench_queries() -> int:
    try:
        return int(os.environ.get("REPRO_BENCH_QUERIES", DEFAULT_QUERIES))
    except ValueError:
        return DEFAULT_QUERIES


def bench_host() -> dict:
    """Where the numbers were taken (the BENCH_*.json host block)."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit: str | None = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scale": bench_scale(),
        "commit": commit,
    }


METHODS = ["EFF", "RAN", "FSIM", "BAS"]
GO_METHODS = ["EFF", "RAN", "FSIM"]  # the strategies that upload Go


@dataclass
class SweepCache:
    """Memoized publishes and workload cells across the whole session."""

    contexts: dict[str, ExperimentContext] = field(default_factory=dict)
    cells: dict[tuple[str, str, int, int], AggregatedMetrics] = field(
        default_factory=dict
    )

    def context(self, dataset: str) -> ExperimentContext:
        if dataset not in self.contexts:
            self.contexts[dataset] = ExperimentContext.for_dataset(
                dataset, scale=bench_scale()
            )
        return self.contexts[dataset]

    def system(self, dataset: str, method: str, k: int):
        return self.context(dataset).system(method, k)

    def cell(
        self, dataset: str, method: str, k: int, edge_count: int
    ) -> AggregatedMetrics:
        key = (dataset, method, k, edge_count)
        if key not in self.cells:
            self.cells[key] = self.context(dataset).run(
                method, k, edge_count, bench_queries()
            )
        return self.cells[key]


_CACHE = SweepCache()


@pytest.fixture(scope="session")
def sweep() -> SweepCache:
    return _CACHE


def completing_query(cache: SweepCache, dataset: str, method: str, k: int, size: int):
    """A (system, query) pair whose query stays inside the result budget.

    Timed cells must not die on a pathological tail query; pick the
    first workload query that completes.
    """
    from repro.exceptions import ResultBudgetExceeded

    system = cache.system(dataset, method, k)
    for query in cache.context(dataset).workload(size, bench_queries()):
        try:
            system.query(query)
        except ResultBudgetExceeded:
            continue
        return system, query
    pytest.skip(f"no query of size {size} fits the result budget")


def cells_clean(cache: SweepCache, cells) -> bool:
    """True when no cell in ``cells`` skipped a query (fair comparison).

    A skipped (budget-exceeded) query censors a method's *worst* run,
    which would bias mean-time comparisons; shape assertions only apply
    to uncensored grids.
    """
    return all(cache.cells[key].skipped == 0 for key in cells if key in cache.cells)
