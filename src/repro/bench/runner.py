"""Experiment runner shared by the ``benchmarks/`` harness.

Caches publish-time artifacts (building ``Gk`` once per
(dataset, method, k) is the expensive part) and runs query workloads
through the full system, aggregating per-phase metrics exactly the way
the paper's figures slice them.

Benchmark scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable (default 1.0): dataset sizes scale linearly, so CI machines
can run a quick pass with e.g. ``REPRO_BENCH_SCALE=0.3``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.config import MethodConfig, SystemConfig
from repro.obs.views import AggregatedMetrics
from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
from repro.workloads.datasets import Dataset, load_dataset
from repro.workloads.queries import generate_workload

# resource quota applied to every benchmark query: generously above any
# expected cell, but a hard stop against pathological blow-ups taking
# the whole harness down (a real cloud would enforce the same).
BENCH_RESULT_BUDGET = 500_000


def bench_scale(default: float = 1.0) -> float:
    """Dataset scale factor from ``REPRO_BENCH_SCALE``."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", default))
    except ValueError:
        return default


def bench_query_count(default: int = 20) -> int:
    """Queries averaged per cell, from ``REPRO_BENCH_QUERIES``.

    The paper averages 100 queries per point; the default here is
    smaller to keep a full harness run in CI-friendly time.
    """
    try:
        return int(os.environ.get("REPRO_BENCH_QUERIES", default))
    except ValueError:
        return default


@dataclass
class ExperimentContext:
    """Lazily built systems and workloads over one dataset."""

    dataset: Dataset
    theta: int = 2
    seed: int = 0
    _systems: dict[tuple[str, int], PrivacyPreservingSystem] = field(
        default_factory=dict
    )
    _workloads: dict[int, list[AttributedGraph]] = field(default_factory=dict)

    @classmethod
    def for_dataset(cls, name: str, scale: float | None = None) -> "ExperimentContext":
        return cls(dataset=load_dataset(name, scale=scale or bench_scale()))

    def workload(self, edge_count: int, count: int | None = None) -> list[AttributedGraph]:
        count = count or bench_query_count()
        key = edge_count
        if key not in self._workloads or len(self._workloads[key]) < count:
            self._workloads[key] = generate_workload(
                self.dataset.graph, edge_count, count, seed=self.seed + edge_count
            )
        return self._workloads[key][:count]

    def system(self, method: str, k: int) -> PrivacyPreservingSystem:
        """Publish once per (method, k); reuse across benchmark cells."""
        key = (method, k)
        if key not in self._systems:
            config = SystemConfig(
                k=k,
                theta=self.theta,
                method=MethodConfig.from_name(method),
                seed=self.seed,
                max_intermediate_results=BENCH_RESULT_BUDGET,
            )
            # a small generic workload sample drives the EFF cost model
            sample = self.workload(6, min(8, bench_query_count()))
            self._systems[key] = PrivacyPreservingSystem.setup(
                self.dataset.graph, self.dataset.schema, config, sample_workload=sample
            )
        return self._systems[key]

    def run(
        self,
        method: str,
        k: int,
        edge_count: int,
        query_count: int | None = None,
    ) -> AggregatedMetrics:
        """Average metrics of a workload cell (method, k, |E(Q)|)."""
        system = self.system(method, k)
        aggregate = AggregatedMetrics()
        for query in self.workload(edge_count, query_count):
            try:
                aggregate.add(system.query(query).metrics)
            except ResultBudgetExceeded:
                aggregate.skipped += 1
        return aggregate
