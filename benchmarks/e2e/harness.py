"""Shared pieces of the e2e benchmark: tallies, quantiles, oracles."""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field

from workloads import Deployment

from repro.core.system import PrivacyPreservingSystem
from repro.exceptions import ReproError
from repro.graph import AttributedGraph
from repro.kauto.verify import verify_k_automorphism
from repro.matching.isomorphism import find_subgraph_matches
from repro.outsource.outsourced_graph import OutsourcedGraph, recover_gk


@dataclass
class Tally:
    """Operations attempted / failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, passed: bool, reason: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(reason)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the value at rank ceil(q*n))."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the ``repro serve`` subprocess, once stopped)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def canonical(matches: list[dict[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    return sorted(tuple(sorted(match.items())) for match in matches)


def oracle_answers(
    graph: AttributedGraph, queries: list[AttributedGraph]
) -> list[list[tuple[tuple[int, int], ...]]]:
    """``R(Q, G)`` from the VF2 matcher, independent of the engine."""
    return [canonical(find_subgraph_matches(query, graph)) for query in queries]


def verify_publish(system: PrivacyPreservingSystem, tally: Tally, label: str) -> None:
    """Gk k-automorphic, LCT groups valid, and ``recover_gk(Go) == Gk``."""
    published = system.published
    gk, avt = published.transform.gk, published.transform.avt
    try:
        verify_k_automorphism(gk, avt)
        published.lct.verify(
            allow_small_groups=system.config.allow_small_label_groups
        )
    except ReproError as exc:
        tally.fail(f"{label}: {type(exc).__name__}: {exc}")
        return
    recovered = recover_gk(
        OutsourcedGraph(published.upload_graph, published.center_vertices), avt
    )
    same = set(recovered.vertex_ids()) == set(gk.vertex_ids()) and set(
        recovered.edges()
    ) == set(gk.edges())
    tally.check(same, f"{label}: recover_gk(Go) != Gk")


def setup_system(deployment: Deployment, **kwargs: object) -> PrivacyPreservingSystem:
    return PrivacyPreservingSystem.setup(
        deployment.graph, deployment.schema, deployment.config, **kwargs
    )
