"""Metric records, computed as *views* over spans/counters.

Historically these four dataclasses were hand-threaded through four
different call paths, each assignment a chance to drift from what the
pipeline actually did.  They are now computed from the observability
substrate: :meth:`QueryMetrics.from_trace` and
:meth:`PublishMetrics.from_trace` read the named spans of
:mod:`repro.obs.names` (durations, byte counts, candidate counts) and
produce the exact field surface the benchmark harness has always
printed.  The classes remain plain dataclasses — picklable and stable.

Field names mirror the quantities the paper reports so the benchmark
harness can print paper-shaped tables directly (see
:mod:`repro.bench.reporting`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs import names
from repro.obs.tracing import Trace


def format_percent(value: float | None, missing: str = "n/a") -> str:
    """``0.421 -> '42.1%'``; ``None -> 'n/a'``.

    The shared-cache hit rate is ``None`` for a forked batch (the
    workers own the cache copies), so every printer of a rate
    must go through this instead of ``f"{rate:.1%}"`` — formatting
    ``None`` raises ``TypeError`` (regression-tested).
    """
    if value is None:
        return missing
    return f"{value * 100:.1f}%"


@dataclass
class PublishMetrics:
    """One data-owner publish run (Figures 10, 11, 12, 13)."""

    method: str = ""
    k: int = 0
    theta: int = 0
    # timings (seconds)
    lct_seconds: float = 0.0
    gk_seconds: float = 0.0
    go_seconds: float = 0.0
    upload_network_seconds: float = 0.0
    index_seconds: float = 0.0
    # sizes
    original_vertices: int = 0
    original_edges: int = 0
    gk_vertices: int = 0
    gk_edges: int = 0
    uploaded_vertices: int = 0
    uploaded_edges: int = 0
    noise_vertices: int = 0
    noise_edges: int = 0
    upload_bytes: int = 0
    index_bytes: int = 0

    @property
    def generation_seconds(self) -> float:
        """Time to generate ``Gk`` incl. label generalization (Fig 10)."""
        return self.lct_seconds + self.gk_seconds

    @classmethod
    def from_trace(cls, trace: Trace | None) -> "PublishMetrics":
        """Derive the publish record from the spans of one publish run."""
        if trace is None:
            return cls()
        root = trace.first(names.PUBLISH)
        attrs = root.attributes if root is not None else {}
        kauto = trace.first(names.PUBLISH_KAUTO)
        kattrs = kauto.attributes if kauto is not None else {}
        out = trace.first(names.PUBLISH_OUTSOURCE)
        oattrs = out.attributes if out is not None else {}
        return cls(
            method=attrs.get("method", ""),
            k=attrs.get("k", 0),
            theta=attrs.get("theta", 0),
            lct_seconds=trace.duration(names.PUBLISH_LCT),
            gk_seconds=trace.duration(names.PUBLISH_KAUTO),
            go_seconds=trace.duration(names.PUBLISH_OUTSOURCE),
            upload_network_seconds=trace.attr(
                names.NETWORK_UPLOAD, "simulated_seconds", 0.0
            ),
            index_seconds=trace.attr(names.CLOUD_INDEX_BUILD, "build_seconds", 0.0),
            original_vertices=attrs.get("original_vertices", 0),
            original_edges=attrs.get("original_edges", 0),
            gk_vertices=kattrs.get("gk_vertices", 0),
            gk_edges=kattrs.get("gk_edges", 0),
            uploaded_vertices=oattrs.get("uploaded_vertices", 0),
            uploaded_edges=oattrs.get("uploaded_edges", 0),
            noise_vertices=kattrs.get("noise_vertices", 0),
            noise_edges=kattrs.get("noise_edges", 0),
            upload_bytes=trace.attr(names.ENCODE_UPLOAD, "bytes", 0),
            index_bytes=trace.attr(names.CLOUD_INDEX_BUILD, "index_bytes", 0),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PublishMetrics":
        return cls(**data)


@dataclass
class QueryMetrics:
    """One end-to-end query (Figures 14-22, 31-34)."""

    method: str = ""
    k: int = 0
    query_edges: int = 0
    # cloud side
    cloud_seconds: float = 0.0
    decomposition_seconds: float = 0.0
    star_matching_seconds: float = 0.0
    join_seconds: float = 0.0
    rs_size: int = 0
    rin_size: int = 0
    # network
    query_bytes: int = 0
    answer_bytes: int = 0
    network_seconds: float = 0.0
    # client side
    client_seconds: float = 0.0
    expansion_seconds: float = 0.0
    filter_seconds: float = 0.0
    candidate_count: int = 0
    result_count: int = 0

    @property
    def total_seconds(self) -> float:
        """End-to-end: cloud + network + client (Figure 22)."""
        return self.cloud_seconds + self.network_seconds + self.client_seconds

    @classmethod
    def from_trace(cls, trace: Trace | None) -> "QueryMetrics":
        """Derive the per-query record from the spans of one query.

        Network seconds are the *simulated* transmission times the
        channel's cost model reports (span attributes), not the wall
        duration of the transmit call — exactly the paper's accounting.
        """
        if trace is None:
            return cls()
        root = trace.first(names.QUERY)
        attrs = root.attributes if root is not None else {}
        expansion_seconds = trace.duration(names.CLIENT_EXPAND)
        filter_seconds = trace.duration(names.CLIENT_FILTER)
        return cls(
            method=attrs.get("method", ""),
            k=attrs.get("k", 0),
            query_edges=attrs.get("query_edges", 0),
            cloud_seconds=trace.duration(names.CLOUD_ANSWER)
            + trace.duration(names.CLOUD_EXPAND),
            decomposition_seconds=trace.duration(names.CLOUD_DECOMPOSE),
            star_matching_seconds=trace.duration(names.CLOUD_STAR_MATCHING),
            join_seconds=trace.duration(names.CLOUD_JOIN),
            rs_size=trace.attr(names.CLOUD_ANSWER, "rs_size", 0),
            rin_size=trace.attr(names.CLOUD_ANSWER, "rin_size", 0),
            query_bytes=trace.attr(names.NETWORK_QUERY, "bytes", 0),
            answer_bytes=trace.attr(names.NETWORK_ANSWER, "bytes", 0),
            network_seconds=trace.attr(names.NETWORK_QUERY, "simulated_seconds", 0.0)
            + trace.attr(names.NETWORK_ANSWER, "simulated_seconds", 0.0),
            client_seconds=expansion_seconds + filter_seconds,
            expansion_seconds=expansion_seconds,
            filter_seconds=filter_seconds,
            candidate_count=trace.attr(names.CLIENT_FILTER, "candidates", 0),
            result_count=trace.attr(names.CLIENT_FILTER, "results", 0),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryMetrics":
        return cls(**data)


@dataclass
class BatchMetrics:
    """One ``query_batch`` run: per-query records + batch aggregates.

    ``wall_seconds`` is the real elapsed time of the whole batch — with
    a worker pool it is *less* than the sum of per-query times, and
    ``throughput_qps`` / ``speedup_vs(serial_wall)`` quantify by how
    much.  Cache counters are deltas over the batch, measured on the
    shared (locked) star cache, i.e. the hit rate *under contention*;
    with forked workers the children own the cache copies, so the
    parent-side delta reads zero and the hit rate is reported as
    ``None`` (format it with :func:`format_percent`, never
    ``%``-style).
    """

    worker_count: int = 1
    wall_seconds: float = 0.0
    per_query: list[QueryMetrics] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_shared(self) -> bool:
        """True when the batch ran in this process, on its one cache."""
        return self.worker_count == 1

    @property
    def query_count(self) -> int:
        return len(self.per_query)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.query_count / self.wall_seconds

    @property
    def cache_hit_rate(self) -> float | None:
        """Batch-wide hit rate on the shared cache (None if not shared)."""
        if not self.cache_shared:
            return None
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_query_seconds(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(q.total_seconds for q in self.per_query) / len(self.per_query)

    @property
    def cloud_seconds_total(self) -> float:
        return sum(q.cloud_seconds for q in self.per_query)

    def speedup_vs(self, serial_wall_seconds: float) -> float:
        """How much faster than a serial loop that took ``serial_wall_seconds``."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return serial_wall_seconds / self.wall_seconds

    def aggregated(self) -> "AggregatedMetrics":
        """The batch as an :class:`AggregatedMetrics` (mean-based views)."""
        aggregate = AggregatedMetrics()
        for run in self.per_query:
            aggregate.add(run)
        return aggregate

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker_count": self.worker_count,
            "wall_seconds": self.wall_seconds,
            "per_query": [run.to_dict() for run in self.per_query],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchMetrics":
        data = dict(data)
        data["per_query"] = [
            QueryMetrics.from_dict(run) for run in data.get("per_query", [])
        ]
        return cls(**data)


@dataclass
class AggregatedMetrics:
    """Mean of several :class:`QueryMetrics` (the paper averages 100 queries)."""

    runs: list[QueryMetrics] = field(default_factory=list)
    # queries skipped because they tripped the cloud's result budget
    skipped: int = 0

    def add(self, metrics: QueryMetrics) -> None:
        self.runs.append(metrics)

    def _mean(self, attr: str) -> float:
        if not self.runs:
            return 0.0
        return sum(getattr(run, attr) for run in self.runs) / len(self.runs)

    @property
    def cloud_seconds(self) -> float:
        # the per-run field shares the canonical metric's name; using
        # the constant keeps the view keyed to the taxonomy (R2)
        return self._mean(names.M_CLOUD_SECONDS)

    @property
    def star_matching_seconds(self) -> float:
        return self._mean("star_matching_seconds")

    @property
    def join_seconds(self) -> float:
        return self._mean("join_seconds")

    @property
    def client_seconds(self) -> float:
        return self._mean(names.M_CLIENT_SECONDS)

    @property
    def network_seconds(self) -> float:
        return self._mean("network_seconds")

    @property
    def total_seconds(self) -> float:
        return self._mean("total_seconds")

    @property
    def rs_size(self) -> float:
        return self._mean("rs_size")

    @property
    def rin_size(self) -> float:
        return self._mean("rin_size")

    @property
    def answer_bytes(self) -> float:
        return self._mean("answer_bytes")

    @property
    def result_count(self) -> float:
        return self._mean("result_count")

    def to_dict(self) -> dict[str, Any]:
        return {
            "runs": [run.to_dict() for run in self.runs],
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AggregatedMetrics":
        return cls(
            runs=[QueryMetrics.from_dict(run) for run in data.get("runs", [])],
            skipped=data.get("skipped", 0),
        )
