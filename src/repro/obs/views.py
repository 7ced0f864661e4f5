"""Metric records, computed as *views* over the spans of one trace.

Nothing here is hand-threaded through the pipeline: :func:`layers` is
the one mapping from span names to wall seconds, and
:meth:`QueryMetrics.from_trace` / :meth:`PublishMetrics.from_trace`
read it plus the attributes of the named spans of
:mod:`repro.obs.names`.  The records are plain dataclasses, picklable
and round-tripped through ``to_dict`` / ``from_dict``.

Field names mirror the quantities the paper reports so the benchmark
harness can print paper-shaped tables directly (see
:mod:`repro.bench.reporting`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Any

from repro.obs import names
from repro.obs.tracing import Span, Trace


def layers(trace: Trace | None) -> dict[str, float]:
    """Wall seconds per span name, summed over every span of that name.

    The one place span durations are added up.  Names come out in
    :data:`names.PIPELINE` order (those present only), then any other
    name in the order it first appears.  Parallel spans add up too, so
    two ``cloud.shard_match`` lanes can exceed their parent's wall.
    """
    totals: dict[str, float] = {}
    for span in trace or ():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    ordered = {name: totals.pop(name) for name in names.PIPELINE if name in totals}
    ordered.update(totals)
    return ordered


def _by_name(trace: Trace) -> dict[str, list[Span]]:
    index: dict[str, list[Span]] = {}
    for span in trace:
        index.setdefault(span.name, []).append(span)
    return index


def _attrs(index: dict[str, list[Span]], name: str) -> dict[str, Any]:
    """The attributes of the first span called ``name`` ({} if none)."""
    spans = index.get(name)
    return spans[0].attributes if spans else {}


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
        index = _by_name(trace)
        attrs = _attrs(index, names.PUBLISH)
        kattrs = _attrs(index, names.PUBLISH_KAUTO)
        oattrs = _attrs(index, names.PUBLISH_OUTSOURCE)
        built = _attrs(index, names.CLOUD_INDEX_BUILD)
        seconds = layers(trace)
        return cls(
            method=attrs.get("method", ""),
            k=attrs.get("k", 0),
            theta=attrs.get("theta", 0),
            lct_seconds=seconds.get(names.PUBLISH_LCT, 0.0),
            gk_seconds=seconds.get(names.PUBLISH_KAUTO, 0.0),
            go_seconds=seconds.get(names.PUBLISH_OUTSOURCE, 0.0),
            upload_network_seconds=_attrs(index, names.NETWORK_UPLOAD).get(
                "simulated_seconds", 0.0
            ),
            index_seconds=seconds.get(names.CLOUD_INDEX_BUILD, 0.0),
            original_vertices=attrs.get("original_vertices", 0),
            original_edges=attrs.get("original_edges", 0),
            gk_vertices=kattrs.get("gk_vertices", 0),
            gk_edges=kattrs.get("gk_edges", 0),
            uploaded_vertices=oattrs.get("uploaded_vertices", 0),
            uploaded_edges=oattrs.get("uploaded_edges", 0),
            noise_vertices=kattrs.get("noise_vertices", 0),
            noise_edges=kattrs.get("noise_edges", 0),
            upload_bytes=_attrs(index, names.ENCODE_UPLOAD).get("bytes", 0),
            index_bytes=built.get("index_bytes", 0),
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PublishMetrics":
        return cls(**data)


def _phase_seconds(*spans: str) -> property:
    """A read-only field: the seconds ``phases`` holds for ``spans``."""
    return property(lambda self: sum(self.phases.get(name, 0.0) for name in spans))


@dataclass
class QueryMetrics:
    """One end-to-end query (Figures 14-22, 31-34) and its EXPLAIN report.

    :meth:`from_trace` derives it from the query's trace, which may be
    stitched across client, gateway, cloud and fork-child processes.
    The derivation is total: a missing span reads as zeros or empties,
    so a record always renders.  Each quantity is stored once; the
    paper's per-phase seconds are properties over ``phases`` and the
    wire bytes are properties over ``bytes_by_direction``.
    """

    query_id: str = ""
    status: str = ""  # the gateway's verdict; "" in process
    method: str = ""
    k: int = 0
    query_edges: int = 0
    # -- plan ----------------------------------------------------------
    stars: int = 0
    shards: int = 0
    dispatched: bool = False  # the request has a gateway.dispatch span
    # -- result and candidate sizes ------------------------------------
    rs_size: int = 0
    rin_size: int = 0
    matches: int = 0
    candidate_count: int = 0
    result_count: int = 0
    # -- client filter: candidates dropped per Algorithm-3 check, and
    # whether Rin was anchored in B1 (streamed) or took the fallback
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0
    anchored: bool = False
    # -- wire: the channel's *simulated* transmission seconds, the
    # paper's accounting, not the wall time of the transmit call
    bytes_by_direction: dict[str, int] = field(default_factory=dict)
    network_seconds: float = 0.0
    # -- timings: :func:`layers` of the trace, and one
    # {"shard", "results", "seconds", "pid"} per shard lane
    phases: dict[str, float] = field(default_factory=dict)
    per_shard: list[dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    span_count: int = 0
    process_count: int = 0

    # the paper's per-phase seconds (Figures 14-21), read off ``phases``
    cloud_seconds = _phase_seconds(names.CLOUD_ANSWER)
    decomposition_seconds = _phase_seconds(names.CLOUD_DECOMPOSE)
    star_matching_seconds = _phase_seconds(names.CLOUD_STAR_MATCHING)
    join_seconds = _phase_seconds(names.CLOUD_JOIN)
    client_seconds = _phase_seconds(names.CLIENT_EXPAND, names.CLIENT_FILTER)
    expansion_seconds = _phase_seconds(names.CLIENT_EXPAND)
    filter_seconds = _phase_seconds(names.CLIENT_FILTER)

    @property
    def total_seconds(self) -> float:
        """End-to-end: cloud + network + client (Figure 22)."""
        return self.cloud_seconds + self.network_seconds + self.client_seconds

    @property
    def query_bytes(self) -> int:
        return self.bytes_by_direction.get("query", 0)

    @property
    def answer_bytes(self) -> int:
        return self.bytes_by_direction.get("answer", 0)

    @classmethod
    def from_trace(cls, trace: Trace | None, query_id: str = "") -> "QueryMetrics":
        """Derive the record from one (possibly stitched) query trace.

        ``query_id`` defaults to the first id stamped on a span.
        """
        if not trace:
            return cls(query_id=query_id)
        index = _by_name(trace)
        query = _attrs(index, names.QUERY)
        cloud = _attrs(index, names.CLOUD_ANSWER)
        matching = _attrs(index, names.CLOUD_STAR_MATCHING)
        client = _attrs(index, names.CLIENT_FILTER)
        per_shard = [
            {
                "shard": span.attributes.get("shard", -1),
                "results": span.attributes.get("results", 0),
                "seconds": span.duration,
                "pid": span.pid,
            }
            for span in index.get(names.CLOUD_SHARD_MATCH, ())
        ]
        per_shard.sort(key=itemgetter("shard"))
        return cls(
            query_id=query_id
            or next((span.query_id for span in trace if span.query_id), ""),
            status=_attrs(index, names.GATEWAY_REQUEST).get("status", ""),
            method=query.get("method", ""),
            k=query.get("k", 0),
            query_edges=query.get("query_edges", 0),
            stars=_attrs(index, names.CLOUD_DECOMPOSE).get("stars", 0),
            shards=matching.get("shards", 0),
            dispatched=names.GATEWAY_DISPATCH in index,
            rs_size=cloud.get("rs_size", 0),
            rin_size=cloud.get("rin_size", 0),
            matches=cloud.get("matches", 0),
            candidate_count=client.get("candidates", 0),
            result_count=client.get("results", 0),
            dropped_vertex=client.get("dropped_vertex", 0),
            dropped_edge=client.get("dropped_edge", 0),
            dropped_label=client.get("dropped_label", 0),
            anchored=client.get("anchored", False),
            bytes_by_direction={
                direction: sum(span.attributes.get("bytes", 0) for span in index[name])
                for direction, name in names.NETWORK_SPANS.items()
                if name in index
            },
            network_seconds=_attrs(index, names.NETWORK_QUERY).get(
                "simulated_seconds", 0.0
            )
            + _attrs(index, names.NETWORK_ANSWER).get("simulated_seconds", 0.0),
            phases=layers(trace),
            per_shard=per_shard,
            wall_seconds=trace.total_seconds,
            span_count=len(trace),
            process_count=len({span.pid for span in trace if span.pid}),
        )

    def render_text(self) -> str:
        """The EXPLAIN report: plan, sizes, wire, phases, shard lanes."""
        lines = [
            f"EXPLAIN query {self.query_id or '<untraced>'}"
            + (f"  status={self.status}" if self.status else ""),
            f"  plan: {self.stars} star(s)"
            + (f" over {self.shards} shard(s)" if self.shards else "")
            # an answered gateway request the gateway did not dispatch
            # was served from a coalesced leader; a refused one has no
            # dispatch span either
            + ("  [coalesced]" if self.status == "ok" and not self.dispatched else ""),
            f"  sizes: |RS|={self.rs_size}  |Rin|={self.rin_size}  "
            f"matches={self.matches}  candidates={self.candidate_count}  "
            f"results={self.result_count}",
            f"  client: dropped vertex={self.dropped_vertex}  "
            f"edge={self.dropped_edge}  label={self.dropped_label}  "
            f"rin={'anchored' if self.anchored else 'unanchored or pre-expanded'}",
        ]
        if self.bytes_by_direction:
            parts = "  ".join(
                f"{direction}={count}"
                for direction, count in sorted(self.bytes_by_direction.items())
            )
            lines.append(f"  wire bytes: {parts}")
        if self.phases:
            lines.append("  phases:")
            width = max(map(len, self.phases))
            for name, seconds in self.phases.items():
                lines.append(f"    {name:<{width}}  {seconds * 1000:9.3f} ms")
        if self.per_shard:
            lines.append("  shards:")
            for lane in self.per_shard:
                lines.append(
                    f"    shard {lane['shard']}: results={lane['results']}  "
                    f"pid={lane['pid']}  {lane['seconds'] * 1000:.3f} ms"
                )
        lines.append(
            f"  wall: {self.wall_seconds * 1000:.3f} ms over "
            f"{self.span_count} span(s) in {self.process_count} process(es)"
        )
        return "\n".join(lines)

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
    much.
    """

    worker_count: int = 1
    wall_seconds: float = 0.0
    per_query: list[QueryMetrics] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.per_query)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.query_count / self.wall_seconds

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
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchMetrics":
        data = dict(data)
        data["per_query"] = [
            QueryMetrics.from_dict(run) for run in data.get("per_query", [])
        ]
        return cls(**data)


def _mean_of(attr: str) -> property:
    """A read-only field: the mean of ``attr`` over the runs."""
    return property(lambda self: self._mean(attr))


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

    # the per-run cloud/client seconds share the canonical metric
    # names; the constants keep the view keyed to the taxonomy (R2)
    cloud_seconds = _mean_of(names.M_CLOUD_SECONDS)
    star_matching_seconds = _mean_of("star_matching_seconds")
    client_seconds = _mean_of(names.M_CLIENT_SECONDS)
    network_seconds = _mean_of("network_seconds")
    total_seconds = _mean_of("total_seconds")
    rs_size = _mean_of("rs_size")
    rin_size = _mean_of("rin_size")
    answer_bytes = _mean_of("answer_bytes")

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
