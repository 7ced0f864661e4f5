"""Per-query EXPLAIN: one report answering "where did this query go?".

An :class:`ExplainReport` is a *view* over a (possibly stitched,
cross-process) :class:`~repro.obs.tracing.Trace` — the same derivation
discipline as :mod:`repro.obs.views`: every field reads named spans of
the canonical taxonomy (:mod:`repro.obs.names`), never a hand-threaded
ledger.  Because the trace may chain client -> gateway -> cloud ->
shards -> fork children (see ``Tracer.absorb``), the report can
attribute time, bytes, candidate sizes and admission outcomes across
all four process boundaries of the serving path.

Surfaces: ``QueryOptions(explain=True)`` attaches one per outcome, the
``repro explain`` CLI command renders one for an ad-hoc query, and the
telemetry server's ``/traces/<query_id>`` endpoint serves the raw
trace it derives from.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs import names
from repro.obs.tracing import Trace

#: The per-phase timing rows of the text report, in pipeline order.
#: Only phases that actually appear in the trace are rendered.
PHASE_SPANS = (
    names.CLIENT_SUBMIT,
    names.GATEWAY_REQUEST,
    names.GATEWAY_DISPATCH,
    names.QUERY,
    names.CLIENT_ANONYMIZE,
    names.CLOUD_ANSWER,
    names.CLOUD_DECOMPOSE,
    names.CLOUD_STAR_MATCHING,
    names.CLOUD_SHARD_MATCH,
    names.CLOUD_GATHER,
    names.CLOUD_JOIN,
    names.CLOUD_EXPAND,
    names.CLIENT_EXPAND,
    names.CLIENT_FILTER,
)


@dataclass
class ShardWork:
    """One shard's (or fork child's) slice of the star matching."""

    shard: int
    results: int
    seconds: float
    pid: int = 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class PhaseTiming:
    """Total wall seconds spent in one named phase (across its spans)."""

    name: str
    seconds: float
    count: int = 1

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ExplainReport:
    """What one query cost, phase by phase and boundary by boundary.

    Derived entirely from the stitched trace; ``from_trace`` is total
    (missing spans degrade to zeros/empties, never raise), so a report
    can always be rendered — even for a partial or untraced run.
    """

    query_id: str = ""
    status: str = ""
    # -- plan ----------------------------------------------------------
    stars: int = 0
    shards: int = 0
    dispatched: bool = False  # False: answer served from a coalesced leader
    # -- result/candidate sizes ---------------------------------------
    rs_size: int = 0
    rin_size: int = 0
    matches: int = 0
    candidates: int = 0
    results: int = 0
    # -- client filter: candidates dropped per Algorithm-3 check, and
    # whether Rin was anchored in B1 (streamed) or took the fallback
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0
    anchored: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    # -- wire ----------------------------------------------------------
    bytes_by_direction: dict[str, int] = field(default_factory=dict)
    # -- timings -------------------------------------------------------
    phases: list[PhaseTiming] = field(default_factory=list)
    per_shard: list[ShardWork] = field(default_factory=list)
    total_seconds: float = 0.0
    span_count: int = 0
    process_count: int = 0

    @classmethod
    def from_trace(cls, trace: Trace | None, query_id: str = "") -> "ExplainReport":
        """Derive the report from one (stitched) query trace."""
        if trace is None or not len(trace):
            return cls(query_id=query_id)
        if not query_id:
            query_id = next(
                (span.query_id for span in trace if span.query_id), ""
            )
        gateway_root = trace.first(names.GATEWAY_REQUEST)
        cloud_root = trace.first(names.CLOUD_ANSWER)
        cattrs = cloud_root.attributes if cloud_root is not None else {}
        bytes_by_direction = {
            direction: int(trace.sum_attr(span_name, "bytes"))
            for direction, span_name in names.NETWORK_SPANS.items()
            if trace.first(span_name) is not None
        }
        phases = [
            PhaseTiming(
                name=name,
                seconds=trace.duration(name),
                count=len(trace.named(name)),
            )
            for name in PHASE_SPANS
            if trace.first(name) is not None
        ]
        per_shard = [
            ShardWork(
                shard=int(span.attributes.get("shard", -1)),
                results=int(span.attributes.get("results", 0)),
                seconds=span.duration,
                pid=span.pid,
            )
            for span in trace.named(names.CLOUD_SHARD_MATCH)
        ]
        per_shard.sort(key=lambda work: work.shard)
        return cls(
            query_id=query_id,
            status=(
                str(gateway_root.attributes.get("status", ""))
                if gateway_root is not None
                else ""
            ),
            stars=int(trace.attr(names.CLOUD_DECOMPOSE, "stars", 0)),
            shards=int(trace.attr(names.CLOUD_STAR_MATCHING, "shards", 0)),
            dispatched=trace.first(names.GATEWAY_DISPATCH) is not None,
            rs_size=int(cattrs.get("rs_size", 0)),
            rin_size=int(cattrs.get("rin_size", 0)),
            matches=int(cattrs.get("matches", 0)),
            candidates=int(trace.attr(names.CLIENT_FILTER, "candidates", 0)),
            results=int(trace.attr(names.CLIENT_FILTER, "results", 0)),
            dropped_vertex=int(trace.attr(names.CLIENT_FILTER, "dropped_vertex", 0)),
            dropped_edge=int(trace.attr(names.CLIENT_FILTER, "dropped_edge", 0)),
            dropped_label=int(trace.attr(names.CLIENT_FILTER, "dropped_label", 0)),
            anchored=bool(trace.attr(names.CLIENT_FILTER, "anchored", False)),
            cache_hits=int(
                trace.attr(names.CLOUD_STAR_MATCHING, "cache_hits", 0)
            ),
            cache_misses=int(
                trace.attr(names.CLOUD_STAR_MATCHING, "cache_misses", 0)
            ),
            bytes_by_direction=bytes_by_direction,
            phases=phases,
            per_shard=per_shard,
            total_seconds=trace.total_seconds,
            span_count=len(trace),
            process_count=len({span.pid for span in trace if span.pid}),
        )

    # -- renderers -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "status": self.status,
            "stars": self.stars,
            "shards": self.shards,
            "dispatched": self.dispatched,
            "rs_size": self.rs_size,
            "rin_size": self.rin_size,
            "matches": self.matches,
            "candidates": self.candidates,
            "results": self.results,
            "dropped_vertex": self.dropped_vertex,
            "dropped_edge": self.dropped_edge,
            "dropped_label": self.dropped_label,
            "anchored": self.anchored,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "bytes_by_direction": dict(self.bytes_by_direction),
            "phases": [phase.to_dict() for phase in self.phases],
            "per_shard": [work.to_dict() for work in self.per_shard],
            "total_seconds": self.total_seconds,
            "span_count": self.span_count,
            "process_count": self.process_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExplainReport":
        data = dict(data)
        data["phases"] = [
            PhaseTiming(**entry) for entry in data.get("phases", [])
        ]
        data["per_shard"] = [
            ShardWork(**entry) for entry in data.get("per_shard", [])
        ]
        return cls(**data)

    def render_text(self) -> str:
        """The human report: plan, sizes, wire, phases, shard lanes."""
        lines = [
            f"EXPLAIN query {self.query_id or '<untraced>'}"
            + (f"  status={self.status}" if self.status else ""),
            f"  plan: {self.stars} star(s)"
            + (f" over {self.shards} shard(s)" if self.shards else "")
            # only a gateway-served request can be coalesced: it has a
            # gateway.request span (status) but no gateway.dispatch
            + ("  [coalesced]" if self.status and not self.dispatched else ""),
            f"  sizes: |RS|={self.rs_size}  |Rin|={self.rin_size}  "
            f"matches={self.matches}  candidates={self.candidates}  "
            f"results={self.results}",
            f"  client: dropped vertex={self.dropped_vertex}  "
            f"edge={self.dropped_edge}  label={self.dropped_label}  "
            f"rin={'anchored' if self.anchored else 'unanchored or pre-expanded'}",
            f"  cache: {self.cache_hits} hit(s) / "
            f"{self.cache_misses} miss(es)",
        ]
        if self.bytes_by_direction:
            parts = "  ".join(
                f"{direction}={count}"
                for direction, count in sorted(self.bytes_by_direction.items())
            )
            lines.append(f"  wire bytes: {parts}")
        if self.phases:
            lines.append("  phases:")
            width = max(len(phase.name) for phase in self.phases)
            for phase in self.phases:
                suffix = f"  x{phase.count}" if phase.count > 1 else ""
                lines.append(
                    f"    {phase.name:<{width}}  "
                    f"{phase.seconds * 1000:9.3f} ms{suffix}"
                )
        if self.per_shard:
            lines.append("  shards:")
            for work in self.per_shard:
                lines.append(
                    f"    shard {work.shard}: results={work.results}  "
                    f"pid={work.pid}  {work.seconds * 1000:.3f} ms"
                )
        lines.append(
            f"  total: {self.total_seconds * 1000:.3f} ms over "
            f"{self.span_count} span(s) in {self.process_count} process(es)"
        )
        return "\n".join(lines)


__all__ = ["ExplainReport", "PhaseTiming", "ShardWork", "PHASE_SPANS"]
