"""Shards: the candidate centers split into ranges of index positions.

The paper's cloud holds ``Go`` and one VBV/LBV index over the candidate
centers in one machine.  A sharded :class:`~repro.cloud.server.CloudServer`
keeps both and splits only the work, the way STwig explores locally,
ships a flat block and joins centrally: shard ``i`` is a contiguous
range ``[lo, hi)`` of positions in that one index
(``center_vertices[lo:hi]``), and its star tables are Algorithm 1 with
the candidate-center mask ANDed with the range's bits.

**Bit-identity.**  The kernel emits centers in ascending index
position, each with a deterministic DFS row block.  The ranges are
disjoint, ascending and cover every position once, so concatenating
the shard tables in range order *is* the single server's table, rows
and order.

This module holds the pieces a fork child runs: the ranges, one
shard's star tables, and the worker a persistent fork pool is bound to.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cloud.index import CloudIndex
from repro.cloud.star_matching import match_plan
from repro.core.protocol import TraceContext
from repro.graph.attributed import AttributedGraph
from repro.matching.star import Star
from repro.matching.table import MatchTable
from repro.obs import NULL_TRACER, names
from repro.obs.tracing import Tracer


def center_ranges(count: int, shards: int) -> list[range]:
    """The shards over ``count`` index positions.

    At most ``shards`` non-empty, contiguous, ascending ranges of
    near-equal size that cover ``range(count)`` exactly once — fewer
    when there are fewer positions than shards.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    parts = min(shards, count)
    return [
        range(count * i // parts, count * (i + 1) // parts) for i in range(parts)
    ]


def match_range(
    query: AttributedGraph,
    stars: Sequence[Star],
    index: CloudIndex,
    graph: AttributedGraph,
    centers: range,
    max_results: int | None,
) -> dict[int, MatchTable]:
    """One shard's star tables: :func:`match_plan` over ``centers``' positions.

    Untraced: the scatter records one ``cloud.shard_match`` span per
    shard, not one per star.
    """
    within = ((1 << len(centers)) - 1) << centers.start
    return match_plan(
        query, stars, index, graph, max_results, NULL_TRACER, within=within
    )


#: One scatter task: (shard id, its range, query, star plan, trace-context doc).
ScatterPayload = tuple[int, range, AttributedGraph, tuple[Star, ...], dict | None]
#: Its reply: the shard's star tables and, when traced, the child's trace doc.
ScatterReply = tuple[dict[int, MatchTable], dict | None]


def scatter_worker(
    index: CloudIndex, graph: AttributedGraph, max_results: int | None
) -> Callable[[ScatterPayload], ScatterReply]:
    """The fixed callable a persistent scatter pool is bound to.

    Captures the index and graph, never the server: the forked children
    must not touch the server's state lock (a lock inherited
    mid-acquisition would deadlock the child), and a pool that held the
    server could never let it be garbage.  Per task only the payload
    tuple crosses the pipe.  When the payload carries a trace-context
    doc, the child records its shard-match span on a private tracer and
    ships the trace doc back with the tables — the coordinator absorbs
    it under its ``cloud.star_matching`` span, making fork-child work
    visible in the stitched trace.
    """

    def run(payload: ScatterPayload) -> ScatterReply:
        shard_id, centers, query, stars, ctx_doc = payload
        if ctx_doc is None:
            return match_range(query, stars, index, graph, centers, max_results), None
        context = TraceContext.from_doc(ctx_doc)
        child_tracer = Tracer(query_id=context.query_id)
        with child_tracer.span(
            names.CLOUD_SHARD_MATCH,
            shard=shard_id,
            ctx_parent=context.parent_span_id,
        ) as span:
            tables = match_range(query, stars, index, graph, centers, max_results)
            span.set(results=sum(len(t) for t in tables.values()))
        return tables, child_tracer.take_trace().to_dict()

    return run
