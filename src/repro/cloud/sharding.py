"""Sharded scatter-gather cloud: the candidate centers split into ranges.

The paper's cloud holds ``Go`` and one VBV/LBV index over the candidate
centers in one machine.  :class:`ShardedCloud` keeps both and splits
only the work, the way STwig explores locally, ships a flat block and
joins centrally: shard ``i`` is a contiguous range ``[lo, hi)`` of
positions in that one index (``center_vertices[lo:hi]``), and its star
tables are Algorithm 1 with the candidate-center mask ANDed with the
range's bits.  The coordinator's one star cache sits in front of the
scatter: only the stars it lacks are sent, and a plan it holds in full
scatters nothing.

**Bit-identity.**  The kernel emits centers in ascending index
position, each with a deterministic DFS row block.  The ranges are
disjoint, ascending and cover every position once, so concatenating
the shard tables in range order *is* the single server's table, rows
and order.  Decomposition, the index, the central join, budget
enforcement and telemetry are not re-implemented here at all:
:class:`ShardedCloud` *is* a :class:`~repro.cloud.server.CloudServer`
that overrides how the star tables the cache lacks are produced,
making :meth:`ShardedCloud.answer` bit-identical to the single-server
path for every shard count and scatter backend.

The handoff between coordinator and shards is in-memory: the serial
loop, or a warm fork pool whose children inherit the index
copy-on-write and whose pipe carries the plan out and the tables back.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.cloud.index import CloudIndex
from repro.cloud.parallel import (
    PersistentProcessPool,
    effective_workers,
    fork_available,
    validate_backend,
)
from repro.cloud.server import CloudServer, match_plan
from repro.core.protocol import TraceContext
from repro.exceptions import ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.star import Star
from repro.matching.table import MatchTable, Row
from repro.obs import NULL_TRACER, Observability, names
from repro.obs.tracing import NullSpan, Span, Trace, Tracer


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

    Untraced: the coordinator records one ``cloud.shard_match`` span
    per shard, not one per star.
    """
    within = ((1 << len(centers)) - 1) << centers.start
    return match_plan(
        query, stars, index, graph, max_results, NULL_TRACER, within=within
    )


#: One scatter task: (shard id, its range, query, star plan, trace-context doc).
ScatterPayload = tuple[int, range, AttributedGraph, tuple[Star, ...], dict | None]
#: Its reply: the shard's star tables and, when traced, the child's trace doc.
ScatterReply = tuple[dict[int, MatchTable], dict | None]


class ShardedCloud(CloudServer):
    """Scatter-gather coordinator over ``N`` ranges of candidate centers.

    A :class:`~repro.cloud.server.CloudServer` that overrides one stage
    of the pipeline: :meth:`_match_stars` scatters the stars the star
    cache lacks to the shards and concatenates the gathered tables.
    The index, decomposition, the star cache, join, budget, telemetry
    and ``apply_delta`` are inherited.
    Construction takes the server's parameters plus:

    shards:
        Requested shard count; ``len(cloud.shards)`` is the effective
        count (lower only when there are fewer candidate centers).
    backend / max_workers:
        How star-match requests are scattered: ``"serial"`` (default)
        visits the shards in a loop; ``"process"`` scatters through a
        persistent :class:`~repro.cloud.parallel.PersistentProcessPool`
        — children inherit the index copy-on-write at first use and
        stay warm across answers (so the page-faulting cost of the
        inherited heap is paid once, not per query).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        avt: AlignmentVertexTable,
        center_vertices: list[int],
        shards: int = 2,
        expand_in_cloud: bool = True,
        max_intermediate_results: int | None = None,
        star_cache_size: int = 0,
        decomposition_strategy: str = "optimal",
        backend: str = "serial",
        max_workers: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        validate_backend(backend)
        self.shard_count = shards
        self.backend = backend
        self.max_workers = max_workers
        # created before super().__init__(): its _build_index() takes it
        self._state_lock = threading.Lock()
        # persistent fork pool of the process backend: forked lazily on
        # the first process scatter and reused across answers so the
        # children's copy-on-write faulting of the index is paid once,
        # not per query.  Dropped whenever the index it snapshotted is
        # rebuilt, when a child dies, and by close().
        self._scatter_pool: PersistentProcessPool | None = None  #: guarded by _state_lock
        super().__init__(
            graph,
            avt,
            center_vertices,
            expand_in_cloud=expand_in_cloud,
            max_intermediate_results=max_intermediate_results,
            star_cache_size=star_cache_size,
            decomposition_strategy=decomposition_strategy,
            obs=obs,
        )

    def _build_index(self) -> None:
        """Index the stored graph and drain a stale scatter pool.

        A pool forked over the previous index holds it copy-on-write
        and would answer against it forever.
        """
        super()._build_index()
        with self._state_lock:
            stale, self._scatter_pool = self._scatter_pool, None
        if stale is not None:
            stale.close()

    @property
    def shards(self) -> list[range]:
        """The shards: position ranges over the current index."""
        return center_ranges(len(self.index.indexed_vertices), self.shard_count)

    # ------------------------------------------------------------------
    # scatter / gather
    # ------------------------------------------------------------------
    def _make_scatter_worker(self) -> Callable[[ScatterPayload], ScatterReply]:
        """The fixed callable a persistent scatter pool is bound to.

        Captures the current index and graph rather than reading
        ``self`` so the forked children never touch the coordinator's
        state lock (a lock inherited mid-acquisition would deadlock the
        child); per task only the payload tuple crosses the pipe.  When
        the payload carries a trace-context doc, the child records its
        shard-match span on a private tracer and ships the trace doc
        back with the tables — the coordinator absorbs it under its
        ``cloud.star_matching`` span, making fork-child work visible in
        the stitched trace.
        """
        index, graph = self.index, self.graph
        budget = self.max_intermediate_results

        def run(payload: ScatterPayload) -> ScatterReply:
            shard_id, centers, query, stars, ctx_doc = payload
            if ctx_doc is None:
                return match_range(query, stars, index, graph, centers, budget), None
            context = TraceContext.from_doc(ctx_doc)
            child_tracer = Tracer(query_id=context.query_id)
            with child_tracer.span(
                names.CLOUD_SHARD_MATCH,
                shard=shard_id,
                ctx_parent=context.parent_span_id,
            ) as span:
                tables = match_range(query, stars, index, graph, centers, budget)
                span.set(results=sum(len(t) for t in tables.values()))
            return tables, child_tracer.take_trace().to_dict()

        return run

    def _process_scatter_pool(
        self, shard_count: int
    ) -> PersistentProcessPool | None:
        """The warm fork pool to scatter over, or ``None`` for the loop.

        ``None`` whenever forking cannot pay or cannot happen: serial
        backend, one shard, one worker, no fork on this platform.  The
        pool is forked lazily, over the index current at that moment.
        """
        if self.backend != "process" or shard_count <= 1:
            return None
        workers = effective_workers(self.max_workers, shard_count)
        if workers <= 1 or not fork_available():
            return None
        with self._state_lock:
            if self._scatter_pool is None:
                self._scatter_pool = PersistentProcessPool(
                    self._make_scatter_worker(), workers
                )
            return self._scatter_pool

    def _discard_scatter_pool(self, pool: PersistentProcessPool) -> None:
        """Drop ``pool`` (a child died); the next answer forks afresh."""
        with self._state_lock:
            if self._scatter_pool is pool:
                self._scatter_pool = None
        pool.close()

    def _match_stars(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        obs: Observability,
        span: "Span | NullSpan",
    ) -> dict[int, MatchTable]:
        """Scatter ``stars``, gather the shard tables in range order.

        Returns the per-star tables — the single server's, rows and
        order.  Shard work parents under ``span``, the coordinator's
        ``cloud.star_matching``.
        """
        tracer = obs.tracer
        budget = self.max_intermediate_results
        index = self.index
        shards = center_ranges(len(index.indexed_vertices), self.shard_count)
        span.set(shards=len(shards))

        per_shard: list[dict[int, MatchTable]] | None = None
        pool = self._process_scatter_pool(len(shards))
        if pool is not None:
            # warm persistent children; when tracing, each child records
            # its shard-match span on a private tracer and ships the
            # trace back for absorption under the star-matching span
            # (fresh local ids — child counters all start at 1 and would
            # collide).
            ctx_doc = None
            if tracer.recording and span.span_id:
                ctx_doc = TraceContext(
                    query_id=tracer.query_id, parent_span_id=span.span_id
                ).to_doc()
            plan = tuple(stars)
            try:
                shipped = pool.map(
                    [
                        (shard_id, centers, query, plan, ctx_doc)
                        for shard_id, centers in enumerate(shards)
                    ]
                )
            except BrokenProcessPool:
                # a child died (OOM kill, crash).  The pool is unusable
                # for good: drop it, answer this plan through the loop
                # below — bit-identical by construction — and let the
                # next answer fork a fresh pool.
                self._discard_scatter_pool(pool)
            else:
                per_shard = []
                for tables, trace_doc in shipped:
                    per_shard.append(tables)
                    if trace_doc is not None:
                        tracer.absorb(Trace.from_dict(trace_doc), parent=span)
        if per_shard is None:
            per_shard = []
            for shard_id, centers in enumerate(shards):
                with tracer.span(
                    names.CLOUD_SHARD_MATCH, parent=span, shard=shard_id
                ) as shard_span:
                    tables = match_range(
                        query, stars, index, self.graph, centers, budget
                    )
                    shard_span.set(results=sum(len(t) for t in tables.values()))
                per_shard.append(tables)

        with tracer.span(names.CLOUD_GATHER) as gather_span:
            results: dict[int, MatchTable] = {}
            for star in stars:
                rows: list[Row] = []
                for tables in per_shard:
                    rows.extend(tables[star.center].rows)
                if budget is not None and len(rows) > budget:
                    # a shard-local trip would already have raised in the
                    # scatter; this catches unions that only exceed the
                    # budget once gathered — exactly the queries the
                    # single server rejects.
                    raise ResultBudgetExceeded("star matching", len(rows), budget)
                results[star.center] = MatchTable((star.center, *star.leaves), rows)
            gather_span.set(rs_size=sum(len(table) for table in results.values()))
        return results

    def close(self) -> None:
        """Tear down the persistent scatter pool (if one was forked)."""
        with self._state_lock:
            stale, self._scatter_pool = self._scatter_pool, None
        if stale is not None:
            stale.close()


def build_cloud(
    graph: AttributedGraph,
    avt: AlignmentVertexTable,
    center_vertices: list[int],
    *,
    shards: int = 1,
    shard_backend: str = "serial",
    expand_in_cloud: bool = True,
    max_intermediate_results: int | None = None,
    star_cache_size: int = 0,
    obs: Observability | None = None,
) -> CloudServer:
    """Stand up the cloud of one deployment.

    The one place that maps a shard count to a topology: the paper's
    single :class:`~repro.cloud.server.CloudServer`, or — for
    ``shards > 1`` — a :class:`ShardedCloud` scattering over
    ``shard_backend``.  Answers are bit-identical either way.
    """
    if shards > 1:
        return ShardedCloud(
            graph,
            avt,
            center_vertices,
            shards=shards,
            expand_in_cloud=expand_in_cloud,
            max_intermediate_results=max_intermediate_results,
            star_cache_size=star_cache_size,
            backend=shard_backend,
            obs=obs,
        )
    return CloudServer(
        graph,
        avt,
        center_vertices,
        expand_in_cloud=expand_in_cloud,
        max_intermediate_results=max_intermediate_results,
        star_cache_size=star_cache_size,
        obs=obs,
    )
