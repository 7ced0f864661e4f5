"""Sharded scatter-gather cloud: ``Go`` partitioned across N servers.

The paper's cloud holds all of ``Go`` in one machine.  This module
scales the same engine horizontally, the way STwig partitions billion
node graphs over Trinity: the coordinator splits ``Go`` into ``N``
shards with the multilevel partitioner
(:func:`repro.kauto.partition.partition_graph` — the privacy argument:
the partitioner is a pure structural algorithm run on the *published*
graph the cloud already stores, so no owner/client secret is
consulted), scatters each query's star plan to every shard, and joins
the gathered per-shard tables centrally.  The coordinator's one star
cache sits in front of the scatter: only the stars it lacks are sent,
and a plan it holds in full scatters nothing.

**Halo construction.**  A star anchored at center ``c`` touches only
``c`` and its direct neighbours, so shard ``i`` stores its centers
(``block_i ∩ center_vertices``) plus a one-hop *halo* of every
neighbour of those centers.  Within the shard subgraph each local
center then has exactly its ``Go`` neighbourhood — star matching
against the shard is bit-identical to matching the same center against
the full graph.  Halo vertices are storage overlap only: they are
never indexed as centers, so each candidate center lives in exactly
one shard.

**Bit-identity.**  Single-server star tables list centers in
``center_vertices`` order (the VBV yields candidates in ascending bit
position) with a deterministic DFS row block per center.  Shard-local
center lists preserve the global order, so gathering is a stable merge
of the per-shard tables keyed by each row's global center position —
followed by a defensive dedupe — and reproduces the single-server
table exactly, rows and order.  Decomposition, the central join,
budget enforcement and telemetry are not re-implemented here at all:
:class:`ShardedCloud` *is* a :class:`~repro.cloud.server.CloudServer`
that overrides how the index is built and how the star tables the
cache lacks are produced, making :meth:`ShardedCloud.answer` bit-identical to the
single-server path for every shard count and scatter backend.

The handoff between coordinator and shards is in-memory: the serial
loop, or a warm fork pool whose pipe carries the plan out and the
tables back.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.markers import hot_path
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
from repro.kauto.partition import partition_graph
from repro.matching.star import Star
from repro.matching.table import MatchTable, Row, dedupe_rows
from repro.obs import NULL_TRACER, Observability, names
from repro.obs.tracing import NullSpan, Span, Trace, Tracer


@dataclass
class CloudShard:
    """One shard server: a slice of ``Go`` with its own index.

    ``centers`` is this shard's subsequence of the global
    ``center_vertices`` list (global order preserved — the merge step
    depends on it); ``graph`` is the induced subgraph over the centers
    plus their one-hop halo; ``index`` is built over it as a standalone
    :class:`~repro.cloud.server.CloudServer` builds its own.
    """

    shard_id: int
    centers: list[int]
    graph: AttributedGraph
    index: CloudIndex

    def index_size_bytes(self) -> int:
        return self.index.size_bytes()

    def match(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        max_results: int | None,
    ) -> dict[int, MatchTable]:
        """The star tables over this shard's slice of ``Go``.

        The same star loop the single server runs.  Untraced: the
        coordinator records one ``cloud.shard_match`` span per shard,
        not one per star.
        """
        return match_plan(
            query, stars, self.index, self.graph, max_results, NULL_TRACER
        )


def halo_vertices(graph: AttributedGraph, centers: Sequence[int]) -> set[int]:
    """The shard's vertex set: centers plus every direct neighbour.

    One hop suffices: a star match binds the center and vertices
    adjacent to it, and leaf label checks only read vertex data — no
    leaf-to-leaf edges are ever consulted (those belong to other stars
    of the decomposition).
    """
    keep: set[int] = set(centers)
    for center in centers:
        keep |= graph.neighbors(center)
    return keep


def build_shards(
    graph: AttributedGraph,
    center_vertices: Sequence[int],
    shards: int,
    seed: int = 0,
) -> list[CloudShard]:
    """Partition ``graph`` and stand up one :class:`CloudShard` per block.

    Blocks that receive no candidate centers are dropped (they would
    answer every request with empty tables), so the returned list may
    be shorter than ``shards`` on small graphs.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    position = {vid: i for i, vid in enumerate(center_vertices)}
    if shards == 1:
        blocks = [list(center_vertices)]
    else:
        blocks = partition_graph(graph, shards, seed=seed)
    built: list[CloudShard] = []
    for block in blocks:
        members = set(block)
        centers = [vid for vid in center_vertices if vid in members]
        if not centers:
            continue
        shard_graph = graph.induced_subgraph(
            halo_vertices(graph, centers), name=f"shard-{len(built)}"
        )
        built.append(
            CloudShard(
                shard_id=len(built),
                centers=centers,
                graph=shard_graph,
                index=CloudIndex.build(shard_graph, centers),
            )
        )
    # re-assert the global invariant the merge relies on: every center
    # in exactly one shard, in global order within each
    assert sum(len(s.centers) for s in built) == len(position)
    return built


@hot_path
def merge_star_tables(
    star: Star, tables: Sequence[MatchTable], position: dict[int, int]
) -> MatchTable:
    """Gather one star's per-shard tables into the single-server table.

    Rows are keyed by the global position of their center (column 0 of
    the star schema); each shard's rows arrive already ordered by it,
    and shard center sets are disjoint, so a stable sort reconstructs
    exactly the order the full-graph kernel emits.  The trailing dedupe
    is defensive — halo vertices are never indexed, so duplicates can
    only come from a misbehaving shard reply.
    """
    schema = (star.center, *star.leaves)
    rows: list[Row] = []
    for table in tables:
        if table.schema == schema:
            rows.extend(table.rows)
        else:
            rows.extend(table.project_rows(schema))
    rows.sort(key=lambda row: position[row[0]])
    return MatchTable(schema, dedupe_rows(rows))


#: One scatter task: (shard position, query, star plan, trace-context doc).
ScatterPayload = tuple[int, AttributedGraph, tuple[Star, ...], dict | None]
#: Its reply: the shard's star tables and, when traced, the child's trace doc.
ScatterReply = tuple[dict[int, MatchTable], dict | None]


class ShardedCloud(CloudServer):
    """Scatter-gather coordinator over ``N`` :class:`CloudShard` servers.

    A :class:`~repro.cloud.server.CloudServer` (the coordinator still
    holds the full published graph — it is the data the owner uploaded;
    the shards are the cloud's *internal* layout) that overrides two
    stages of the pipeline: :meth:`_build_index` partitions the graph
    into shard servers, and :meth:`_match_stars` scatters the stars the
    star cache lacks to them and merges the gathered tables.
    Decomposition, the star cache, join, budget, telemetry and
    ``apply_delta`` are inherited.
    Construction takes the server's parameters plus:

    shards:
        Requested shard count.  Shards whose partition block holds no
        candidate center are dropped; ``len(cloud.shards)`` is the
        effective count.
    backend / max_workers:
        How star-match requests are scattered: ``"serial"`` (default)
        visits the shards in a loop; ``"process"`` scatters through a
        persistent :class:`~repro.cloud.parallel.PersistentProcessPool`
        — children inherit the shard state copy-on-write at first use
        and stay warm across answers (so the page-faulting cost of the
        inherited heap is paid once, not per query).
    partition_seed:
        Seed of the multilevel partitioner (answers are bit-identical
        for every seed; the seed only shapes the shard layout).
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
        partition_seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        validate_backend(backend)
        self.shard_count = shards
        self.backend = backend
        self.max_workers = max_workers
        self.partition_seed = partition_seed
        # created before super().__init__(): its _build_index() takes it
        self._state_lock = threading.Lock()
        self._shards: list[CloudShard] = []  #: guarded by _state_lock
        # persistent fork pool of the process backend: forked lazily on
        # the first process scatter and reused across answers so the
        # children's copy-on-write faulting of the shard heap is paid
        # once, not per query.  Dropped (under the lock that swaps the
        # shards) whenever the state it snapshotted changes, when a
        # child dies, and by close().
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

    # ------------------------------------------------------------------
    # shard state
    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        """Partition the stored graph into shard servers.

        Each shard gets its own index.  A scatter pool forked over the
        previous shards is drained: its children hold the old graph
        copy-on-write and would answer against it forever.
        """
        rebuilt = build_shards(
            self.graph,
            self.center_vertices,
            self.shard_count,
            seed=self.partition_seed,
        )
        self._center_position = {
            vid: i for i, vid in enumerate(self.center_vertices)
        }
        with self._state_lock:
            self._shards = rebuilt
            stale, self._scatter_pool = self._scatter_pool, None
        if stale is not None:
            stale.close()

    @property
    def shards(self) -> list[CloudShard]:
        """A snapshot of the current shard servers."""
        with self._state_lock:
            return list(self._shards)

    # ------------------------------------------------------------------
    # scatter / gather
    # ------------------------------------------------------------------
    def _make_scatter_worker(
        self, shards: list[CloudShard]
    ) -> Callable[[ScatterPayload], ScatterReply]:
        """The fixed callable a persistent scatter pool is bound to.

        Captures an explicit shard snapshot rather than reading
        ``self._shards`` so the forked children never touch the
        coordinator's state lock (a lock inherited mid-acquisition
        would deadlock the child); per task only the payload tuple
        crosses the pipe.  When the payload carries a trace-context
        doc, the child records its shard-match span on a private
        tracer and ships the trace doc back with the tables — the
        coordinator absorbs it under its ``cloud.star_matching`` span,
        making fork-child work visible in the stitched trace.
        """
        budget = self.max_intermediate_results

        def run(payload: ScatterPayload) -> ScatterReply:
            position, query, stars, ctx_doc = payload
            shard = shards[position]
            if ctx_doc is None:
                return shard.match(query, stars, budget), None
            context = TraceContext.from_doc(ctx_doc)
            child_tracer = Tracer(query_id=context.query_id)
            with child_tracer.span(
                names.CLOUD_SHARD_MATCH,
                shard=shard.shard_id,
                ctx_parent=context.parent_span_id,
            ) as span:
                tables = shard.match(query, stars, budget)
                span.set(results=sum(len(t) for t in tables.values()))
            return tables, child_tracer.take_trace().to_dict()

        return run

    def _process_scatter_pool(
        self, shard_count: int
    ) -> PersistentProcessPool | None:
        """The warm fork pool to scatter over, or ``None`` for the loop.

        ``None`` whenever forking cannot pay or cannot happen: serial
        backend, one shard, one worker, no fork on this platform.  The
        pool is forked lazily, over the shards current at that moment.
        """
        if self.backend != "process" or shard_count <= 1:
            return None
        workers = effective_workers(self.max_workers, shard_count)
        if workers <= 1 or not fork_available():
            return None
        with self._state_lock:
            if self._scatter_pool is None:
                self._scatter_pool = PersistentProcessPool(
                    self._make_scatter_worker(list(self._shards)), workers
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
        """Scatter ``stars``, gather and merge the shard tables.

        Returns the merged per-star tables — the single server's, rows
        and order.  Shard work parents under ``span``, the coordinator's
        ``cloud.star_matching``; the raw pre-merge shard result count
        goes to the ``shard_star_matches_total`` counter.
        """
        tracer = obs.tracer
        budget = self.max_intermediate_results
        with self._state_lock:
            shards = list(self._shards)
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
                        (position, query, plan, ctx_doc)
                        for position in range(len(shards))
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
            for shard in shards:
                with tracer.span(
                    names.CLOUD_SHARD_MATCH, parent=span, shard=shard.shard_id
                ) as shard_span:
                    tables = shard.match(query, stars, budget)
                    shard_span.set(results=sum(len(t) for t in tables.values()))
                per_shard.append(tables)

        with tracer.span(names.CLOUD_GATHER) as gather_span:
            results: dict[int, MatchTable] = {}
            shard_results = 0
            for star in stars:
                tables = [
                    shard_tables[star.center]
                    for shard_tables in per_shard
                    if star.center in shard_tables
                ]
                shard_results += sum(len(table) for table in tables)
                merged = merge_star_tables(star, tables, self._center_position)
                if budget is not None and len(merged) > budget:
                    # a shard-local trip would already have raised in the
                    # scatter; this catches unions that only exceed the
                    # budget once merged — exactly the queries the single
                    # server rejects.
                    raise ResultBudgetExceeded(
                        "star matching", len(merged), budget
                    )
                results[star.center] = merged
            gather_span.set(
                rs_size=sum(len(table) for table in results.values()),
                shard_results=shard_results,
            )
        obs.metrics.counter(
            names.M_SHARD_MATCHES,
            help="Per-shard star matches gathered (pre-merge).",
        ).inc(shard_results)
        return results

    def close(self) -> None:
        """Tear down the persistent scatter pool (if one was forked)."""
        with self._state_lock:
            stale, self._scatter_pool = self._scatter_pool, None
        if stale is not None:
            stale.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Total bytes across every shard's VBV/LBV tables."""
        with self._state_lock:
            return sum(shard.index_size_bytes() for shard in self._shards)

    def index_build_seconds(self) -> float:
        """Summed shard index build time (they build sequentially)."""
        with self._state_lock:
            return sum(shard.index.build_seconds for shard in self._shards)


def build_cloud(
    graph: AttributedGraph,
    avt: AlignmentVertexTable,
    center_vertices: list[int],
    *,
    shards: int = 1,
    shard_backend: str = "serial",
    partition_seed: int = 0,
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
            partition_seed=partition_seed,
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
