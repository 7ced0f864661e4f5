"""The cloud server: index construction and query answering.

One :class:`CloudServer` instance plays the role of the paper's cloud
machine.  It receives a published graph (``Go`` + AVT for the optimized
methods, or the full ``Gk`` for the BAS baseline), builds the VBV/LBV
index offline, and answers anonymized subgraph queries ``Qo`` with the
decompose → star-match → join pipeline of Section 4.2.1.  With
``shards=N`` it scatters the star matching over N ranges of that one
index through a warm fork pool (:mod:`repro.cloud.sharding`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

from repro.anonymize.cost_model import (
    StarCardinalityEstimator,
    estimator_from_outsourced,
)
from repro.cloud.decomposition import decompose_query
from repro.cloud.index import CloudIndex
from repro.cloud.parallel import PersistentProcessPool, effective_workers
from repro.cloud.result_join import JoinStats, join_star_tables
from repro.cloud.sharding import center_ranges, scatter_worker
from repro.cloud.star_matching import StarMatchStats, match_plan
from repro.core.protocol import TraceContext
from repro.exceptions import ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
from repro.graph.stats import compute_statistics
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match
from repro.matching.star import Decomposition, Star
from repro.matching.table import MatchTable, Row
from repro.obs import Observability, names
from repro.obs.tracing import NullSpan, Span, Trace
from repro.outsource.delta import GoDelta


@dataclass
class CloudAnswer:
    """Everything the cloud returns for one query, with telemetry.

    The result set is a columnar
    :class:`~repro.matching.table.MatchTable` (``table``); the
    dict-form :attr:`matches` view is a read-only convenience for the
    system boundary, materialized on first access, so the serving path
    (the system pipeline, the gateway, the CLI) never pays the
    conversion.  Its phase times are the spans of the scope passed to
    :meth:`CloudServer.answer` (read them with :func:`repro.obs.layers`).
    """

    table: MatchTable
    expanded: bool
    decomposition: Decomposition
    star_stats: StarMatchStats
    join_stats: JoinStats
    _matches: list[Match] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def matches(self) -> list[Match]:
        """Dict-form results (lazily converted from :attr:`table`)."""
        matches = self._matches
        if matches is None:
            matches = self._matches = self.table.to_matches()
        return matches

    @property
    def rs_size(self) -> int:
        """``|RS|`` of Figure 19: total star matches before the join."""
        return self.star_stats.total_results


class CloudServer:
    """Honest-but-curious cloud: stores published data, answers queries.

    Parameters
    ----------
    graph:
        The published graph — ``Go`` (optimized) or ``Gk`` (BAS).
    avt:
        The Alignment Vertex Table (published alongside the graph).
    center_vertices:
        The candidate star centers: block ``B1`` for the optimized
        methods, every vertex for BAS.
    expand_in_cloud:
        ``True`` -> star matches are expanded through the automorphic
        functions before the join (the ``Rin`` pipeline).  ``False``
        (BAS) -> the star matches already range over the published
        graph in full and are joined directly.
    obs:
        The :class:`~repro.obs.Observability` scope the server reports
        into.  Default: ``Observability.disabled()`` (no spans, no
        metrics).  Pass a recording scope for traces.
    shards:
        How many ranges of candidate centers the star matching is split
        into; ``len(server.shards)`` is the effective count (lower only
        when there are fewer candidate centers).  At ``N >= 2`` the
        stars are scattered over a persistent fork pool
        of one worker per range: forked lazily at the first scatter,
        the children inherit the index copy-on-write and stay warm
        across answers.  1, a platform without fork, a fork child of
        this server, or a pool whose child died answer through the
        single-server loop instead — bit-identical either way.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        avt: AlignmentVertexTable,
        center_vertices: list[int],
        expand_in_cloud: bool = True,
        max_intermediate_results: int | None = None,
        decomposition_strategy: str = "optimal",
        obs: Observability | None = None,
        shards: int = 1,
    ) -> None:
        if decomposition_strategy not in ("optimal", "greedy"):
            raise ValueError("decomposition_strategy must be 'optimal' or 'greedy'")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shard_count = shards
        # the warm scatter pool: forked lazily by the first scatter,
        # reused across answers, dropped when the index it snapshotted
        # is rebuilt, when a child dies, by close(), and when this
        # server is garbage.  Only the process that built the server
        # scatters: a fork child (a forked batch worker) inherits the
        # pool object but not its workers.
        self._state_lock = threading.Lock()
        self._scatter_pool: PersistentProcessPool | None = None  #: guarded by _state_lock
        self._home_pid = os.getpid()
        self.graph = graph
        self.avt = avt
        self.center_vertices = list(center_vertices)
        self.expand_in_cloud = expand_in_cloud
        self.max_intermediate_results = max_intermediate_results
        self.decomposition_strategy = decomposition_strategy
        self.obs = obs if obs is not None else Observability.disabled()
        self._build_index()
        self.estimator = self._build_estimator()

    def _build_index(self) -> None:
        """Index the stored graph and drain a stale scatter pool.

        Runs at construction and again after every :meth:`apply_delta`:
        a pool forked over the previous index holds it copy-on-write
        and would answer against it forever.
        """
        self.index = CloudIndex.build(self.graph, self.center_vertices)
        self.close()

    @property
    def shards(self) -> list[range]:
        """The shards: position ranges over the current index."""
        return center_ranges(len(self.index.indexed_vertices), self.shard_count)

    def _build_estimator(self) -> StarCardinalityEstimator:
        if self.expand_in_cloud:
            return estimator_from_outsourced(
                self.center_vertices, self.graph, self.avt.k
            )
        stats = compute_statistics(self.graph)
        return StarCardinalityEstimator(
            block_stats=stats,
            gk_vertex_count=self.graph.vertex_count,
            average_degree=self.graph.average_degree(),
            k=1,
        )

    # ------------------------------------------------------------------
    # query answering
    # ------------------------------------------------------------------
    def answer(
        self, query: AttributedGraph, obs: Observability | None = None
    ) -> CloudAnswer:
        """Run the full cloud pipeline on an anonymized query ``Qo``.

        ``obs`` overrides the server's own observability scope for this
        one query — :class:`repro.core.system.PrivacyPreservingSystem`
        passes each query's private recording scope here so the spans
        land in that query's trace; its phase times are those spans'
        durations.
        """
        if obs is None:
            obs = self.obs
        tracer = obs.tracer

        with tracer.span(names.CLOUD_ANSWER) as root:
            with tracer.span(names.CLOUD_DECOMPOSE) as decompose_span:
                decomposition = decompose_query(
                    query, self.estimator, strategy=self.decomposition_strategy
                )
                decompose_span.set(stars=len(decomposition.stars))

            stars = decomposition.stars
            with tracer.span(
                names.CLOUD_STAR_MATCHING, stars=len(stars)
            ) as matching_span:
                star_tables = self._match_stars(query, stars, obs, matching_span)
                star_stats = StarMatchStats(
                    result_sizes={
                        star.center: len(star_tables[star.center])
                        for star in stars
                    }
                )
                matching_span.set(rs_size=star_stats.total_results)
            with tracer.span(names.CLOUD_JOIN) as join_span:
                rin_table, join_stats = join_star_tables(
                    decomposition.stars,
                    star_tables,
                    self.avt,
                    expand=self.expand_in_cloud,
                    max_intermediate=self.max_intermediate_results,
                )
                join_span.set(
                    rin_size=join_stats.rin_size,
                    intermediate_peak=max(
                        join_stats.intermediate_sizes, default=0
                    ),
                )
            root.set(
                rs_size=star_stats.total_results,
                rin_size=join_stats.rin_size,
                matches=len(rin_table),
                expanded=not self.expand_in_cloud,
            )

        metrics = obs.metrics
        metrics.counter(
            names.M_STAR_MATCHES,
            help="Star matches (|RS|) produced across all queries.",
        ).inc(star_stats.total_results)
        metrics.gauge(
            names.M_INTERMEDIATE_PEAK,
            help="Largest join intermediate seen by any query.",
        ).set_max(max(join_stats.intermediate_sizes, default=0))
        if tracer.enabled:  # a span is the only clock
            metrics.histogram(
                names.M_CLOUD_SECONDS,
                help="Cloud-side wall seconds per query.",
            ).observe(root.duration)

        return CloudAnswer(
            table=rin_table,
            expanded=not self.expand_in_cloud,
            decomposition=decomposition,
            star_stats=star_stats,
            join_stats=join_stats,
        )

    def _match_stars(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        obs: Observability,
        span: "Span | NullSpan",
    ) -> dict[int, MatchTable]:
        """The star tables of ``stars``, by center.

        Scattered over the shards when there is a pool to scatter
        through, else :func:`match_plan` over the whole stored graph.
        ``span`` is the enclosing ``cloud.star_matching`` span: shard
        work parents under it.
        """
        pool = self._warm_scatter_pool()
        if pool is not None:
            shards = self.shards
            tracer = obs.tracer
            # when tracing, each child records its shard-match span on a
            # private tracer and ships the trace back for absorption
            # under the star-matching span (fresh local ids — child
            # counters all start at 1 and would collide)
            ctx_doc = None
            if tracer.enabled and span.span_id:
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
                self._drop_scatter_pool(pool)
            else:
                span.set(shards=len(shards))
                for _, trace_doc in shipped:
                    if trace_doc is not None:
                        tracer.absorb(Trace.from_dict(trace_doc), parent=span)
                return self._gather(stars, [tables for tables, _ in shipped], obs)
        return match_plan(
            query,
            stars,
            self.index,
            self.graph,
            self.max_intermediate_results,
            obs.tracer,
        )

    def _gather(
        self,
        stars: Sequence[Star],
        per_shard: list[dict[int, MatchTable]],
        obs: Observability,
    ) -> dict[int, MatchTable]:
        """Concatenate the shard tables in range order: the single
        server's rows and order."""
        budget = self.max_intermediate_results
        with obs.tracer.span(names.CLOUD_GATHER) as gather_span:
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

    def _warm_scatter_pool(self) -> PersistentProcessPool | None:
        """The warm fork pool to scatter the shards over, or ``None``
        for the single-server loop.

        ``None`` whenever a scatter cannot happen: one range, no fork on
        this platform, or this process is a fork child of the one that
        built the server.  The pool is forked lazily, over the index
        current at that moment, with one worker per range.
        """
        if self.shard_count <= 1 or os.getpid() != self._home_pid:
            return None
        workers = effective_workers(
            self.shard_count, len(self.index.indexed_vertices)
        )
        if workers <= 1:
            return None
        with self._state_lock:
            if self._scatter_pool is None:
                self._scatter_pool = PersistentProcessPool(
                    scatter_worker(
                        self.index, self.graph, self.max_intermediate_results
                    ),
                    workers,
                    owner=self,
                )
            return self._scatter_pool

    def _drop_scatter_pool(self, pool: PersistentProcessPool) -> None:
        """Drop ``pool`` (a child died); the next answer forks afresh."""
        with self._state_lock:
            if self._scatter_pool is pool:
                self._scatter_pool = None
        pool.close()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GoDelta) -> None:
        """Apply a :class:`repro.outsource.GoDelta` from the data owner.

        Updates the stored graph, extends the AVT with any shipped
        rows, rebuilds the index and the estimator — everything a
        real cloud would do on an incremental update.  Only meaningful
        for ``Go`` deployments (``expand_in_cloud=True``); a BAS cloud
        stores ``Gk`` verbatim and is re-uploaded instead.
        """
        from repro.outsource.delta import apply_go_delta
        from repro.outsource.outsourced_graph import OutsourcedGraph

        if not self.expand_in_cloud:
            raise ValueError("deltas apply to Go deployments only")
        outsourced = OutsourcedGraph(
            graph=self.graph, block_vertices=self.center_vertices
        )
        apply_go_delta(outsourced, delta)
        self.center_vertices = outsourced.block_vertices
        if delta.added_avt_rows:
            rows = [list(row) for row in self.avt.rows()]
            rows.extend(delta.added_avt_rows)
            self.avt = AlignmentVertexTable(rows)
        self._build_index()
        self.estimator = self._build_estimator()

    def close(self) -> None:
        """Tear down the scatter pool, if one was forked (idempotent).

        Also happens when the server is garbage.
        """
        with self._state_lock:
            stale, self._scatter_pool = self._scatter_pool, None
        if stale is not None:
            stale.close()

    def __enter__(self) -> "CloudServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        return self.index.size_bytes()
