"""The cloud server: index construction and query answering.

One :class:`CloudServer` instance plays the role of the paper's cloud
machine.  It receives a published graph (``Go`` + AVT for the optimized
methods, or the full ``Gk`` for the BAS baseline), builds the VBV/LBV
index offline, and answers anonymized subgraph queries ``Qo`` with the
decompose → star-match → join pipeline of Section 4.2.1.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

from repro.anonymize.cost_model import (
    StarCardinalityEstimator,
    estimator_from_outsourced,
)
from repro.cloud.cache import StarMatchCache
from repro.cloud.decomposition import decompose_query
from repro.cloud.index import CloudIndex
from repro.analysis.markers import hot_path
from repro.cloud.result_join import JoinStats, join_star_tables
from repro.cloud.star_matching import StarMatchStats, match_star_table
from repro.graph.attributed import AttributedGraph
from repro.graph.stats import compute_statistics
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match
from repro.matching.star import Decomposition, Star
from repro.matching.table import MatchTable
from repro.obs import Observability, SlidingWindow, names
from repro.obs.tracing import NullSpan, NullTracer, Span, Trace
from repro.outsource.delta import GoDelta


@dataclass
class CloudAnswer:
    """Everything the cloud returns for one query, with telemetry.

    The result set is a columnar
    :class:`~repro.matching.table.MatchTable` (``table``); the
    dict-form :attr:`matches` view is a read-only convenience for the
    system boundary, materialized on first access, so the serving path
    (the system pipeline, the gateway, the CLI) never pays the
    conversion.

    ``cloud_seconds`` is the wall time of the cloud-side pipeline (the
    ``cloud.answer`` span's duration); ``trace``, when the caller
    passed a recording :class:`~repro.obs.Observability`, holds every
    span the answer produced.
    """

    table: MatchTable
    expanded: bool
    decomposition: Decomposition
    decomposition_seconds: float
    star_stats: StarMatchStats
    join_stats: JoinStats
    cloud_seconds: float
    trace: Trace | None = None
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


@hot_path
def match_plan(
    query: AttributedGraph,
    stars: Sequence[Star],
    index: CloudIndex,
    graph: AttributedGraph,
    max_results: int | None,
    tracer: NullTracer,
    within: int = -1,
) -> dict[int, MatchTable]:
    """Algorithm 1 for every star of one plan.

    The one star loop of the cloud: the single server runs it over
    every indexed center, each shard of a
    :class:`~repro.cloud.sharding.ShardedCloud` over the center
    positions set in ``within`` (its range).  Tables are columnar
    (schema ``(center, *leaves)``).  Each star runs the
    kernel under its own ``cloud.star_match`` span.  The star cache sits
    in front of the topology (:meth:`CloudServer.answer`), so only its
    misses get here.
    """
    results: dict[int, MatchTable] = {}
    for star in stars:
        with tracer.span(names.CLOUD_STAR_MATCH, center=star.center) as span:
            table = match_star_table(
                query, star, index, graph, max_results=max_results, within=within
            )
            span.set(results=len(table))
        results[star.center] = table
    return results


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
        into.  Default: a measure-only scope (span durations fill the
        :class:`CloudAnswer` telemetry, nothing is retained — same cost
        as the hand-rolled timing it replaced).  Pass a recording scope
        for full traces, or ``Observability.disabled()`` for a no-op
        hot path (telemetry fields then read ``0.0``).  The star-cache
        hit/miss counters are exported as pull-gauges on its registry.

    :class:`~repro.cloud.sharding.ShardedCloud` subclasses this server
    and replaces how the star tables the cache lacks are produced
    (:meth:`_match_stars`); everything else on this class, the index
    and the star cache included, is the one pipeline both topologies
    run.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        avt: AlignmentVertexTable,
        center_vertices: list[int],
        expand_in_cloud: bool = True,
        max_intermediate_results: int | None = None,
        star_cache_size: int = 0,
        decomposition_strategy: str = "optimal",
        obs: Observability | None = None,
    ) -> None:
        if decomposition_strategy not in ("optimal", "greedy"):
            raise ValueError("decomposition_strategy must be 'optimal' or 'greedy'")
        self.graph = graph
        self.avt = avt
        self.center_vertices = list(center_vertices)
        self.expand_in_cloud = expand_in_cloud
        self.max_intermediate_results = max_intermediate_results
        self.decomposition_strategy = decomposition_strategy
        # capacity of the LRU over star match sets, keyed by the star's
        # canonical constraint signature — different queries sharing a
        # star shape reuse its R(S, Go).  0 disables caching.  A cache
        # is internally locked, so one instance is shared by all
        # concurrent queries.
        self.star_cache_size = star_cache_size
        self.obs = obs if obs is not None else Observability.measuring()
        with self.obs.tracer.span(names.CLOUD_INDEX_BUILD) as span:
            self._build_index()
            span.set(
                index_bytes=self.index_size_bytes(),
                build_seconds=self.index_build_seconds(),
            )
        self.star_cache = StarMatchCache(star_cache_size)
        self.estimator = self._build_estimator()
        # pull-style gauges: the cache already counts hits/misses under
        # its own lock, so the registry reads them at snapshot time
        # instead of double-counting on the hot path — through a weak
        # proxy: server -> obs -> registry -> callback must not loop back.
        server = weakref.proxy(self)
        self.obs.metrics.register_callback(
            names.M_CACHE_HITS,
            lambda: float(server.star_cache.hits),
            help="Star-cache hits since server start (or last clear).",
        )
        self.obs.metrics.register_callback(
            names.M_CACHE_MISSES,
            lambda: float(server.star_cache.misses),
            help="Star-cache misses since server start (or last clear).",
        )
        # sliding-window SLO view of the cloud phase: quantiles are
        # computed at scrape time only (pull callbacks), the answer path
        # pays one deque append — and none at all under a null scope.
        self.latency_window = SlidingWindow(capacity=1024)
        self.latency_window.register(
            self.obs.metrics,
            names.W_CLOUD_WINDOW,
            help="Cloud-side answer seconds over the SLO window.",
        )

    def _build_index(self) -> None:
        """Index the stored graph.

        Runs at construction and again after every :meth:`apply_delta`.
        """
        self.index = CloudIndex.build(self.graph, self.center_vertices)

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
        land in that query's trace.  Every timing the answer reports is
        a span duration; no hand-rolled ``perf_counter`` pairs remain.
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
                star_tables, hits = self.star_cache.plan_tables(
                    query,
                    stars,
                    lambda misses: self._match_stars(
                        query, misses, obs, matching_span
                    ),
                )
                star_stats = StarMatchStats(
                    result_sizes={
                        star.center: len(star_tables[star.center])
                        for star in stars
                    }
                )
                matching_span.set(
                    rs_size=star_stats.total_results,
                    cache_hits=hits,
                    cache_misses=len(stars) - hits,
                )
            star_stats.seconds = matching_span.duration
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
        metrics.histogram(
            names.M_CLOUD_SECONDS,
            help="Cloud-side wall seconds per query.",
        ).observe(root.duration)
        if obs.enabled:
            self.latency_window.observe(root.duration)

        return CloudAnswer(
            table=rin_table,
            expanded=not self.expand_in_cloud,
            decomposition=decomposition,
            decomposition_seconds=decompose_span.duration,
            star_stats=star_stats,
            join_stats=join_stats,
            cloud_seconds=root.duration,
        )

    def _match_stars(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        obs: Observability,
        span: "Span | NullSpan",
    ) -> dict[int, MatchTable]:
        """The star tables of ``stars`` (the cache's misses), by center.

        The stage a topology supplies.  Here: :func:`match_plan` over
        the whole stored graph.  ``span`` is the enclosing
        ``cloud.star_matching`` span, for topology attributes.
        """
        return match_plan(
            query,
            stars,
            self.index,
            self.graph,
            self.max_intermediate_results,
            obs.tracer,
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GoDelta) -> None:
        """Apply a :class:`repro.outsource.GoDelta` from the data owner.

        Updates the stored graph, extends the AVT with any shipped
        rows, rebuilds the index and invalidates caches — everything a
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
        # a fresh cache rather than a cleared one: a query still running
        # on the old release stores into the cache it started with
        self.star_cache = StarMatchCache(self.star_cache_size)
        self.estimator = self._build_estimator()

    def close(self) -> None:
        """Release what the server holds beyond memory (idempotent).

        Nothing on a single server; a sharded one drains its fork pool.
        """

    def __enter__(self) -> "CloudServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        return self.index.size_bytes()

    def index_build_seconds(self) -> float:
        return self.index.build_seconds
