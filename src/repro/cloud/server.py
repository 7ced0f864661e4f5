"""The cloud server: index construction and query answering.

One :class:`CloudServer` instance plays the role of the paper's cloud
machine.  It receives a published graph (``Go`` + AVT for the optimized
methods, or the full ``Gk`` for the BAS baseline), builds the VBV/LBV
index offline, and answers anonymized subgraph queries ``Qo`` with the
decompose → star-match → join pipeline of Section 4.2.1.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.anonymize.cost_model import (
    StarCardinalityEstimator,
    estimator_from_outsourced,
)
from repro.cloud.cache import (
    StarMatchCache,
    leaf_role_order,
    roles_to_table,
    star_signature,
    table_to_roles,
)
from repro.cloud.decomposition import decompose_query
from repro.cloud.index import CloudIndex
from repro.cloud.parallel import map_batch, validate_backend
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
    star_workers:
        Width of the per-query star-matching pool: the independent
        stars of one decomposition are matched concurrently on a
        shared :class:`ThreadPoolExecutor`.  ``0``/``1`` (default)
        keeps the paper's serial loop; the parallel path returns
        bit-identical match sets (stars are gathered in plan order).
    obs:
        The :class:`~repro.obs.Observability` scope the server reports
        into.  Default: a measure-only scope (span durations fill the
        :class:`CloudAnswer` telemetry, nothing is retained — same cost
        as the hand-rolled timing it replaced).  Pass a recording scope
        for full traces, or ``Observability.disabled()`` for a no-op
        hot path (telemetry fields then read ``0.0``).  The star-cache
        hit/miss counters are exported as pull-gauges on its registry.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        avt: AlignmentVertexTable,
        center_vertices: list[int],
        expand_in_cloud: bool = True,
        max_intermediate_results: int | None = None,
        join_strategy: str = "rin",
        star_cache_size: int = 0,
        decomposition_strategy: str = "optimal",
        engine: str = "stars",
        star_workers: int = 0,
        obs: Observability | None = None,
    ) -> None:
        if join_strategy not in ("rin", "full"):
            raise ValueError("join_strategy must be 'rin' or 'full'")
        if decomposition_strategy not in ("optimal", "greedy"):
            raise ValueError("decomposition_strategy must be 'optimal' or 'greedy'")
        if engine not in ("stars", "direct"):
            raise ValueError("engine must be 'stars' or 'direct'")
        if engine == "direct" and expand_in_cloud:
            raise ValueError(
                "the direct engine matches over the stored graph verbatim; "
                "it applies to full-Gk (BAS) deployments only"
            )
        self.graph = graph
        self.avt = avt
        self.center_vertices = list(center_vertices)
        self.expand_in_cloud = expand_in_cloud
        self.max_intermediate_results = max_intermediate_results
        # "rin": Algorithm 2's optimization — the anchor star stays in
        # B1 and Rin is returned.  "full": the straightforward strategy
        # (every star expanded, R(Qo, Gk) computed outright); kept for
        # the ablation study.
        self.join_strategy = join_strategy
        self.decomposition_strategy = decomposition_strategy
        # "stars": the paper's decompose → match → join pipeline.
        # "direct": plain subgraph matching over the stored graph with
        # the bitset engine — an ablation baseline for BAS that
        # quantifies what the star framework buys.
        self.engine = engine
        self._direct_matcher = None  #: guarded by _state_lock
        # optional LRU over star match sets, keyed by the star's
        # canonical constraint signature — different queries sharing a
        # star shape reuse its R(S, Go).  0 disables caching.  The
        # cache is internally locked, so one instance is shared by all
        # concurrent queries of a batch.
        self.star_cache = StarMatchCache(star_cache_size)
        if star_workers < 0:
            raise ValueError("star_workers must be >= 0")
        self.star_workers = star_workers
        # per-query star pool, built lazily.  _star_pool_pid detects
        # forked children (process batch backend), whose inherited pool
        # threads do not survive the fork and must be rebuilt before
        # first use.
        self._star_pool: ThreadPoolExecutor | None = None  #: guarded by _state_lock
        self._star_pool_pid: int | None = None  #: guarded by _state_lock
        self._state_lock = threading.Lock()
        self.obs = obs if obs is not None else Observability.measuring()
        with self.obs.tracer.span(names.CLOUD_INDEX_BUILD) as span:
            self.index = CloudIndex.build(graph, self.center_vertices)
            span.set(
                index_bytes=self.index.size_bytes(),
                build_seconds=self.index.build_seconds,
            )
        self.estimator = self._build_estimator()
        # pull-style gauges: the cache already counts hits/misses under
        # its own lock, so the registry reads them at snapshot time
        # instead of double-counting on the hot path.
        self.obs.metrics.register_callback(
            names.M_CACHE_HITS,
            lambda: float(self.star_cache.hits),
            help="Star-cache hits since server start (or last clear).",
        )
        self.obs.metrics.register_callback(
            names.M_CACHE_MISSES,
            lambda: float(self.star_cache.misses),
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
        self,
        query: AttributedGraph,
        obs: Observability | None = None,
        star_workers: int | None = None,
    ) -> CloudAnswer:
        """Run the full cloud pipeline on an anonymized query ``Qo``.

        ``obs`` overrides the server's own observability scope for this
        one query — :class:`repro.core.system.PrivacyPreservingSystem`
        passes each query's private recording scope here so the spans
        land in that query's trace.  Every timing the answer reports is
        a span duration; no hand-rolled ``perf_counter`` pairs remain.

        ``star_workers`` overrides the configured intra-query star
        parallelism for this one call (``QueryOptions.star_workers``);
        results stay bit-identical either way.
        """
        if obs is None:
            obs = self.obs
        if self.engine == "direct":
            return self._answer_direct(query, obs)
        tracer = obs.tracer

        with tracer.span(names.CLOUD_ANSWER) as root:
            with tracer.span(names.CLOUD_DECOMPOSE) as decompose_span:
                decomposition = decompose_query(
                    query, self.estimator, strategy=self.decomposition_strategy
                )
                decompose_span.set(stars=len(decomposition.stars))

            star_tables, star_stats = self._match_stars(
                query,
                decomposition.stars,
                tracer=tracer,
                star_workers=star_workers,
            )
            full_join = self.join_strategy == "full"
            with tracer.span(names.CLOUD_JOIN) as join_span:
                rin_table, join_stats = join_star_tables(
                    decomposition.stars,
                    star_tables,
                    self.avt,
                    expand=self.expand_in_cloud,
                    max_intermediate=self.max_intermediate_results,
                    expand_anchor=full_join,
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
                expanded=not self.expand_in_cloud or full_join,
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
            expanded=not self.expand_in_cloud or full_join,
            decomposition=decomposition,
            decomposition_seconds=decompose_span.duration,
            star_stats=star_stats,
            join_stats=join_stats,
            cloud_seconds=root.duration,
        )

    def query_batch(
        self,
        queries: list[AttributedGraph],
        max_workers: int | None = None,
        backend: str = "thread",
    ) -> list[CloudAnswer]:
        """Answer a workload of anonymized queries concurrently.

        A bounded worker pool (``max_workers``, default: one per core)
        services the batch; every worker shares the immutable VBV/LBV
        index and the thread-safe :class:`StarMatchCache`, so repeated
        star shapes across the workload hit warm entries.  Answers come
        back **in input order** and are bit-identical to running
        :meth:`answer` in a serial loop (``backend="serial"`` *is* that
        loop).  ``backend="process"`` forks workers for CPU-bound
        batches on multi-core hosts; cache/counter updates then stay in
        the children (the parent's cache is untouched).

        The first query exception (e.g.
        :class:`~repro.exceptions.ResultBudgetExceeded`) propagates,
        matching the serial loop's behavior.
        """
        validate_backend(backend)
        return map_batch(self.answer, list(queries), max_workers, backend)

    def _answer_direct(
        self, query: AttributedGraph, obs: Observability
    ) -> CloudAnswer:
        """Plain bitset subgraph matching over the stored graph."""
        from repro.matching.bitset import BitsetMatcher

        with obs.tracer.span(names.CLOUD_ANSWER, engine="direct") as root:
            # R3 (lock discipline): every _direct_matcher access happens
            # under _state_lock — concurrent batch queries must neither
            # race to build two matchers nor observe apply_delta()'s
            # invalidation mid-build.  The lock is held across the lazy
            # build; later queries pay one uncontended acquire.
            with self._state_lock:
                matcher = self._direct_matcher
                if matcher is None:
                    matcher = self._direct_matcher = BitsetMatcher(self.graph)
            matches = matcher.find_matches(query)
            root.set(
                rs_size=len(matches),
                rin_size=len(matches),
                matches=len(matches),
            )
        elapsed = root.duration
        # The direct engine matches the whole query as one pseudo-star,
        # so its result set *is* |RS|.  Reporting result_sizes under the
        # sentinel key -1 (no query vertex is negative) keeps rs_size,
        # the span attribute above and the M_STAR_MATCHES counter
        # consistent with the stars engine — they all used to read 0
        # here, under-counting every direct-engine query.
        stats = StarMatchStats(seconds=elapsed, result_sizes={-1: len(matches)})
        join_stats = JoinStats(seconds=0.0, rin_size=len(matches))
        obs.metrics.counter(
            names.M_STAR_MATCHES,
            help="Star matches (|RS|) produced across all queries.",
        ).inc(len(matches))
        obs.metrics.histogram(
            names.M_CLOUD_SECONDS,
            help="Cloud-side wall seconds per query.",
        ).observe(elapsed)
        if obs.enabled:
            self.latency_window.observe(elapsed)
        return CloudAnswer(
            # schema = the sorted query vertex ids: the wire order, so
            # encoding the answer is a straight row copy
            table=MatchTable.from_matches(matches, sorted(query.vertex_ids())),
            expanded=True,
            decomposition=Decomposition(stars=[]),
            decomposition_seconds=0.0,
            star_stats=stats,
            join_stats=join_stats,
            cloud_seconds=elapsed,
        )

    def _star_executor(self) -> ThreadPoolExecutor | None:
        """The shared per-query star pool (lazy; fork-aware)."""
        if self.star_workers <= 1:
            return None
        pid = os.getpid()
        with self._state_lock:
            if self._star_pool is None or self._star_pool_pid != pid:
                # a forked child inherits a pool object whose worker
                # threads died with the fork; build a fresh one
                self._star_pool = ThreadPoolExecutor(
                    max_workers=self.star_workers,
                    thread_name_prefix="repro-stars",
                )
                self._star_pool_pid = pid
            return self._star_pool

    def _star_executor_for(
        self, star_workers: int | None
    ) -> tuple[ThreadPoolExecutor | None, ThreadPoolExecutor | None]:
        """Resolve a per-call worker override to ``(executor, transient)``.

        ``None`` (or the configured value) reuses the shared lazy pool;
        a differing override builds a transient pool the caller must
        shut down (returned as the second element).
        """
        if star_workers is None or star_workers == self.star_workers:
            return self._star_executor(), None
        if star_workers <= 1:
            return None, None
        pool = ThreadPoolExecutor(
            max_workers=star_workers, thread_name_prefix="repro-stars-call"
        )
        return pool, pool

    def _match_one_star(self, query: AttributedGraph, star: Star) -> MatchTable:
        return match_star_table(
            query,
            star,
            self.index,
            self.graph,
            max_results=self.max_intermediate_results,
        )

    def _match_one_star_traced(
        self,
        query: AttributedGraph,
        star: Star,
        tracer: NullTracer,
        parent: "Span | NullSpan",
    ) -> MatchTable:
        """One star under its own span; ``parent`` re-attaches the span
        to the ``cloud.star_matching`` span opened on the submitting
        thread (pool threads have no implicit span stack)."""
        with tracer.span(
            names.CLOUD_STAR_MATCH, parent=parent, center=star.center
        ) as span:
            table = self._match_one_star(query, star)
            span.set(results=len(table))
        return table

    def _match_stars(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        tracer: NullTracer | None = None,
        star_workers: int | None = None,
    ) -> tuple[dict[int, MatchTable], StarMatchStats]:
        """Algorithm 1 for every star, through the optional LRU cache.

        Results are columnar :class:`~repro.matching.table.MatchTable`
        instances (schema ``(center, *leaves)``); the cache keeps its
        role-form tuple wire format, now written/read through the
        columnar codec (:func:`~repro.cloud.cache.table_to_roles` /
        :func:`~repro.cloud.cache.roles_to_table`).

        With ``star_workers > 1`` the cache misses of one decomposition
        are matched concurrently on the shared star pool; hits, puts
        and result assembly stay on the calling thread.  Both paths
        produce bit-identical results: equivalent stars within one
        query resolve through the same role-form round-trip, and
        results are assembled in plan (star) order.

        Every computed (cache-missed) star emits a ``cloud.star_match``
        span under the enclosing ``cloud.star_matching`` span — on the
        executor path the per-star spans are parented explicitly, since
        pool threads do not inherit the caller's span stack.
        """
        if tracer is None:
            tracer = self.obs.tracer
        stats = StarMatchStats()
        use_cache = self.star_cache.capacity > 0
        executor, transient = self._star_executor_for(star_workers)
        results: dict[int, MatchTable] = {}

        try:
            return self._match_stars_on(
                query, stars, tracer, executor, use_cache, stats, results
            )
        finally:
            if transient is not None:
                transient.shutdown(wait=True)

    def _match_stars_on(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        tracer: NullTracer,
        executor: ThreadPoolExecutor | None,
        use_cache: bool,
        stats: StarMatchStats,
        results: dict[int, MatchTable],
    ) -> tuple[dict[int, MatchTable], StarMatchStats]:
        with tracer.span(
            names.CLOUD_STAR_MATCHING, stars=len(stars)
        ) as matching_span:
            if executor is None:
                for star in stars:
                    if use_cache:
                        signature = star_signature(query, star)
                        role_order = leaf_role_order(query, star)
                        roles = self.star_cache.get(signature)
                        if roles is None:
                            table = self._match_one_star_traced(
                                query, star, tracer, matching_span
                            )
                            self.star_cache.put(
                                signature,
                                table_to_roles(table, star, role_order),
                            )
                        else:
                            table = roles_to_table(roles, star, role_order)
                    else:
                        table = self._match_one_star_traced(
                            query, star, tracer, matching_span
                        )
                    results[star.center] = table
            else:
                # resolve cache hits up front; fan the misses out,
                # deduped by signature so equivalent stars are computed
                # once (as the serial put-then-hit sequence guarantees)
                pending: list[tuple] = []  # (star, signature, role_order)
                computed: dict[tuple, object] = {}  # signature -> future
                for star in stars:
                    if not use_cache:
                        pending.append((star, None, None))
                        continue
                    signature = star_signature(query, star)
                    role_order = leaf_role_order(query, star)
                    roles = self.star_cache.get(signature)
                    if roles is None:
                        pending.append((star, signature, role_order))
                    else:
                        results[star.center] = roles_to_table(
                            roles, star, role_order
                        )
                futures = []
                for star, signature, role_order in pending:
                    if signature is not None and signature in computed:
                        futures.append((star, signature, role_order, None))
                        continue
                    future = executor.submit(
                        self._match_one_star_traced,
                        query,
                        star,
                        tracer,
                        matching_span,
                    )
                    if signature is not None:
                        computed[signature] = (star, role_order, future)
                    futures.append((star, signature, role_order, future))
                for star, signature, role_order, future in futures:
                    if signature is None:
                        results[star.center] = future.result()
                        continue
                    rep_star, rep_order, rep_future = computed[signature]
                    table = rep_future.result()
                    roles = table_to_roles(table, rep_star, rep_order)
                    self.star_cache.put(signature, roles)
                    if star is rep_star:
                        results[star.center] = table
                    else:
                        # an equivalent star of the same query: re-label
                        # the representative's roles, like a cache hit
                        results[star.center] = roles_to_table(
                            roles, star, role_order
                        )
                results = {star.center: results[star.center] for star in stars}

            for star in stars:
                stats.result_sizes[star.center] = len(results[star.center])
            matching_span.set(rs_size=stats.total_results)
        stats.seconds = matching_span.duration
        return results, stats

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
        from repro.kauto.avt import AlignmentVertexTable
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
        self.index = CloudIndex.build(self.graph, self.center_vertices)
        self.estimator = self._build_estimator()
        self.star_cache.clear()
        # R3 fix: this invalidation used to race with _answer_direct's
        # lazy build — a concurrent query could re-publish a matcher
        # over the *old* graph after the delta was applied.
        with self._state_lock:
            self._direct_matcher = None

    def close(self) -> None:
        """Shut down the per-query star pool (idempotent)."""
        with self._state_lock:
            pool, self._star_pool, self._star_pool_pid = self._star_pool, None, None
        if pool is not None:
            pool.shutdown(wait=True)

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
