"""End-to-end facade: data owner + simulated wire + cloud + client.

:class:`PrivacyPreservingSystem` wires the whole paper pipeline
together.  Every phase the evaluation reports — cloud query time, star
matching time, |RS|, |Rin|, network bytes/time, client expansion/filter
time, the end-to-end total — is a *span* on the system's
:class:`~repro.obs.Observability` scope; the
:class:`~repro.obs.views.QueryMetrics` record on each outcome is a view
computed from that trace, not a hand-threaded ledger.

Usage::

    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=3))
    outcome = system.query(query_graph)
    outcome.matches        # exactly R(Q, G)
    outcome.metrics        # per-phase timings and sizes (from the trace)
    outcome.trace          # the spans themselves

Each query runs on its own recording tracer (``obs.for_query()``), so
concurrent batch queries never interleave spans and every trace is
self-contained and picklable (the ``process`` batch backend ships them
back from forked children).  Pass ``obs=Observability.disabled()`` to
:meth:`~PrivacyPreservingSystem.setup` for a no-op hot path — metrics
and traces then read empty.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.anonymize.lct import LabelCorrespondenceTable
from repro.client.expansion import expand_rin_table
from repro.cloud.parallel import effective_workers, map_batch
from repro.cloud.server import CloudServer
from repro.cloud.sharding import build_cloud
from repro.core.config import SystemConfig
from repro.core.data_owner import DataOwner, PublishedData
from repro.core.options import DEFAULT_OPTIONS, QueryOptions
from repro.core.protocol import (
    NetworkChannel,
    decode_answer_table,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_query,
    encode_upload,
)
from repro.core.query_client import QueryClient
from repro.core.storage import load_client_side, load_cloud_side
from repro.exceptions import ConfigError, ProtocolError
from repro.graph.attributed import AttributedGraph
from repro.graph.schema import GraphSchema
from repro.graph.validation import validate_query
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match
from repro.obs import (
    BatchMetrics,
    EventLog,
    Observability,
    PublishMetrics,
    QueryMetrics,
    SlidingWindow,
    names,
)
from repro.obs.explain import ExplainReport
from repro.obs.tracing import Trace


@dataclass
class QueryOutcome:
    """Final exact results plus the full per-phase cost breakdown.

    ``metrics`` is derived from ``trace`` (see
    :meth:`~repro.obs.views.QueryMetrics.from_trace`); both are
    ``None``-safe and round-trip through :meth:`to_dict` /
    :meth:`from_dict`.
    """

    matches: list[Match]
    metrics: QueryMetrics
    trace: Trace | None = field(default=None)
    #: id of the per-query scope the query ran on; also stamped onto
    #: every span of ``trace`` and onto the structured events derived
    #: from it ("" when the system ran with observability disabled).
    query_id: str = ""
    #: per-query EXPLAIN view over ``trace``; populated only when the
    #: call ran with ``QueryOptions(explain=True)``.
    explain: ExplainReport | None = field(default=None)

    def to_dict(self) -> dict[str, Any]:
        return {
            "matches": [sorted(match.items()) for match in self.matches],
            "metrics": self.metrics.to_dict(),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "query_id": self.query_id,
            "explain": (
                self.explain.to_dict() if self.explain is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryOutcome":
        trace = data.get("trace")
        explain = data.get("explain")
        return cls(
            matches=[
                {int(q): int(v) for q, v in match} for match in data["matches"]
            ],
            metrics=QueryMetrics.from_dict(data["metrics"]),
            trace=Trace.from_dict(trace) if trace is not None else None,
            query_id=data.get("query_id", ""),
            explain=(
                ExplainReport.from_dict(explain)
                if explain is not None
                else None
            ),
        )


@dataclass
class BatchOutcome:
    """A ``query_batch`` run: per-query outcomes + batch telemetry.

    ``trace`` carries the batch-level ``batch`` span (backend, worker
    count, wall time); the per-query traces live on the individual
    outcomes.
    """

    outcomes: list[QueryOutcome]
    metrics: BatchMetrics
    trace: Trace | None = field(default=None)

    @property
    def matches(self) -> list[list[Match]]:
        """Per-query match lists, in submission order."""
        return [outcome.matches for outcome in self.outcomes]

    def to_dict(self) -> dict[str, Any]:
        return {
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "metrics": self.metrics.to_dict(),
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchOutcome":
        trace = data.get("trace")
        return cls(
            outcomes=[
                QueryOutcome.from_dict(entry) for entry in data["outcomes"]
            ],
            metrics=BatchMetrics.from_dict(data["metrics"]),
            trace=Trace.from_dict(trace) if trace is not None else None,
        )


#: makes a window's read-and-disable one step against another's enable
_COLLECTOR_LOCK = threading.Lock()


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Cyclic collector off for the block; back on only if it was on.

    A deployment is ~1e5 long-lived containers and no cycle, so every
    collection while it is built scans a growing heap to free nothing
    (docs/performance.md, "Collector and refinement"); a dropped one
    dies by refcount all the same (``tests/test_no_cyclic_garbage.py``).
    Overlapping windows (threads) never leave it off: a window that saw
    it off cannot disable it after the window that saw it on has
    enabled it again.
    """
    with _COLLECTOR_LOCK:
        was_enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            with _COLLECTOR_LOCK:
                gc.enable()


def _component_scope(obs: Observability) -> Observability:
    """The measure-only scope the owner, cloud and client default to.

    It shares the system registry: standalone calls on a component stay
    cheap, while system-driven calls receive the per-query recording
    scope.
    """
    return Observability(record=False, registry=obs.metrics)


class PrivacyPreservingSystem:
    """A fully wired owner/cloud/client deployment.

    Comes to be in one of two ways: :meth:`setup` publishes a graph,
    :meth:`load` reloads a saved deployment (no owner, nothing
    published: ``owner`` and ``published`` are ``None``).
    """

    def __init__(
        self,
        owner: DataOwner | None,
        published: PublishedData | None,
        cloud: CloudServer,
        client: QueryClient,
        config: SystemConfig,
        channel: NetworkChannel,
        publish_metrics: PublishMetrics,
        obs: Observability | None = None,
    ) -> None:
        self.owner = owner
        self.published = published
        self.cloud = cloud
        self.client = client
        self.config = config
        self.channel = channel
        self.publish_metrics = publish_metrics
        self.obs = obs if obs is not None else Observability()
        # -- serving telemetry (config-driven, off by default) ----------
        if (
            config.event_log_path is not None
            and self.obs.enabled
            and not self.obs.events.enabled
        ):
            self.obs.events = EventLog(
                config.event_log_path,
                level=config.event_log_level,
                sample_rate=config.event_sample_rate,
            )
        # sliding window behind the `query_seconds_window_*` pull gauges
        # (p50/p95/p99/rate/count on /metrics); null-obs systems skip the
        # registration so the disabled hot path stays flat.
        self.query_window = SlidingWindow(
            capacity=config.slo_window_size,
            window_seconds=config.slo_window_seconds,
        )
        if self.obs.enabled:
            self.query_window.register(
                self.obs.metrics,
                names.W_QUERY_WINDOW,
                help="End-to-end query seconds over the SLO window.",
            )
        if (
            self.obs.events.enabled
            and published is not None
            and published.trace is not None
        ):
            # one "publish" record so the event log is self-describing:
            # every later query event refers back to this deployment.
            self.obs.events.emit(
                names.PUBLISH,
                method=config.method.name,
                k=config.k,
                theta=config.theta,
                spans=len(published.trace),
            )

    # ------------------------------------------------------------------
    # standing a deployment up: publish it (setup) or reload it (load)
    # ------------------------------------------------------------------
    @classmethod
    def setup(
        cls,
        graph: AttributedGraph,
        schema: GraphSchema,
        config: SystemConfig,
        sample_workload: list[AttributedGraph] | None = None,
        channel: NetworkChannel | None = None,
        obs: Observability | None = None,
    ) -> "PrivacyPreservingSystem":
        """Publish ``graph`` under ``config`` and stand up cloud+client.

        The upload really travels through the protocol encoder/decoder
        so its byte size is measured and the cloud works from exactly
        what the wire carried.  The whole run is traced into one
        publish-side trace (``publish`` + upload/index spans), exposed
        as ``system.published.trace`` / ``system.publish_metrics``.
        Runs with the cyclic collector paused (:func:`_collector_paused`).
        """
        with _collector_paused():
            obs = obs if obs is not None else Observability()
            scope = obs.for_query()
            tracer = scope.tracer
            channel = channel or NetworkChannel()

            owner = DataOwner(
                graph, schema, sample_workload, obs=_component_scope(obs)
            )
            published = owner.publish(config, obs=scope)

            with tracer.span(names.ENCODE_UPLOAD) as span:
                payload = encode_upload(
                    published.upload_graph, published.transform.avt
                )
                span.set(bytes=len(payload))
            channel.transmit("upload", payload, obs=scope)
            cloud_graph, cloud_avt = decode_upload(payload)

            return cls._stand_up(
                graph,
                (
                    cloud_graph,
                    cloud_avt,
                    published.center_vertices,
                    published.expand_in_cloud,
                ),
                (published.lct, published.transform.avt),
                config,
                channel,
                obs,
                scope,
                owner,
                published,
            )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        graph: AttributedGraph,
        *,
        obs: Observability | None = None,
        channel: NetworkChannel | None = None,
        **serving: Any,
    ) -> "PrivacyPreservingSystem":
        """Stand up the deployment :func:`~repro.core.storage.save_published`
        wrote to ``directory``, with ``graph`` as the client's original.

        The other way a system comes to be: publish once, serve from
        any process.  Nothing is published here, so ``owner`` and
        ``published`` are ``None`` and ``publish_metrics`` holds only
        the index build.  The config states what the artefacts
        determine — ``k`` from the AVT, ``theta`` and the grouping
        strategy from the LCT, BAS from a cloud half that is ``Gk``;
        ``serving`` supplies the :class:`SystemConfig` fields a saved
        deployment leaves open (``shards``, ``shard_backend``,
        ``star_cache_size``, the telemetry fields).  Runs with the
        cyclic collector paused, as :meth:`setup` does.
        """
        with _collector_paused():
            _, avt, _, expand_in_cloud = cloud_half = load_cloud_side(directory)
            lct, _ = client_half = load_client_side(directory)
            if lct.strategy is None:
                raise ProtocolError(
                    f"the deployment in {directory} does not name its label "
                    "grouping strategy (saved by an older release): re-publish it"
                )
            config = SystemConfig(
                k=avt.k,
                theta=lct.theta,
                method=lct.strategy if expand_in_cloud else "BAS",
                **serving,
            )
            obs = obs if obs is not None else Observability()
            return cls._stand_up(
                graph,
                cloud_half,
                client_half,
                config,
                channel or NetworkChannel(),
                obs,
                obs.for_query(),
            )

    @classmethod
    def _stand_up(
        cls,
        graph: AttributedGraph,
        cloud_half: tuple[AttributedGraph, AlignmentVertexTable, list[int], bool],
        client_half: tuple[LabelCorrespondenceTable, AlignmentVertexTable],
        config: SystemConfig,
        channel: NetworkChannel,
        obs: Observability,
        scope: Observability,
        owner: DataOwner | None = None,
        published: PublishedData | None = None,
    ) -> "PrivacyPreservingSystem":
        """Index the cloud half, wire the client, construct the system.

        The tail :meth:`setup` and :meth:`load` share; the halves have
        the shapes ``load_cloud_side`` / ``load_client_side`` return.
        ``scope`` is the recording scope of the run: its trace (the
        publish spans, when there are any, plus the index build) becomes
        ``publish_metrics``.
        """
        cloud_graph, cloud_avt, center_vertices, expand_in_cloud = cloud_half
        component_obs = _component_scope(obs)
        tracer = scope.tracer
        with tracer.span(names.CLOUD_INDEX_BUILD) as span:
            # shards == 1: the paper's single server; N > 1: Go
            # partitioned over N shard servers behind a scatter-gather
            # coordinator, answers bit-identical to the single server.
            cloud = build_cloud(
                cloud_graph,
                cloud_avt,
                center_vertices,
                shards=config.shards,
                shard_backend=config.shard_backend,
                partition_seed=config.seed,
                expand_in_cloud=expand_in_cloud,
                max_intermediate_results=config.max_intermediate_results,
                star_cache_size=config.star_cache_size,
                obs=component_obs,
            )
            span.set(
                index_bytes=cloud.index_size_bytes(),
                build_seconds=cloud.index_build_seconds(),
            )
        client = QueryClient(graph, *client_half, obs=component_obs)

        trace = tracer.take_trace() if tracer.recording else None
        metrics = PublishMetrics.from_trace(trace)
        if published is not None:
            published.trace = trace
            published.metrics = metrics
        return cls(
            owner, published, cloud, client, config, channel, metrics, obs=obs
        )

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def submit(
        self,
        queries: list[AttributedGraph],
        *,
        options: QueryOptions | None = None,
        obs: Observability | None = None,
    ) -> BatchOutcome:
        """The single query entry point: answer ``queries`` under ``options``.

        Every way into a system, published or loaded — :meth:`query`,
        :meth:`query_batch`, each local ``repro`` command — routes
        through here; the wire, trace and cache plumbing lives in this
        one method.  A single-element
        workload runs inline (no batch span, exactly the per-query
        trace shape of :meth:`query`); larger workloads run on the
        ``options.backend`` backend (the serial loop, or a fork pool)
        with a ``batch`` span and event wrapping the run.  Outcomes
        come back in submission order, bit-identical to a serial loop.

        ``obs`` overrides the system scope; ``options.trace=False``
        forces the disabled scope regardless (raw-throughput serving).
        """
        options = options if options is not None else DEFAULT_OPTIONS
        if options.shards is not None:
            deployed = max(1, self.config.shards)
            if options.shards != deployed:
                raise ConfigError(
                    f"options.shards={options.shards} does not match the "
                    f"deployed topology of {deployed} shard(s)"
                )
        if not options.trace:
            base = Observability.disabled()
        else:
            base = obs if obs is not None else self.obs

        queries = list(queries)
        hits_before, misses_before = self.cloud.star_cache.counters()

        if len(queries) == 1:
            started = time.perf_counter()
            outcome = self._run_one(queries[0], options=options, obs=base)
            wall_seconds = time.perf_counter() - started
            outcomes = [outcome]
            worker_count = 1
            cache_shared = True
            trace = None
        else:
            worker_count = effective_workers(options.workers, len(queries))
            cache_shared = options.backend != "process"
            scope = base.for_query()
            run_one = functools.partial(
                self._run_one, options=options, obs=base
            )
            with scope.tracer.span(names.BATCH) as span:
                started = time.perf_counter()
                outcomes = map_batch(
                    run_one, queries, options.workers, options.backend
                )
                wall_seconds = time.perf_counter() - started
                span.set(
                    backend=options.backend,
                    workers=1 if options.backend == "serial" else worker_count,
                    queries=len(queries),
                    wall_seconds=wall_seconds,
                )
            trace = (
                scope.tracer.take_trace() if scope.tracer.recording else None
            )
            if scope.events.enabled:
                scope.events.emit(
                    names.BATCH,
                    backend=options.backend,
                    workers=1 if options.backend == "serial" else worker_count,
                    queries=len(queries),
                    seconds=wall_seconds,
                )

        hits_after, misses_after = self.cloud.star_cache.counters()
        metrics = BatchMetrics(
            backend=options.backend,
            worker_count=(
                1
                if len(queries) == 1 or options.backend == "serial"
                else worker_count
            ),
            wall_seconds=wall_seconds,
            per_query=[outcome.metrics for outcome in outcomes],
            cache_hits=hits_after - hits_before,
            cache_misses=misses_after - misses_before,
            cache_shared=cache_shared,
        )
        return BatchOutcome(outcomes=outcomes, metrics=metrics, trace=trace)

    def query(
        self,
        query: AttributedGraph,
        obs: Observability | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> QueryOutcome:
        """Answer ``query`` exactly, through the privacy pipeline.

        A thin delegate of :meth:`submit` for the common one-query
        case; tuning knobs travel in ``options``.

        The query runs on a fresh per-query recording scope forked from
        ``obs`` (default: the system scope) — its spans become
        ``outcome.trace`` and the registry aggregates accumulate on the
        shared :class:`~repro.obs.MetricsRegistry`.
        """
        return self.submit([query], options=options, obs=obs).outcomes[0]

    def _run_one(
        self,
        query: AttributedGraph,
        *,
        options: QueryOptions,
        obs: Observability | None = None,
    ) -> QueryOutcome:
        """One query through the full pipeline (the :meth:`submit` core)."""
        validate_query(query)
        base = obs if obs is not None else self.obs
        scope = base.for_query()
        tracer = scope.tracer

        with tracer.span(names.QUERY) as root:
            root.set(
                method=self.config.method.name,
                k=self.config.k,
                query_edges=query.edge_count,
            )

            # client: anonymize and send
            anonymized = self.client.prepare_query(query, obs=scope)
            with tracer.span(names.ENCODE_QUERY) as span:
                query_payload = encode_query(anonymized)
                span.set(bytes=len(query_payload))
            self.channel.transmit("query", query_payload, obs=scope)

            # cloud: decompose, star-match, join
            with tracer.span(names.DECODE_QUERY):
                cloud_query = decode_query(query_payload)
            answer = self.cloud.answer(cloud_query, obs=scope)

            # the result set stays tabular from the cloud join to the
            # client filter; dicts are only materialized for the final
            # (small) exact results.
            order = sorted(query.vertex_ids())
            table, expanded = answer.table, answer.expanded
            if self.config.expansion_site == "cloud" and not expanded:
                # Section 4.2.2: the expansion step may run in the
                # cloud to spare the client, at higher communication
                # cost.
                with tracer.span(
                    names.CLOUD_EXPAND, rin_size=len(table)
                ) as span:
                    table = expand_rin_table(table, self.cloud.avt).table
                    expanded = True
                    span.set(candidates=len(table))

            # wire: ship the answer
            with tracer.span(names.ENCODE_ANSWER) as span:
                answer_payload = encode_answer_table(table, order, expanded)
                span.set(bytes=len(answer_payload))
            self.channel.transmit("answer", answer_payload, obs=scope)

            with tracer.span(names.DECODE_ANSWER):
                received, already_expanded = decode_answer_table(
                    answer_payload
                )

            # client: expand (if needed) + filter
            outcome = self.client.process_answer(
                query,
                received,
                already_expanded,
                limit=options.max_results,
                obs=scope,
            )

        scope.metrics.counter(
            names.M_QUERIES, help="Queries answered end to end."
        ).inc()
        scope.metrics.histogram(
            names.M_QUERY_SECONDS,
            help="End-to-end wall seconds per query (excl. simulated wire).",
        ).observe(root.duration)
        if scope.enabled:
            self.query_window.observe(root.duration)

        trace = tracer.take_trace() if tracer.recording else None
        if scope.events.enabled and trace is not None:
            scope.events.emit_query(
                trace,
                scope.query_id,
                method=self.config.method.name,
                matches=len(outcome.matches),
            )
        return QueryOutcome(
            matches=outcome.matches,
            metrics=QueryMetrics.from_trace(trace),
            trace=trace,
            query_id=scope.query_id,
            explain=(
                ExplainReport.from_trace(trace, query_id=scope.query_id)
                if options.explain
                else None
            ),
        )

    def query_batch(
        self,
        queries: list[AttributedGraph],
        obs: Observability | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> BatchOutcome:
        """Answer a workload of queries, in submission order.

        A thin delegate of :meth:`submit`: every query runs the full
        pipeline — anonymize, encode, decompose, star-match, join,
        decode, expand, filter.  ``QueryOptions.backend`` is
        ``"serial"`` (default: the plain loop; the star cache is shared,
        so repeated star shapes across the batch are matched once) or
        ``"process"`` (``options.workers`` forked workers, default one
        per core, for CPU-bound batches on multi-core hosts;
        cache/channel/registry updates stay in the children — per-query
        *traces* still come back, pickled inside each outcome).  Match
        sets are bit-identical to a loop of :meth:`query` calls either
        way.

        ``obs`` overrides the system scope for the whole batch; pass
        ``Observability.disabled()`` (or ``QueryOptions(trace=False)``)
        to serve the batch with tracing fully off.
        """
        return self.submit(queries, options=options, obs=obs)
