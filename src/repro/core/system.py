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
self-contained and picklable (a forked batch ships them back from its
workers).  Pass ``obs=Observability.disabled()`` to
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
from repro.cloud.parallel import effective_workers, map_batch
from repro.cloud.server import CloudServer
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
from repro.exceptions import ProtocolError
from repro.graph.attributed import AttributedGraph
from repro.graph.schema import GraphSchema
from repro.graph.validation import validate_query
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match
from repro.obs import (
    BatchMetrics,
    Observability,
    PublishMetrics,
    QueryMetrics,
    names,
)
from repro.obs.tracing import NULL_TRACER, Trace


@dataclass
class QueryOutcome:
    """Final exact results plus the full per-phase cost breakdown.

    ``metrics`` is derived from ``trace`` (see
    :meth:`~repro.obs.views.QueryMetrics.from_trace`) and renders as
    the query's EXPLAIN report; both are ``None``-safe and round-trip
    through :meth:`to_dict` / :meth:`from_dict`.
    """

    matches: list[Match]
    metrics: QueryMetrics
    trace: Trace | None = field(default=None)
    #: id of the per-query scope the query ran on; also stamped onto
    #: every span of ``trace`` ("" when the system ran with
    #: observability disabled).
    query_id: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "matches": [sorted(match.items()) for match in self.matches],
            "metrics": self.metrics.to_dict(),
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "query_id": self.query_id,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryOutcome":
        trace = data.get("trace")
        return cls(
            matches=[
                {int(q): int(v) for q, v in match} for match in data["matches"]
            ],
            metrics=QueryMetrics.from_dict(data["metrics"]),
            trace=Trace.from_dict(trace) if trace is not None else None,
            query_id=data.get("query_id", ""),
        )


@dataclass
class BatchOutcome:
    """A ``query_batch`` run: per-query outcomes + batch telemetry.

    ``trace`` carries the batch-level ``batch`` span (worker count,
    wall time); the per-query traces live on the individual
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
    """The scope the owner, cloud and client are built with: the system
    registry (their pull gauges land on ``/metrics``) and no tracer —
    system-driven calls receive the per-query recording scope.
    """
    return Observability(registry=obs.metrics, tracer=NULL_TRACER)


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
        deployment leaves open (``shards``,
        ``max_intermediate_results``).  Runs with the cyclic collector
        paused, as :meth:`setup` does.
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
        publish spans, when there are any, plus one ``cloud.index_build``
        span over the whole cloud construction, index and Section 5
        estimator) becomes ``publish_metrics``.
        """
        cloud_graph, cloud_avt, center_vertices, expand_in_cloud = cloud_half
        component_obs = _component_scope(obs)
        tracer = scope.tracer
        with tracer.span(names.CLOUD_INDEX_BUILD) as span:
            cloud = CloudServer(
                cloud_graph,
                cloud_avt,
                center_vertices,
                expand_in_cloud=expand_in_cloud,
                max_intermediate_results=config.max_intermediate_results,
                obs=component_obs,
                shards=config.shards,
            )
            span.set(index_bytes=cloud.index_size_bytes())
        client = QueryClient(graph, *client_half, obs=component_obs)

        trace = tracer.take_trace() if tracer.enabled else None
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
        through here; the wire and trace plumbing lives in this
        one method.  A single-element
        workload runs inline (no batch span, exactly the per-query
        trace shape of :meth:`query`); larger workloads run on
        ``options.workers`` forked workers (the plain loop when that is
        ``None`` or 1) with a ``batch`` span wrapping the run.  Outcomes come back in submission order, bit-identical to
        a serial loop.

        ``obs`` overrides the system scope; ``options.trace=False``
        forces the disabled scope regardless (raw-throughput serving).
        """
        options = options if options is not None else DEFAULT_OPTIONS
        if not options.trace:
            base = Observability.disabled()
        else:
            base = obs if obs is not None else self.obs

        queries = list(queries)
        worker_count = effective_workers(options.workers, len(queries))

        if len(queries) == 1:
            started = time.perf_counter()
            outcome = self._run_one(queries[0], options=options, obs=base)
            wall_seconds = time.perf_counter() - started
            outcomes = [outcome]
            trace = None
        else:
            scope = base.for_query()
            run_one = functools.partial(
                self._run_one, options=options, obs=base
            )
            with scope.tracer.span(names.BATCH) as span:
                started = time.perf_counter()
                outcomes = map_batch(run_one, queries, options.workers)
                wall_seconds = time.perf_counter() - started
                span.set(workers=worker_count, queries=len(queries))
            trace = (
                scope.tracer.take_trace() if scope.tracer.enabled else None
            )

        metrics = BatchMetrics(
            worker_count=worker_count,
            wall_seconds=wall_seconds,
            per_query=[outcome.metrics for outcome in outcomes],
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

            # wire: ship the answer.  The result set stays tabular from
            # the cloud join to the client filter; dicts are only
            # materialized for the final (small) exact results.
            with tracer.span(names.ENCODE_ANSWER) as span:
                answer_payload = encode_answer_table(
                    answer.table, sorted(query.vertex_ids()), answer.expanded
                )
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

        trace = tracer.take_trace() if tracer.enabled else None
        return QueryOutcome(
            matches=outcome.matches,
            metrics=QueryMetrics.from_trace(trace),
            trace=trace,
            query_id=scope.query_id,
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
        decode, expand, filter.  ``QueryOptions.workers`` is ``None``
        (default: the plain loop) or ``N >= 2`` forked workers, for
        CPU-bound batches on multi-core hosts (channel/registry updates
        stay in the children — per-query
        *traces* still come back, pickled inside each outcome).  Match
        sets are bit-identical to a loop of :meth:`query` calls either
        way.

        ``obs`` overrides the system scope for the whole batch; pass
        ``Observability.disabled()`` (or ``QueryOptions(trace=False)``)
        to serve the batch with tracing fully off.
        """
        return self.submit(queries, options=options, obs=obs)
