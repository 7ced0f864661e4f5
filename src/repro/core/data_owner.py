"""The data owner: anonymize, transform, and publish the data graph.

The owner holds the original graph ``G`` (and optionally a sample query
workload used to estimate ``F_Savg`` for the EFF cost model).  The
publish pipeline (Sections 3-4):

1. build the LCT with the configured grouping strategy (EFF/RAN/FSIM);
2. generalize ``G``'s labels through the LCT;
3. run the k-automorphism transform -> ``Gk`` + AVT;
4. extract the outsourced graph ``Go`` (or keep ``Gk`` for BAS);
5. hand the published graph + AVT to the cloud; keep ``G`` and the LCT
   private.

Every phase emits a span (``publish`` > ``publish.lct`` /
``publish.kauto`` / ``publish.outsource``); the
:class:`~repro.obs.views.PublishMetrics` record on the returned
:class:`PublishedData` is *derived from the trace*, not hand-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anonymize import STRATEGIES, build_lct
from repro.anonymize.lct import LabelCorrespondenceTable
from repro.anonymize.query_anonymizer import star_workload_statistics
from repro.core.config import SystemConfig
from repro.graph.attributed import AttributedGraph
from repro.graph.schema import GraphSchema
from repro.graph.stats import GraphStatistics, compute_statistics
from repro.kauto.builder import KAutomorphismResult, build_k_automorphic_graph
from repro.obs import Observability, PublishMetrics, names
from repro.obs.tracing import Trace
from repro.outsource import build_outsourced_graph


@dataclass
class PublishedData:
    """Everything produced by one publish run.

    ``lct`` is PRIVATE to the owner/clients; the cloud only receives
    ``upload_graph``, ``center_vertices`` and the AVT inside
    ``transform``.  ``trace`` holds the publish spans when the
    observability scope records (the default); ``metrics`` is the
    legacy view computed from it.
    """

    lct: LabelCorrespondenceTable
    transform: KAutomorphismResult
    upload_graph: AttributedGraph
    center_vertices: list[int]
    expand_in_cloud: bool
    metrics: PublishMetrics
    trace: Trace | None = field(default=None)


class DataOwner:
    """Holds ``G`` and orchestrates anonymized publication.

    ``obs`` is the owner's default observability scope.  Publishing is
    one-shot (never on a hot path), so :meth:`publish` always records
    its spans — into a fresh scope derived from ``obs`` — unless the
    caller hands it an explicit scope of its own.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        schema: GraphSchema,
        sample_workload: list[AttributedGraph] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.graph = graph
        self.schema = schema
        self.sample_workload = list(sample_workload or [])
        self._graph_stats: GraphStatistics | None = None
        self.obs = obs if obs is not None else Observability.measuring()

    @property
    def graph_stats(self) -> GraphStatistics:
        if self._graph_stats is None:
            self._graph_stats = compute_statistics(self.graph)
        return self._graph_stats

    def build_lct(
        self, config: SystemConfig, obs: Observability | None = None
    ) -> tuple[LabelCorrespondenceTable, float]:
        """Construct (and verify) the LCT for ``config``; returns (lct, seconds).

        The whole step — grouping strategy plus verification — runs
        under one ``publish.lct`` span whose duration is the returned
        ``seconds``.
        """
        if obs is None:
            obs = self.obs
        with obs.tracer.span(names.PUBLISH_LCT) as span:
            workload_stats = (
                star_workload_statistics(self.sample_workload)
                if self.sample_workload
                else None
            )
            lct = build_lct(
                self.schema,
                config.theta,
                config.method.strategy,
                graph_stats=self.graph_stats,
                workload_stats=workload_stats,
                seed=config.seed,
                obs=obs,
            )
            grouping = config.method.strategy
            lct.strategy = next(
                (name for name, fn in STRATEGIES.items() if fn is grouping), None
            )
            lct.verify(allow_small_groups=config.allow_small_label_groups)
        return lct, span.duration

    def publish(
        self, config: SystemConfig, obs: Observability | None = None
    ) -> PublishedData:
        """Run the full publish pipeline for ``config``.

        With ``obs=None`` (standalone use) a fresh recording scope is
        forked from the owner's default, so ``PublishedData.trace`` and
        the derived metrics are always populated.  Pass a scope
        explicitly to aggregate the publish spans into a larger trace
        (what :class:`~repro.core.system.PrivacyPreservingSystem.setup`
        does before appending its upload/index spans).
        """
        scope = obs if obs is not None else self.obs.for_query()
        tracer = scope.tracer

        with tracer.span(names.PUBLISH) as root:
            root.set(
                method=config.method.name,
                k=config.k,
                theta=config.theta,
                original_vertices=self.graph.vertex_count,
                original_edges=self.graph.edge_count,
            )

            lct, _ = self.build_lct(config, obs=scope)

            with tracer.span(names.PUBLISH_KAUTO) as kauto_span:
                generalized = lct.apply_to_graph(self.graph)
                transform = build_k_automorphic_graph(
                    generalized,
                    config.k,
                    seed=config.seed,
                    label_aware_alignment=config.label_aware_alignment,
                    obs=scope,
                )
                kauto_span.set(
                    gk_vertices=transform.gk.vertex_count,
                    gk_edges=transform.gk.edge_count,
                    noise_vertices=transform.noise_vertex_count,
                    noise_edges=transform.noise_edge_count,
                )

            with tracer.span(names.PUBLISH_OUTSOURCE) as out_span:
                if config.method.upload_full_gk:
                    upload_graph = transform.gk
                    center_vertices = sorted(transform.gk.vertex_ids())
                    expand_in_cloud = False
                else:
                    outsourced = build_outsourced_graph(
                        transform.gk, transform.avt
                    )
                    upload_graph = outsourced.graph
                    center_vertices = outsourced.block_vertices
                    expand_in_cloud = True
                out_span.set(
                    uploaded_vertices=upload_graph.vertex_count,
                    uploaded_edges=upload_graph.edge_count,
                    full_gk=config.method.upload_full_gk,
                )

        trace = tracer.trace() if tracer.recording else None
        return PublishedData(
            lct=lct,
            transform=transform,
            upload_graph=upload_graph,
            center_vertices=center_vertices,
            expand_in_cloud=expand_in_cloud,
            metrics=PublishMetrics.from_trace(trace),
            trace=trace,
        )
