"""The query client: anonymize queries, post-process cloud answers.

The client is trusted by the data owner: it holds the original graph
``G``, the private LCT and the AVT.  Its per-query work (Section 4.2.2)
is linear in the number of candidate matches: expand ``Rin`` through
the automorphic functions (unless the cloud already did) and filter
false positives against ``G``.

Each phase emits a span (``client.anonymize`` / ``client.expand`` /
``client.filter``) on the :class:`~repro.obs.Observability` scope
passed in; the :class:`ClientOutcome` timing fields are those spans'
durations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymize.lct import LabelCorrespondenceTable
from repro.anonymize.query_anonymizer import anonymize_query
from repro.client.filtering import ClientFilter, LazyGraphCSR
from repro.exceptions import ProtocolError
from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match
from repro.matching.table import MatchTable
from repro.obs import Observability, names
from repro.obs.audit import register_live_false_positive_ratio


@dataclass
class ClientOutcome:
    """Final results of one query plus the client-side timings."""

    matches: list[Match]
    expansion_seconds: float = 0.0
    filter_seconds: float = 0.0
    candidate_count: int = 0

    @property
    def client_seconds(self) -> float:
        """Total client-side wall seconds (expansion + filtering)."""
        return self.expansion_seconds + self.filter_seconds


class QueryClient:
    """A client authorized to query ``G`` through the cloud.

    ``obs`` is the client's default observability scope (measure-only
    unless overridden); :class:`~repro.core.system.
    PrivacyPreservingSystem` passes a per-query recording scope to
    :meth:`prepare_query` / :meth:`process_answer` instead.

    ``original_graph`` is the ``G`` the deployment was published from
    and is read as a snapshot: the client keeps one CSR of it for the
    column filter kernel, so a changed ``G`` needs a new client (as it
    needs a new publication).
    """

    def __init__(
        self,
        original_graph: AttributedGraph,
        lct: LabelCorrespondenceTable,
        avt: AlignmentVertexTable,
        obs: Observability | None = None,
    ) -> None:
        self.graph = original_graph
        self.lct = lct
        self.avt = avt
        self.obs = obs if obs is not None else Observability.measuring()
        # the CSR of G behind the column filter kernel: built by the first
        # query whose candidate table is large enough to want it, then
        # shared by every later ClientFilter of this client
        self._graph_csr = LazyGraphCSR(original_graph)
        # export the Algorithm-3 filter effectiveness as a live pull
        # gauge: false_positives / candidates over everything this
        # client has filtered (shows up on /metrics as
        # `privacy_audit_false_positive_ratio_live`).
        register_live_false_positive_ratio(self.obs.metrics)

    def prepare_query(
        self, query: AttributedGraph, obs: Observability | None = None
    ) -> AttributedGraph:
        """``Q -> Qo``: generalize the query's labels through the LCT."""
        if obs is None:
            obs = self.obs
        with obs.tracer.span(names.CLIENT_ANONYMIZE) as span:
            anonymized = anonymize_query(query, self.lct)
            span.set(
                query_vertices=query.vertex_count, query_edges=query.edge_count
            )
        return anonymized

    def process_answer(
        self,
        query: AttributedGraph,
        matches: MatchTable,
        already_expanded: bool,
        limit: int | None = None,
        obs: Observability | None = None,
    ) -> ClientOutcome:
        """Algorithm 3: expand ``Rin`` (if needed) and filter against G.

        ``matches`` is the :class:`~repro.matching.table.MatchTable`
        decoded off the wire.  An unexpanded ``Rin`` goes through
        :meth:`~repro.client.filtering.ClientFilter.filter_rin`, which
        checks the ``k`` images of every row without ever holding
        ``R(Qo, Gk)``; ``client.expand`` then times its prep on ``Rin``
        (and, on tuple rows, the ``F_m`` remaps) and ``client.filter``
        its checks plus the conversion of the exact results to dicts.

        ``limit`` returns at most that many exact matches (any subset
        of R(Q, G); useful for "find me a few examples" queries).

        A table whose schema is not exactly ``query``'s vertex set can
        only come from a confused or hostile cloud and raises
        :class:`~repro.exceptions.ProtocolError`.
        """
        if obs is None:
            obs = self.obs
        if set(matches.schema) != set(query.vertex_ids()):
            raise ProtocolError(
                "answer schema is not the query's vertex set "
                f"({len(matches.schema)} columns for "
                f"{query.vertex_count} query vertices)"
            )
        tracer = obs.tracer
        client_filter = ClientFilter(self.graph, query, self._graph_csr)
        expand_span = None
        if not already_expanded:
            with tracer.span(
                names.CLIENT_EXPAND, rin_size=len(matches)
            ) as expand_span:
                result = client_filter.filter_rin(matches, self.avt, limit)
                expand_span.set(candidates=result.candidates)
        with tracer.span(names.CLIENT_FILTER) as span:
            if already_expanded:
                result = client_filter.filter_table(matches, limit=limit)
            exact = result.table.to_matches()
            span.set(
                candidates=result.candidates,
                results=len(exact),
                dropped=result.candidates - len(exact),
                dropped_vertex=result.dropped_vertex,
                dropped_edge=result.dropped_edge,
                dropped_label=result.dropped_label,
                anchored=result.anchored,
            )
        expansion_seconds = 0.0
        if expand_span is not None:
            # the single pass ran inside the first span: the checks'
            # share of it belongs to the second
            expand_span.cede(result.seconds, span)
            expansion_seconds = expand_span.duration
        outcome = ClientOutcome(
            matches=exact,
            expansion_seconds=expansion_seconds,
            filter_seconds=span.duration,
            candidate_count=result.candidates,
        )
        metrics = obs.metrics
        metrics.counter(
            names.M_CANDIDATES,
            help="Candidate matches the client inspected across all queries.",
        ).inc(result.candidates)
        metrics.counter(
            names.M_FALSE_POSITIVES,
            help="Candidates rejected by the client-side filter.",
        ).inc(result.candidates - len(exact))
        metrics.counter(
            names.M_MATCHES,
            help="Exact matches returned to clients across all queries.",
        ).inc(len(exact))
        metrics.histogram(
            names.M_CLIENT_SECONDS,
            help="Client-side wall seconds per query.",
        ).observe(outcome.client_seconds)
        return outcome
