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
from repro.client.expansion import expand_rin_table
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
    bulk filter kernel, so a changed ``G`` needs a new client (as it
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
        # the CSR of G behind the bulk filter kernel: built by the first
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
        decoded off the wire; expansion and filtering stay tabular and
        only the final exact results are converted to dicts.

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
        if already_expanded:
            candidates = matches
            expansion_seconds = 0.0
        else:
            with tracer.span(names.CLIENT_EXPAND, rin_size=len(matches)) as span:
                candidates = expand_rin_table(matches, self.avt).table
                span.set(candidates=len(candidates))
            expansion_seconds = span.duration
        with tracer.span(names.CLIENT_FILTER) as span:
            exact = (
                ClientFilter(self.graph, query, self._graph_csr)
                .filter_table(candidates, limit=limit)
                .table.to_matches()
            )
            span.set(
                candidates=len(candidates),
                results=len(exact),
                dropped=len(candidates) - len(exact),
            )
        outcome = ClientOutcome(
            matches=exact,
            expansion_seconds=expansion_seconds,
            filter_seconds=span.duration,
            candidate_count=len(candidates),
        )
        metrics = obs.metrics
        metrics.counter(
            names.M_CANDIDATES,
            help="Candidate matches the client inspected across all queries.",
        ).inc(len(candidates))
        metrics.counter(
            names.M_FALSE_POSITIVES,
            help="Candidates rejected by the client-side filter.",
        ).inc(len(candidates) - len(exact))
        metrics.counter(
            names.M_MATCHES,
            help="Exact matches returned to clients across all queries.",
        ).inc(len(exact))
        metrics.histogram(
            names.M_CLIENT_SECONDS,
            help="Client-side wall seconds per query.",
        ).observe(outcome.client_seconds)
        return outcome
