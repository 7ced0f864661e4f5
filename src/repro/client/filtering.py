"""Client-side false-positive filtering (Lines 6-23 of Algorithm 3).

The candidate set ``R(Qo, Gk)`` over-approximates ``R(Q, G)`` in three
ways, each removed by one hash-backed check:

1. a match may use a noise vertex absent from ``G``;
2. a match may use a noise edge absent from ``G``;
3. a match may rely on generalized labels — the data vertex carries the
   right label *group* but not the exact label the original query ``Q``
   asked for.

All checks are O(1) per vertex/edge, so the client's work is linear in
the number of candidate matches — the property that makes outsourcing
worthwhile (Section 2.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.markers import hot_path
from repro.cloud.index import GraphCSR
from repro.graph.attributed import AttributedGraph, VertexData
from repro.matching import vec
from repro.matching.table import MatchTable, Row


@dataclass
class TableFilterResult:
    """The exact matches as a table, with the per-check drop counters."""

    table: MatchTable
    seconds: float
    candidates: int
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_vertex + self.dropped_edge + self.dropped_label


class LazyGraphCSR:
    """The :class:`GraphCSR` of one graph, built on the first :meth:`get`.

    ``None`` (numpy missing, ids too sparse) is remembered like a built
    CSR, so an ineligible graph is probed once.  Unlocked on purpose:
    threads racing the first call each build an equal CSR and the flag
    is set only after the result is stored.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._built = False
        self._csr: GraphCSR | None = None

    def get(self) -> GraphCSR | None:
        if not self._built:
            self._csr = GraphCSR.build(self._graph)
            self._built = True
        return self._csr


#: Candidate tables below this many rows stay on the tuple scan: the
#: bulk kernel's fixed numpy cost exceeds the per-row saving.
BULK_FILTER_MIN_ROWS = 256


class ClientFilter:
    """The Algorithm-3 filter of one query ``Q`` over the original ``G``.

    ``csr`` is the CSR of ``G`` for the bulk kernel; the
    :class:`~repro.core.query_client.QueryClient` that owns ``G``
    passes its own so it is built once per client, not once per query
    (a standalone filter builds one on its first bulk scan).
    """

    def __init__(
        self,
        original_graph: AttributedGraph,
        original_query: AttributedGraph,
        csr: LazyGraphCSR | None = None,
    ):
        self.graph = original_graph
        self.query = original_query
        self._query_edges = list(original_query.edges())
        self._csr = csr if csr is not None else LazyGraphCSR(original_graph)

    @hot_path
    def filter_table(
        self, candidates: MatchTable, limit: int | None = None
    ) -> TableFilterResult:
        """Lines 6-23: keep exactly the rows that are matches of Q over G.

        The query's edges become precomputed ``(column, column)`` index
        pairs, and the exact-label containment per column is memoized
        across rows (label groups revisit the same data vertices), so
        the per-row work is a membership test per value, a ``has_edge``
        per query edge, and a dict hit per column.  A dropped row is
        counted once, under the first check it fails (vertex, then
        edge, then label).

        ``limit`` stops the scan once that many true matches are found
        (top-``limit`` queries pay for only part of the candidate set).
        """
        started = time.perf_counter()
        graph = self.graph
        query = self.query
        vertex_ids = graph.vertex_id_view()
        has_edge = graph.has_edge
        data_vertex = graph.vertex
        column_of = candidates.column_of
        edge_pairs = [
            (column_of(q1), column_of(q2)) for q1, q2 in self._query_edges
        ]
        query_vertices = [query.vertex(q) for q in candidates.schema]

        if vec.vectorize(len(candidates)) and (
            len(candidates) >= BULK_FILTER_MIN_ROWS or vec.mode() == "numpy"
        ):
            bulk = self._filter_columns(
                candidates, edge_pairs, query_vertices, limit
            )
            if bulk is not None:
                table, dropped_vertex, dropped_edge, dropped_label = bulk
                return TableFilterResult(
                    table=table,
                    seconds=time.perf_counter() - started,
                    candidates=len(candidates),
                    dropped_vertex=dropped_vertex,
                    dropped_edge=dropped_edge,
                    dropped_label=dropped_label,
                )

        # (column, query vertex, memo) per schema column: the label
        # check depends only on (query vertex, data vertex), never on
        # the row, so it is cached across the whole scan.
        label_checks: list[tuple[int, VertexData, dict[int, bool]]] = [
            (i, qv, {}) for i, qv in enumerate(query_vertices)
        ]

        kept: list[Row] = []
        append = kept.append
        dropped_vertex = dropped_edge = dropped_label = 0

        candidate_rows = candidates.rows
        for row in candidate_rows:
            if limit is not None and len(kept) >= limit:
                break
            # Lines 9-12: every matched vertex must exist in G.
            ok = True
            for v in row:
                if v not in vertex_ids:
                    ok = False
                    break
            if not ok:
                dropped_vertex += 1
                continue
            # Lines 15-18: every query edge must exist in G.
            for c1, c2 in edge_pairs:
                if not has_edge(row[c1], row[c2]):
                    ok = False
                    break
            if not ok:
                dropped_edge += 1
                continue
            # Lines 21-22: exact (raw) label containment against Q.
            for i, query_vertex, memo in label_checks:
                v = row[i]
                hit = memo.get(v)
                if hit is None:
                    hit = query_vertex.matches(data_vertex(v))
                    memo[v] = hit
                if not hit:
                    ok = False
                    break
            if not ok:
                dropped_label += 1
                continue
            append(row)

        return TableFilterResult(
            table=MatchTable(candidates.schema, kept),
            seconds=time.perf_counter() - started,
            candidates=len(candidates),
            dropped_vertex=dropped_vertex,
            dropped_edge=dropped_edge,
            dropped_label=dropped_label,
        )

    @hot_path
    def _filter_columns(
        self,
        candidates: MatchTable,
        edge_pairs: list[tuple[int, int]],
        query_vertices: list[VertexData],
        limit: int | None,
    ) -> tuple[MatchTable, int, int, int] | None:
        """The bulk column kernel behind :meth:`filter_table`.

        Each of the three checks becomes one boolean mask over all
        rows: vertex existence is a bounds-guarded flag gather, the
        edge checks are packed-key membership tests against the CSR's
        sorted edge array, and the exact-label check is a sorted-
        membership test against each query vertex's precomputed
        candidate-id array.  Drop counters come from priority-masked
        combinations (vertex, then edge, then label) and ``limit``
        truncates the scan at the row that produced the limit-th keep
        — exactly the rows the tuple loop would have visited.  Returns
        ``None`` when the CSR or the flat columns are unavailable.
        """
        csr = self._csr.get()
        if csr is None or not candidates.schema:
            return None
        cols_raw = candidates.as_columns()
        if cols_raw is None:
            return None
        np = vec.np
        cols = [vec.as_ndarray(col) for col in cols_raw]

        vflags = csr.vertex_flags()
        vert_ok = vec.bounded_flags(vflags, cols[0])
        for col in cols[1:]:
            vert_ok &= vec.bounded_flags(vflags, col)

        edge_ok = np.ones(len(candidates), dtype=bool)
        for c1, c2 in edge_pairs:
            edge_ok &= csr.edge_flags(cols[c1], cols[c2])

        label_ok = np.ones(len(candidates), dtype=bool)
        for col, query_vertex in zip(cols, query_vertices):
            label_ok &= vec.isin_sorted(
                col, csr.candidate_array(query_vertex)
            )

        passes = vert_ok & edge_ok & label_ok
        prefix = len(passes)
        if limit is not None:
            # the tuple loop stops *after* the row producing the
            # limit-th keep: rows past it contribute to no counter
            if limit <= 0:
                prefix = 0
            else:
                hits = np.flatnonzero(passes)
                if len(hits) >= limit:
                    prefix = int(hits[limit - 1]) + 1
        if prefix < len(passes):
            vert_ok = vert_ok[:prefix]
            edge_ok = edge_ok[:prefix]
            label_ok = label_ok[:prefix]
            passes = passes[:prefix]
        dropped_vertex = int((~vert_ok).sum())
        dropped_edge = int((vert_ok & ~edge_ok).sum())
        dropped_label = int((vert_ok & edge_ok & ~label_ok).sum())
        kept_cols = [col[:prefix][passes] for col in cols]
        table = MatchTable.from_columns(
            candidates.schema, kept_cols, int(passes.sum())
        )
        return table, dropped_vertex, dropped_edge, dropped_label
