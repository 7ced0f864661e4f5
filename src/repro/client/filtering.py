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
from typing import Any, Iterable, Sequence

from repro.analysis.markers import hot_path
from repro.cloud.index import GraphCSR
from repro.graph.attributed import AttributedGraph, VertexData
from repro.kauto.avt import AlignmentVertexTable
from repro.matching import vec
from repro.matching.table import MatchTable, Row


@dataclass
class TableFilterResult:
    """The exact matches as a table, with the per-check drop counters.

    ``anchored``: :meth:`ClientFilter.filter_rin` checked the ``k``
    images of an anchored ``Rin`` itself; ``seconds`` then times the checks only.
    """

    table: MatchTable
    seconds: float
    candidates: int
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0
    anchored: bool = False

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
        #: where the AVT's images land in this graph; ``None`` until the
        #: first flat-column ``Rin`` (:meth:`ClientFilter.filter_rin`)
        self.image_masks: ImageMasks | None = None

    def get(self) -> GraphCSR | None:
        if not self._built:
            self._csr = GraphCSR.build(self._graph)
            self._built = True
        return self._csr

    def images(self, csr: GraphCSR, avt: AlignmentVertexTable) -> "ImageMasks":
        """The :class:`ImageMasks` of ``csr`` under ``avt``, rebuilt if either differs."""
        masks = self.image_masks
        if masks is None or masks.csr is not csr or masks.avt is not avt:
            masks = self.image_masks = ImageMasks(csr, avt)
        return masks


#: Images checked per pass over a ``Rin``: the bits of the widest mask word.
MASK_BITS = 64


class ImageMasks:
    """Where the ``k`` images of every AVT id and id pair land in ``G``.

    Built once per (CSR of ``G``, AVT), in AVT id space, images taken
    :data:`MASK_BITS` at a time with masks of the narrowest unsigned
    dtype holding them.  Per group ``(first, vmask, pair_keys, emask,
    hmask, shift, back)``, bit ``j`` standing for ``F_m``, ``m = first +
    j``: ``vmask[a]`` has it iff ``F_m(a) ∈ V(G)``; ``emask`` has it at the
    packed pair ``(a, b)`` of the sorted ``pair_keys`` iff ``(F_m(a),
    F_m(b)) ∈ E(G)``; ``hmask`` ORs ``emask`` into ≥ 8 hashed slots per pair
    — a superset read by one gather where ``emask`` takes a binary search;
    ``back[j]`` sends a vertex of ``G`` to its ``F_m`` pre-image, or to the
    spare slot ``size``.
    """

    @hot_path
    def __init__(self, csr: GraphCSR, avt: AlignmentVertexTable) -> None:
        np = vec.np
        luts = avt.image_luts()
        assert luts is not None  # a flat-column anchored Rin was gathered through them
        self.csr, self.avt, self.luts = csr, avt, luts
        self.size = size = len(luts[0])
        u, v = np.divmod(csr.edge_keys, csr.stride)
        g_ids = np.arange(len(csr.exists), dtype=np.int64)
        self.groups: list[tuple[Any, ...]] = []
        for first in range(0, avt.k, MASK_BITS):
            bits = min(MASK_BITS, avt.k - first)
            dtype = vec.unsigned_dtype(bits)
            vmask = np.zeros(size, dtype=dtype)
            # the pair (-1) of no image: a lookup never meets an empty table
            keys, marks, back = [np.array([-1])], [np.zeros(1, dtype=dtype)], []
            for j in range(bits):
                bit = np.array(1 << j, dtype=dtype)
                vmask |= vec.bounded_flags(csr.exists, luts[first + j]) * bit
                inverse = vec.bounded_lookup(luts[-(first + j) % avt.k], g_ids, -1)
                inverse[inverse < 0] = size  # no pre-image in the AVT
                back.append(inverse)
                a, b = inverse[u], inverse[v]
                known = np.maximum(a, b) < size
                keys.append((np.minimum(a, b) * size + np.maximum(a, b))[known])
                marks.append(np.full(len(keys[-1]), bit))
            pair_keys, emask = vec.or_by_key(np.concatenate(keys), np.concatenate(marks))
            shift = np.uint64(64 - max(3, (8 * len(pair_keys) - 1).bit_length()))
            hmask = np.zeros(1 << (64 - int(shift)), dtype=dtype)
            np.bitwise_or.at(hmask, vec.hash_slots(pair_keys, shift), emask)
            self.groups.append((first, vmask, pair_keys, emask, hmask, shift, back))


#: ``filter_table`` keeps smaller candidate tables on the tuple loop: with
#: the CSR built, the cascade wins from ~150 flat-column (~600 tuple) rows.
BULK_FILTER_MIN_ROWS = 256


class _Scan:
    """One query's three checks, fed one block of candidates at a time.

    The single definition of Lines 6-23 per arm: the tuple loop, or
    with the CSR of ``G`` the column cascade.  What no block changes
    (query edges as column pairs, per-column label memo or sorted
    candidate ids) is set up once; keeps and drop counters accumulate.
    A dropped row is counted once, under the first check it fails
    (vertex, then edge, then label), and ``limit`` ends the scan
    *after* the row producing the limit-th keep: later rows reach no
    counter.
    """

    def __init__(
        self,
        owner: "ClientFilter",
        schema: tuple[int, ...],
        limit: int | None,
        csr: GraphCSR | None,
    ) -> None:
        self.graph = owner.graph
        self.schema = schema
        self.limit = limit
        self.csr = csr
        self.kept: list[Any] = []  # rows, or one column list per block
        self.count = 0
        self.dropped_vertex = self.dropped_edge = self.dropped_label = 0
        column = {q: i for i, q in enumerate(schema)}
        self.edge_pairs = [(column[q1], column[q2]) for q1, q2 in owner._query_edges]
        query_vertices = [owner.query.vertex(q) for q in schema]
        if csr is not None:
            self.label_ids = [csr.candidate_array(qv) for qv in query_vertices]
        else:
            # the label check depends only on (query vertex, data
            # vertex), never on the row: memoized across the scan
            self.label_checks: list[tuple[int, VertexData, dict[int, bool]]] = [
                (i, qv, {}) for i, qv in enumerate(query_vertices)
            ]

    @property
    def full(self) -> bool:
        return self.limit is not None and self.count >= self.limit

    def feed(self, block: Any) -> None:
        """Check one block: tuple rows, or ndarray columns given a CSR."""
        (self._feed_rows if self.csr is None else self._feed_columns)(block)

    @hot_path
    def _feed_rows(self, rows: Iterable[Row]) -> None:
        vertex_ids = self.graph.vertex_id_view()
        has_edge = self.graph.has_edge
        data_vertex = self.graph.vertex
        edge_pairs = self.edge_pairs
        label_checks = self.label_checks
        limit = self.limit
        kept = self.kept
        append = kept.append
        dropped_vertex = dropped_edge = dropped_label = 0
        for row in rows:
            if limit is not None and len(kept) >= limit:
                break
            # Lines 9-12: every matched vertex must exist in G.
            for v in row:
                if v not in vertex_ids:
                    dropped_vertex += 1
                    break
            else:
                # Lines 15-18: every query edge must exist in G.
                for c1, c2 in edge_pairs:
                    if not has_edge(row[c1], row[c2]):
                        dropped_edge += 1
                        break
                else:
                    # Lines 21-22: exact (raw) label containment against Q.
                    for i, query_vertex, memo in label_checks:
                        v = row[i]
                        hit = memo.get(v)
                        if hit is None:
                            hit = query_vertex.matches(data_vertex(v))
                            memo[v] = hit
                        if not hit:
                            dropped_label += 1
                            break
                    else:
                        append(row)
        self.count = len(kept)
        self.dropped_vertex += dropped_vertex
        self.dropped_edge += dropped_edge
        self.dropped_label += dropped_label

    @hot_path
    def _feed_columns(self, cols: Sequence[Any]) -> None:
        """The checks as a cascade: each runs on the last one's survivors.

        Vertex existence is a bounds-guarded flag gather over every
        column; its survivors are ids of ``G``, so a query edge is an
        unguarded packed-key lookup in the CSR's sorted edge array and
        a label check a lookup in the query vertex's sorted candidate
        ids.  The counters are differences of survivor counts.
        """
        np, csr = vec.np, self.csr
        if csr is None or self.full:
            return
        alive = vec.bounded_flags(csr.exists, cols[0])
        for col in cols[1:]:
            alive &= vec.bounded_flags(csr.exists, col)
        in_graph = alive = np.flatnonzero(alive)
        for c1, c2 in self.edge_pairs:
            alive = alive[csr.edge_flags(cols[c1][alive], cols[c2][alive])]
        connected = alive
        for col, ids in zip(cols, self.label_ids):
            alive = alive[vec.isin_sorted(col[alive], ids)]
        scanned = len(cols[0])
        if self.limit is not None and self.count + len(alive) >= self.limit:
            alive = alive[: self.limit - self.count]
            scanned = int(alive[-1]) + 1
            in_graph = in_graph[: np.searchsorted(in_graph, scanned)]
            connected = connected[: np.searchsorted(connected, scanned)]
        self.dropped_vertex += scanned - len(in_graph)
        self.dropped_edge += len(in_graph) - len(connected)
        self.dropped_label += len(connected) - len(alive)
        self.kept.append([col[alive] for col in cols])
        self.count += len(alive)

    @hot_path
    def feed_images(self, cols: Sequence[Any], images: ImageMasks) -> None:
        """All ``k`` images of an anchored ``Rin`` in one pass over k-bit masks.

        Bit ``j`` of a row's mask says its image ``F_m`` is still a
        candidate: the AND of its columns' ``vmask``, then of every
        query edge's hashed pair mask, then of every query edge's exact
        pair mask on what is left, then of its columns' label masks
        (``F_m⁻¹`` of each query vertex's candidate ids); rows whose
        mask reaches 0 leave.  Only surviving (row, image) pairs go
        through ``F_m``, image-major and in row order, and the counters
        are bit counts of the retained stage masks over the rows
        ``limit`` lets the scan reach.
        """
        np = vec.np
        n = len(cols[0])
        for first, vmask, pair_keys, emask, hmask, shift, back in images.groups:
            in_graph = np.take(vmask, cols[0])
            for col in cols[1:]:
                in_graph &= np.take(vmask, col)
            rows = np.flatnonzero(in_graph)
            mask = in_graph[rows]
            for exact in (False, True):
                for c1, c2 in self.edge_pairs:
                    a, b = cols[c1][rows], cols[c2][rows]
                    key = np.minimum(a, b) * images.size + np.maximum(a, b)
                    if exact:
                        mask &= vec.lookup_sorted(pair_keys, emask, key)
                    else:
                        mask &= np.take(hmask, vec.hash_slots(key, shift))
                    live = np.flatnonzero(mask)
                    rows, mask = rows[live], mask[live]
            joined_rows, joined = rows, mask
            for col, ids in zip(cols, self.label_ids):
                labelled = np.zeros(images.size + 1, dtype=mask.dtype)
                for j, inverse in enumerate(back):
                    labelled[inverse[ids]] |= np.array(1 << j, dtype=mask.dtype)
                mask = mask & np.take(labelled, col[rows])
                live = np.flatnonzero(mask)
                rows, mask = rows[live], mask[live]
            for j in range(len(back)):
                if self.full:
                    return
                bit = np.array(1 << j, dtype=mask.dtype)
                take, scanned = rows[(mask & bit) != 0], n
                if self.limit is not None and self.count + len(take) >= self.limit:
                    take = take[: self.limit - self.count]
                    scanned = int(take[-1]) + 1
                alive = int(np.count_nonzero(in_graph[:scanned] & bit))
                reached = joined[: np.searchsorted(joined_rows, scanned)]
                connected = int(np.count_nonzero(reached & bit))
                self.dropped_vertex += scanned - alive
                self.dropped_edge += alive - connected
                self.dropped_label += connected - len(take)
                lut = images.luts[first + j]
                self.kept.append([np.take(lut, col[take]) for col in cols])
                self.count += len(take)

    def result(self, seconds: float, candidates: int) -> TableFilterResult:
        if self.csr is None or not self.kept:
            table = MatchTable(self.schema, self.kept)
        else:
            table = MatchTable.from_columns(
                self.schema,
                [vec.np.concatenate(parts) for parts in zip(*self.kept)],
                self.count,
            )
        return TableFilterResult(
            table=table,
            seconds=seconds,
            candidates=candidates,
            dropped_vertex=self.dropped_vertex,
            dropped_edge=self.dropped_edge,
            dropped_label=self.dropped_label,
        )


class ClientFilter:
    """The Algorithm-3 filter of one query ``Q`` over the original ``G``.

    ``csr`` is the CSR of ``G`` for the column cascade; the
    :class:`~repro.core.query_client.QueryClient` that owns ``G``
    passes its own so it is built once per client, not once per query
    (a standalone filter builds one on its first column scan).
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

        The one-block call of :class:`_Scan` — the column cascade when
        the table is large enough to be worth numpy and ``G`` has a
        CSR, the tuple loop otherwise.  ``limit`` stops the scan once
        that many true matches are found (top-``limit`` queries pay for
        only part of the candidate set).
        """
        started = time.perf_counter()
        cols = None
        if candidates.schema and vec.vectorize(len(candidates)) and (
            len(candidates) >= BULK_FILTER_MIN_ROWS or vec.mode() == "numpy"
        ):
            cols = candidates.as_columns()
        csr = self._csr.get() if cols is not None else None
        scan = _Scan(self, candidates.schema, limit, csr)
        if csr is None or cols is None:
            scan.feed(candidates.rows)
        else:
            scan.feed(cols)
        return scan.result(time.perf_counter() - started, len(candidates))

    @hot_path
    def filter_rin(
        self, rin: MatchTable, avt: AlignmentVertexTable, limit: int | None = None
    ) -> TableFilterResult:
        """Algorithm 3 as one pass: the exact matches straight from ``Rin``.

        The table, candidate count and counters of ``filter_table(
        avt.expand_known_table(rin), limit)`` without ever holding
        ``R(Qo, Gk)``: a flat-column ``Rin`` is checked where it
        stands, all ``k`` images at once (:meth:`_Scan.feed_images`),
        and only the survivors go through ``F_m``; tuple rows go through
        one ``F_m`` at a time, each image checked before the next is
        made.  That needs the ``k`` images to be disjoint, which
        :meth:`~repro.kauto.avt.AlignmentVertexTable.anchored_rin`
        establishes; an unanchored ``Rin`` takes the composition.
        """
        known, anchored = avt.anchored_rin(rin)
        if not anchored:
            return self.filter_table(avt.expand_known_table(known), limit)
        cols = known.columns()
        csr = self._csr.get() if cols is not None else None
        scan = _Scan(self, known.schema, limit, csr)
        checking = 0.0
        if csr is not None and cols is not None:
            started = time.perf_counter()
            scan.feed_images(cols, self._csr.images(csr, avt))
            checking = time.perf_counter() - started
        else:
            for block in avt.images(known):
                started = time.perf_counter()
                scan.feed(block)
                checking += time.perf_counter() - started
                if scan.full:
                    break
        result = scan.result(checking, len(known) * avt.k)
        result.anchored = True
        return result
