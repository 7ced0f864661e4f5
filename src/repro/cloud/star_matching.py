"""Star matching over the outsourced graph (Algorithm 1).

For each star ``S_i`` of the decomposition the cloud finds
``R(S_i, Go)``: candidate centers are located with the VBV bit
vectors, pruned with the LBV neighbourhood test, and the leaves are
then assigned by backtracking over the candidate center's neighbours
(injectively, per Definition 2).

Centers are restricted to the indexed vertex set (block ``B1`` for the
optimized method) while leaves may land anywhere in ``Go`` — exactly
the shape of ``Rin``'s anchored matches.

:func:`match_star_table` assigns leaves with an iterative backtracking
loop writing into a reusable row buffer; the center's neighbour list
is sorted once per center (not once per depth), per-leaf label checks
are memoized across centers, and results are emitted straight into a
:class:`~repro.matching.table.MatchTable` (no per-match dicts).  The
``max_results`` quota is enforced *inside* the leaf-assignment loop: a
single high-degree center cannot blow past the budget before
:class:`~repro.exceptions.ResultBudgetExceeded` fires.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.markers import hot_path
from repro.cloud.index import CloudIndex
from repro.exceptions import ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
from repro.matching import vec
from repro.matching.star import Star
from repro.matching.table import MatchTable, Row


@dataclass
class StarMatchStats:
    """Per-query star-matching telemetry (Figures 18 and 19)."""

    seconds: float = 0.0
    result_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def total_results(self) -> int:
        """``|RS|`` — total star matches produced for the query."""
        return sum(self.result_sizes.values())


def _leaf_order(query: AttributedGraph, star: Star) -> list[int]:
    """Most-constrained leaves first: more labels, then higher query id
    for determinism."""
    return sorted(
        star.leaves,
        key=lambda leaf: (
            -sum(len(v) for v in query.vertex(leaf).labels.values()),
            leaf,
        ),
    )


def _center_candidates(
    query: AttributedGraph, star: Star, index: CloudIndex
) -> Iterable[int] | None:
    """Candidate centers from the VBV; ``None`` = empty."""
    center_mask = index.candidate_center_mask(query.vertex(star.center))
    if not center_mask:
        return None
    return index.candidates_from_mask(center_mask)


def _query_mask(
    query: AttributedGraph, star: Star, index: CloudIndex
) -> int | None:
    """The LBV neighbourhood mask for the star's leaves; ``None`` = empty."""
    leaf_vertices = [query.vertex(leaf) for leaf in star.leaves]
    mask = index.query_neighbor_mask(leaf_vertices)
    if mask < 0 and star.leaves:
        return None
    return mask


@hot_path
def match_star_table(
    query: AttributedGraph,
    star: Star,
    index: CloudIndex,
    data: AttributedGraph,
    max_results: int | None = None,
) -> MatchTable:
    """``R(S, data)`` as a columnar table (Algorithm 1).

    The table schema is ``star.vertex_order`` (center first, then the
    sorted leaves).  Centers are drawn from the index; ``max_results``
    is an optional resource quota — exceeding it raises
    :class:`ResultBudgetExceeded` rather than exhausting cloud memory.

    When the index carries a :class:`~repro.cloud.index.GraphCSR` for
    ``data`` (and the vec mode allows it), the per-leaf candidate
    lists come from edge-candidate arrays — the CSR neighbor slice of
    the center intersected with the leaf's precomputed global
    candidate array — and rows are emitted straight into a flat
    row-major int64 buffer.  Otherwise the per-vertex memoized scan
    runs; either way the resumable-cursor enumeration below is shared,
    so the emission order (and the budget-exception point) is
    bit-identical across the layouts.
    """
    schema = (star.center, *star.leaves)

    candidate_iter = _center_candidates(query, star, index)
    if candidate_iter is None:
        return MatchTable(schema, [])
    query_mask = _query_mask(query, star, index)
    if query_mask is None:
        return MatchTable(schema, [])
    candidates = list(candidate_iter)
    if not candidates:
        return MatchTable(schema, [])

    leaf_order = _leaf_order(query, star)
    leaf_count = len(leaf_order)
    leaf_cols = [schema.index(leaf) for leaf in leaf_order]
    leaf_vertices = [query.vertex(leaf) for leaf in leaf_order]

    csr = index.csr
    # the CSR branch pays one numpy intersection per (center, leaf), so
    # it is gated on the candidate-center count — a selective query over
    # a huge graph stays on the memoized tuple scan
    use_csr = (
        csr is not None
        and csr.source is data
        and vec.vectorize(len(candidates))
    )
    if use_csr:
        assert csr is not None
        # global per-leaf candidate arrays, computed once per star: the
        # sorted ids every center's neighbor slice is intersected with
        leaf_globals = [csr.candidate_array(lv) for lv in leaf_vertices]
        if any(len(g) == 0 for g in leaf_globals):
            return MatchTable(schema, [])
        # flat row-major emission: ids are CSR-validated < 2^31, so the
        # array('q') buffer cannot overflow
        out_buf: array = array("q")
        emit = out_buf.extend
        rows: list[Row] = []
    else:
        # (leaf, data vertex) label checks are center-independent:
        # memoize them across centers — but only when enough centers
        # can revisit the same vertices to repay the per-check dict
        # traffic (a selective query with a handful of candidate
        # centers is cheaper checking labels inline).
        use_memo = len(candidates) >= 8
        leaf_memos: list[dict[int, bool]] = (
            [{} for _ in leaf_order] if use_memo else []
        )
        rows = []
        emit = None  # type: ignore[assignment]

    neighbors = data.neighbors
    degree = data.degree
    vertex = data.vertex
    supports = index.neighborhood_supports
    has_leaves = bool(star.leaves)
    count = 0

    row_buf: list[int] = [0] * (1 + leaf_count)
    positions: list[int] = [0] * max(leaf_count, 1)
    cand_lists: list[list[int]] = [[] for _ in range(leaf_count)]

    for center_candidate in candidates:
        if has_leaves and not supports(center_candidate, query_mask):
            continue
        if degree(center_candidate) < leaf_count:
            continue
        if leaf_count == 0:
            count += 1
            if use_csr:
                emit((center_candidate,))
            else:
                rows.append((center_candidate,))
            if max_results is not None and count > max_results:
                raise ResultBudgetExceeded("star matching", count, max_results)
            continue

        if use_csr:
            assert csr is not None
            # the CSR slice is already ascending — the same order the
            # tuple path gets from sorting the neighbour set
            nbr = csr.neighbor_slice(center_candidate)
            nbrs: list[int] = []
        else:
            # sorted once per center: the set is the same at every
            # backtracking depth
            nbrs = sorted(neighbors(center_candidate))

        # iterative DFS with resumable cursors over the per-leaf
        # candidate lists, writing into the reusable row buffer;
        # injectivity via the ``used`` set.  Candidate lists are
        # center-global (path-independent), so they are built lazily at
        # the first visit to each depth: a center whose first leaf has
        # no candidates never pays for the deeper scans, and an empty
        # list at any depth kills the whole center.
        row_buf[0] = center_candidate
        used = {center_candidate}
        depth = 0
        positions[0] = 0
        last = leaf_count - 1
        built = 0
        while True:
            if built <= depth:
                if use_csr:
                    cand = nbr[vec.isin_sorted(nbr, leaf_globals[depth])]
                    lst = cand.tolist()
                    cand_lists[depth] = lst
                elif use_memo:
                    memo = leaf_memos[depth]
                    leaf_vertex = leaf_vertices[depth]
                    lst = cand_lists[depth]
                    lst.clear()
                    for v in nbrs:
                        hit = memo.get(v)
                        if hit is None:
                            hit = leaf_vertex.matches(vertex(v))
                            memo[v] = hit
                        if hit:
                            lst.append(v)
                else:
                    leaf_vertex = leaf_vertices[depth]
                    lst = cand_lists[depth]
                    lst.clear()
                    for v in nbrs:
                        if leaf_vertex.matches(vertex(v)):
                            lst.append(v)
                built = depth + 1
                if not lst:
                    break
            else:
                lst = cand_lists[depth]
            i = positions[depth]
            limit = len(lst)
            chosen = -1
            while i < limit:
                v = lst[i]
                i += 1
                if v not in used:
                    chosen = v
                    break
            if chosen >= 0:
                positions[depth] = i
                row_buf[leaf_cols[depth]] = chosen
                if depth == last:
                    count += 1
                    if use_csr:
                        emit(row_buf)
                    else:
                        rows.append(tuple(row_buf))
                    if max_results is not None and count > max_results:
                        raise ResultBudgetExceeded(
                            "star matching", count, max_results
                        )
                else:
                    used.add(chosen)
                    depth += 1
                    positions[depth] = 0
            else:
                if depth == 0:
                    break
                depth -= 1
                used.discard(row_buf[leaf_cols[depth]])
    if use_csr:
        return MatchTable.from_flat_rows(schema, out_buf, 1 + leaf_count)
    return MatchTable(schema, rows)
