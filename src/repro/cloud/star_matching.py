"""Star matching over the outsourced graph (Algorithm 1).

For each star ``S_i`` of the decomposition the cloud finds
``R(S_i, Go)``: candidate centers are the AND of the VBV bit vectors
(line 4) and the LBV rows (line 6), and the leaves are then assigned
by backtracking over the candidate center's neighbours (injectively,
per Definition 2), each neighbour tested against a leaf with one AND
of bit masks.

Centers are restricted to the indexed vertex set (block ``B1`` for the
optimized method) while leaves may land anywhere in ``Go`` — exactly
the shape of ``Rin``'s anchored matches.

:func:`match_star_table` assigns leaves with an iterative backtracking
loop writing into a reusable row buffer; the center's neighbour list
is sorted once per center (not once per depth), and results are
emitted straight into a :class:`~repro.matching.table.MatchTable` (no
per-match dicts).  The ``max_results`` quota is enforced *inside* the
leaf-assignment loop: a single high-degree center cannot blow past the
budget before :class:`~repro.exceptions.ResultBudgetExceeded` fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.markers import hot_path
from repro.cloud.cache import leaf_order
from repro.cloud.index import CloudIndex
from repro.exceptions import ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
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
    :class:`ResultBudgetExceeded` rather than exhausting the cloud's RAM.
    ``data`` is the graph ``index`` was built over.

    Lines 4 and 6 are one AND over all indexed vertices (the VBVs of
    the center's groups and the LBV rows of the leaves' groups), and
    only the centers left in it are enumerated.  A data vertex may host
    a leaf iff its :attr:`~repro.cloud.index.CloudIndex.vertex_bits`
    contain the leaf's need mask, so each depth's candidate list is one
    AND per neighbour.  A group or type no vertex carries empties the
    star before any enumeration.  Depth ``i`` assigns the ``i``-th leaf
    of :func:`~repro.cloud.cache.leaf_order`, each over candidates in
    ascending id: the emission order the star cache reproduces on a hit.
    """
    schema = (star.center, *star.leaves)

    center_mask = index.candidate_center_mask(query.vertex(star.center))
    if center_mask and star.leaves:
        center_mask &= index.neighborhood_mask(
            query.vertex(leaf) for leaf in star.leaves
        )
    if not center_mask:
        return MatchTable(schema, [])
    order = leaf_order(query, star)
    needs: list[int] = []
    for leaf in order:
        need = index.need_mask(query.vertex(leaf))
        if need is None:
            return MatchTable(schema, [])
        needs.append(need)

    leaf_count = len(order)
    leaf_cols = [schema.index(leaf) for leaf in order]
    neighbors = data.neighbors
    degree = data.degree
    bits = index.vertex_bits
    rows: list[Row] = []
    count = 0

    row_buf: list[int] = [0] * (1 + leaf_count)
    positions: list[int] = [0] * max(leaf_count, 1)
    cand_lists: list[list[int]] = [[] for _ in range(leaf_count)]

    for center_candidate in index.candidates_from_mask(center_mask):
        if degree(center_candidate) < leaf_count:
            continue
        if leaf_count == 0:
            count += 1
            rows.append((center_candidate,))
            if max_results is not None and count > max_results:
                raise ResultBudgetExceeded("star matching", count, max_results)
            continue

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
                need = needs[depth]
                lst = [v for v in nbrs if bits[v] & need == need]
                cand_lists[depth] = lst
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
    return MatchTable(schema, rows)
