"""The dict oracle: Algorithms 1-3 and the answer codec on ``dict`` matches.

The library computes every result set as a
:class:`~repro.matching.table.MatchTable`.  This module is the
independent reference the equivalence suites compare it against: one
straightforward ``dict[int, int]``-per-match implementation of each
algorithm and of the answer frame, kept deliberately naive (recursive
backtracking, dict merges, ``match_key`` dedupe).  Row *order* matters
as much as row content — the table kernels promise the same emission
order, the same budget-exception point and the same wire bytes — so
the loops below must not be reordered.

Set-level exactness (``R(Q, G)``) is checked elsewhere against the VF2
matcher in :mod:`repro.matching.isomorphism`; this oracle pins the
pipeline's intermediate results.  Tests import it; nothing under
``src/`` does.
"""

from __future__ import annotations

import binascii
import json
import struct
from dataclasses import dataclass

from repro.cloud.index import CloudIndex
from repro.cloud.result_join import JoinStats
from repro.exceptions import QueryError, ResultBudgetExceeded
from repro.graph.attributed import AttributedGraph
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.match import Match, dedupe_matches, is_injective
from repro.matching.star import Star


# ----------------------------------------------------------------------
# Algorithm 1: star matching
# ----------------------------------------------------------------------
def _leaf_order(query: AttributedGraph, star: Star) -> list[int]:
    """Leaves with more labels first, ties by ascending query id."""
    def key(leaf: int) -> tuple[int, int]:
        return (-sum(len(v) for v in query.vertex(leaf).labels.values()), leaf)

    return sorted(star.leaves, key=key)


def match_star(
    query: AttributedGraph,
    star: Star,
    index: CloudIndex,
    data: AttributedGraph,
    max_results: int | None = None,
    use_vbv: bool = True,
    use_lbv: bool = True,
) -> list[Match]:
    """``R(S, data)`` with centers drawn from the index, one dict each.

    Only ``index.indexed_vertices`` is read from the index: every test
    below is computed from ``data``.  Centers come in index order and
    leaves are assigned by the textbook recursion.  ``use_vbv`` picks
    how the centers are found — the VBV's AND, as per-group vertex sets
    (``True``), or a linear ``matches`` scan (``False``); ``use_lbv``
    applies line 6 — every group on every leaf carried by some
    neighbour of the center.  Either way the results are the same, by
    the index's contract.  ``max_results`` raises
    :class:`ResultBudgetExceeded` per emitted match.
    """
    center_vertex = query.vertex(star.center)
    indexed = index.indexed_vertices
    if use_vbv:  # line 4: the AND of the center's VBVs, as vertex sets
        chosen = {
            vid
            for vid in indexed
            if data.vertex(vid).vertex_type == center_vertex.vertex_type
        }
        for attr, groups in center_vertex.labels.items():
            for group in groups:
                chosen &= {
                    vid
                    for vid in indexed
                    if group in data.vertex(vid).labels.get(attr, ())
                }
        candidates = [vid for vid in indexed if vid in chosen]
    else:  # no VBV: a linear label scan of the indexed vertices
        candidates = [
            vid for vid in indexed if center_vertex.matches(data.vertex(vid))
        ]

    leaf_order = _leaf_order(query, star)
    leaf_vertices = [query.vertex(leaf) for leaf in leaf_order]
    wanted = {
        (attr, group)
        for leaf in leaf_vertices
        for attr, groups in leaf.labels.items()
        for group in groups
    }
    results: list[Match] = []

    def assign(depth: int, partial: Match, used: set[int], neighbors: list[int]) -> None:
        if depth == len(leaf_order):
            results.append(dict(partial))
            if max_results is not None and len(results) > max_results:
                raise ResultBudgetExceeded(
                    "star matching", len(results), max_results
                )
            return
        leaf = leaf_order[depth]
        for candidate in neighbors:
            if candidate in used:
                continue
            if not leaf_vertices[depth].matches(data.vertex(candidate)):
                continue
            partial[leaf] = candidate
            used.add(candidate)
            assign(depth + 1, partial, used, neighbors)
            used.discard(candidate)
            del partial[leaf]

    for center in candidates:
        neighbors = sorted(data.neighbors(center))
        if use_lbv:  # line 6: some neighbour carries each leaf group
            carried = {
                (attr, group)
                for nbr in neighbors
                for attr, groups in data.vertex(nbr).labels.items()
                for group in groups
            }
            if not wanted <= carried:
                continue
        if len(neighbors) < len(star.leaves):
            continue
        assign(0, {star.center: center}, {center}, neighbors)
    return results


# ----------------------------------------------------------------------
# Algorithm 2: result join
# ----------------------------------------------------------------------
def _expand_star_matches(
    matches: list[Match], avt: AlignmentVertexTable
) -> list[Match]:
    """``R(S, Gk) = ∪_m F_m(R(S, Go))`` (Lines 5-8)."""
    return dedupe_matches(
        [avt.apply_to_match(match, m) for m in range(avt.k) for match in matches]
    )


def _hash_join(
    left: list[Match],
    right: list[Match],
    shared: tuple[int, ...],
    budget: int | None,
) -> list[Match]:
    """Natural join on ``shared`` query vertices, injective merges only
    (Lines 10-12); no shared vertices degenerates to a cross product."""
    buckets: dict[tuple[int, ...], list[Match]] = {}
    for rm in right:
        buckets.setdefault(tuple(rm[q] for q in shared), []).append(rm)
    out: list[Match] = []
    for lm in left:
        for rm in buckets.get(tuple(lm[q] for q in shared), ()):
            merged = {**lm, **rm}
            if is_injective(merged):
                out.append(merged)
                if budget is not None and len(out) > budget:
                    raise ResultBudgetExceeded("result join", len(out), budget)
    return out


def join_star_matches(
    stars: list[Star],
    star_matches: dict[int, list[Match]],
    avt: AlignmentVertexTable,
    expand: bool = True,
    max_intermediate: int | None = None,
    expand_anchor: bool = False,
) -> tuple[list[Match], JoinStats]:
    """Algorithm 2 on dict matches; parameters as
    :func:`repro.cloud.result_join.join_star_tables`."""
    if not stars:
        raise QueryError("cannot join an empty decomposition")
    missing = [s.center for s in stars if s.center not in star_matches]
    if missing:
        raise QueryError(f"star matches missing for centers {missing}")
    stats = JoinStats()

    remaining = sorted(stars, key=lambda s: (len(star_matches[s.center]), s.center))
    anchor = remaining.pop(0)
    stats.anchor_center = anchor.center
    current: list[Match] = [dict(m) for m in star_matches[anchor.center]]
    if expand and expand_anchor:
        current = _expand_star_matches(current, avt)
    covered: set[int] = set(anchor.vertex_order)
    stats.intermediate_sizes.append(len(current))

    while remaining:
        overlapping = [s for s in remaining if s.overlaps(covered)]
        pool = overlapping or remaining  # disconnected fallback: cross join
        nxt = min(pool, key=lambda s: (len(star_matches[s.center]), s.center))
        remaining.remove(nxt)

        right = star_matches[nxt.center]
        if expand:
            right = _expand_star_matches(right, avt)
        shared = tuple(sorted(covered & set(nxt.vertex_order)))
        current = _hash_join(current, right, shared, max_intermediate)
        covered |= set(nxt.vertex_order)
        stats.intermediate_sizes.append(len(current))
        if not current:
            break

    rin = dedupe_matches(current)
    stats.rin_size = len(rin)
    return rin, stats


# ----------------------------------------------------------------------
# Algorithm 3: client expansion + filter
# ----------------------------------------------------------------------
def expand_rin(rin: list[Match], avt: AlignmentVertexTable) -> list[Match]:
    """``R(Qo, Gk) = Rin ∪ F_1(Rin) ∪ ... ∪ F_{k-1}(Rin)`` (Lines 1-5).

    Matches referencing vertices unknown to the AVT are dropped first.
    """
    usable = [match for match in rin if all(v in avt for v in match.values())]
    return dedupe_matches(
        [avt.apply_to_match(match, m) for m in range(avt.k) for match in usable]
    )


@dataclass
class FilterResult:
    matches: list[Match]
    dropped_vertex: int = 0
    dropped_edge: int = 0
    dropped_label: int = 0


def filter_candidates(
    candidates: list[Match],
    graph: AttributedGraph,
    query: AttributedGraph,
    limit: int | None = None,
) -> FilterResult:
    """Keep exactly the candidates that match ``query`` over ``graph``
    (Lines 6-23); ``limit`` stops after that many true matches."""
    vertex_set = graph.vertex_id_set()
    query_edges = list(query.edges())
    result = FilterResult(matches=[])
    for match in candidates:
        if limit is not None and len(result.matches) >= limit:
            break
        # Lines 9-12: every matched vertex must exist in G.
        if any(v not in vertex_set for v in match.values()):
            result.dropped_vertex += 1
        # Lines 15-18: every query edge must exist in G.
        elif any(
            not graph.has_edge(match[q1], match[q2]) for q1, q2 in query_edges
        ):
            result.dropped_edge += 1
        # Lines 21-22: exact (raw) label containment against Q.
        elif any(
            not query.vertex(q).matches(graph.vertex(v)) for q, v in match.items()
        ):
            result.dropped_label += 1
        else:
            result.matches.append(match)
    return result


# ----------------------------------------------------------------------
# answer codec
# ----------------------------------------------------------------------
#: ``struct`` format character per cell width in bytes.
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def pack_matches(matches: list[Match], order: list[int]) -> dict:
    """The packed-column ``rows`` object of a table frame, from dicts.

    Column-major in ``order``, little-endian signed cells of the
    narrowest width (1/2/4/8 bytes) that holds every value, base64.
    Written against the format's description, with ``struct`` where
    the library uses ``array``/numpy.
    """
    cells = [match[q] for q in order for match in matches]
    width = next(
        w
        for w in _STRUCT_CODES
        if all(-(2 ** (8 * w - 1)) <= c <= 2 ** (8 * w - 1) - 1 for c in cells)
    )
    raw = struct.pack(f"<{len(cells)}{_STRUCT_CODES[width]}", *cells)
    return {
        "n": len(matches),
        "w": width,
        "cols": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }


def unpack_matches(packed: dict, order: list[int]) -> list[Match]:
    """Inverse of :func:`pack_matches`, for well-formed objects only."""
    n = packed["n"]
    raw = binascii.a2b_base64(packed["cols"])
    cells = struct.unpack(
        f"<{n * len(order)}{_STRUCT_CODES[packed['w']]}", raw
    )
    return [
        {q: cells[column * n + row] for column, q in enumerate(order)}
        for row in range(n)
    ]


def encode_answer(
    matches: list[Match], query_order: list[int], expanded: bool
) -> bytes:
    """The answer frame built from dicts; the table codec's bytes must
    equal this."""
    return json.dumps(
        {
            "order": query_order,
            "rows": pack_matches(matches, query_order),
            "expanded": expanded,
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_answer(payload: bytes) -> tuple[list[Match], bool]:
    """Inverse of :func:`encode_answer`, for well-formed frames only."""
    data = json.loads(payload.decode("utf-8"))
    return unpack_matches(data["rows"], data["order"]), bool(data["expanded"])
