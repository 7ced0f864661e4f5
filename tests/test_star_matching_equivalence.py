"""Algorithm 1 against the kernel and index it replaced.

The *reference* functions and classes below are what the cloud ran
before star matching went to bit vectors only — the memoized, inline
and CSR arms of ``match_star_table`` and the ``CloudIndex`` that kept
the LBV by vertex beside a ``GraphCSR`` — kept here verbatim, test-only.
The replacement must return the same schema, the same rows in the same
order and the same :class:`ResultBudgetExceeded` point on every arm.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import PrivacyPreservingSystem, SystemConfig
from repro.cloud import build_cloud, decompose_query
from repro.cloud.cache import StarMatchCache, leaf_order
from repro.cloud.index import CloudIndex, GraphCSR, GroupBitKey, _bit_vector
from repro.cloud.server import match_plan
from repro.cloud.star_matching import match_star_table
from repro.exceptions import QueryError, ResultBudgetExceeded
from repro.graph import AttributedGraph, VertexData, make_schema, random_attributed_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import MatchTable, vec
from repro.matching.star import Star
from repro.matching.table import Row
from repro.obs import NULL_SPAN, NULL_TRACER
from repro.workloads import random_walk_query

ARMS = ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ())

EQUIV = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# references (the replaced implementations, verbatim)
# ----------------------------------------------------------------------
class _ReferenceCSR(GraphCSR):
    """``GraphCSR`` with the neighbour slices the CSR arm read, built
    here: the client's CSR keeps no adjacency."""

    def neighbor_slice(self, vid: int) -> Any:
        """The ascending neighbor-id array of ``vid`` (empty if unknown)."""
        np = vec.np
        if vid not in self.source.vertex_id_view():
            return np.empty(0, dtype=np.int64)
        return np.asarray(sorted(self.source.neighbors(vid)), dtype=np.int64)


def _reference_from_flat_rows(
    schema: Iterable[int], buf: array, width: int
) -> MatchTable:
    """``MatchTable.from_flat_rows`` over ``vec.columns_from_flat_rows``."""
    if width == 0:
        return MatchTable(tuple(schema), [])
    length, rem = divmod(len(buf), width)
    if rem:
        raise ValueError("row-major buffer length not a multiple of width")
    mat = vec.as_ndarray(buf)
    cols = [vec.np.ascontiguousarray(mat[i::width]) for i in range(width)]
    return MatchTable.from_columns(schema, cols, length)


@dataclass
class _ReferenceIndex:
    """``CloudIndex`` with the LBV by vertex and a ``GraphCSR``."""

    indexed_vertices: list[int]
    position: dict[int, int]
    type_bits: dict[str, int]
    vbv: dict[GroupBitKey, int]
    group_bit: dict[GroupBitKey, int]
    lbv: dict[int, int]
    csr: _ReferenceCSR | None = None
    build_seconds: float = 0.0
    _full_mask: int = field(default=0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: AttributedGraph,
        indexed_vertices: Sequence[int],
    ) -> "_ReferenceIndex":
        """Build the index over ``indexed_vertices`` of ``graph``.

        Neighbour information (LBV) is drawn from ``graph`` — for the
        optimized method that is ``Go``, which contains every ``Gk``
        edge incident to ``B1``, so LBVs are complete.
        """
        started = time.perf_counter()
        vertices = list(indexed_vertices)
        position = {vid: p for p, vid in enumerate(vertices)}

        # collect bit positions first and build each vector once: OR-ing
        # a |indexed|-bit integer per vertex per group is quadratic
        type_at: dict[str, list[int]] = {}
        group_at: dict[GroupBitKey, list[int]] = {}
        for vid in vertices:
            data = graph.vertex(vid)
            type_at.setdefault(data.vertex_type, []).append(position[vid])
            for attr, groups in data.labels.items():
                for group in groups:
                    group_at.setdefault((attr, group), []).append(position[vid])
        type_bits = {t: _bit_vector(at, len(vertices)) for t, at in type_at.items()}
        vbv = {key: _bit_vector(at, len(vertices)) for key, at in group_at.items()}
        group_bit = {key: bit for bit, key in enumerate(group_at)}

        # group bits must also exist for groups only seen on neighbours;
        # vertices sharing a label map (an upload profile) share its mask
        map_masks: dict[int, int] = {}
        lbv: dict[int, int] = {}
        for vid in vertices:
            neighbor_mask = 0
            for nbr in graph.neighbors(vid):
                labels = graph.vertex(nbr).labels
                mask = map_masks.get(id(labels))
                if mask is None:
                    mask = 0
                    for attr, groups in labels.items():
                        for group in groups:
                            bit = group_bit.setdefault((attr, group), len(group_bit))
                            mask |= 1 << bit
                    map_masks[id(labels)] = mask
                neighbor_mask |= mask
            lbv[vid] = neighbor_mask

        index = cls(
            indexed_vertices=vertices,
            position=position,
            type_bits=type_bits,
            vbv=vbv,
            group_bit=group_bit,
            lbv=lbv,
            csr=_ReferenceCSR.build(graph),
        )
        index._full_mask = (1 << len(vertices)) - 1
        index.build_seconds = time.perf_counter() - started
        return index

    # ------------------------------------------------------------------
    # Algorithm 1 primitives
    # ------------------------------------------------------------------
    def candidate_center_mask(self, query_vertex: VertexData) -> int:
        """Line 4 of Algorithm 1: AND of the VBVs of the center's groups.

        Returns 0 as soon as any constraint has no support (unknown
        type or group), which simply means "no candidates".
        """
        mask = self.type_bits.get(query_vertex.vertex_type, 0)
        for attr, groups in query_vertex.labels.items():
            for group in groups:
                mask &= self.vbv.get((attr, group), 0)
                if not mask:
                    return 0
        return mask

    def candidates_from_mask(self, mask: int) -> Iterable[int]:
        """Vertex ids of the set bits of ``mask``."""
        vertices = self.indexed_vertices
        while mask:
            low = mask & -mask
            yield vertices[low.bit_length() - 1]
            mask ^= low

    def query_neighbor_mask(self, leaf_vertices: Iterable[VertexData]) -> int:
        """``LBV(v_i)`` of Algorithm 1: bits of all groups on the leaves.

        Returns -1 (sentinel) if a leaf carries a group that no indexed
        vertex's neighbourhood contains — the star is unmatchable.
        """
        mask = 0
        for leaf in leaf_vertices:
            for attr, groups in leaf.labels.items():
                for group in groups:
                    bit = self.group_bit.get((attr, group))
                    if bit is None:
                        return -1
                    mask |= 1 << bit
        return mask

    def neighborhood_supports(self, vid: int, query_mask: int) -> bool:
        """Line 6 of Algorithm 1: ``LBV(va) ∧ LBV(vi) == LBV(vi)``."""
        if query_mask < 0:
            return False
        have = self.lbv.get(vid, 0)
        return (have & query_mask) == query_mask


def _reference_center_candidates(
    query: AttributedGraph, star: Star, index: _ReferenceIndex
) -> Iterable[int] | None:
    """Candidate centers from the VBV; ``None`` = empty."""
    center_mask = index.candidate_center_mask(query.vertex(star.center))
    if not center_mask:
        return None
    return index.candidates_from_mask(center_mask)


def _reference_query_mask(
    query: AttributedGraph, star: Star, index: _ReferenceIndex
) -> int | None:
    """The LBV neighbourhood mask for the star's leaves; ``None`` = empty."""
    leaf_vertices = [query.vertex(leaf) for leaf in star.leaves]
    mask = index.query_neighbor_mask(leaf_vertices)
    if mask < 0 and star.leaves:
        return None
    return mask


def _reference_match_star_table(
    query: AttributedGraph,
    star: Star,
    index: _ReferenceIndex,
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

    candidate_iter = _reference_center_candidates(query, star, index)
    if candidate_iter is None:
        return MatchTable(schema, [])
    query_mask = _reference_query_mask(query, star, index)
    if query_mask is None:
        return MatchTable(schema, [])
    candidates = list(candidate_iter)
    if not candidates:
        return MatchTable(schema, [])

    order = leaf_order(query, star)
    leaf_count = len(order)
    leaf_cols = [schema.index(leaf) for leaf in order]
    leaf_vertices = [query.vertex(leaf) for leaf in order]

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
            [{} for _ in order] if use_memo else []
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
        return _reference_from_flat_rows(schema, out_buf, 1 + leaf_count)
    return MatchTable(schema, rows)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
TYPES = ("t0", "t1", "t2", "t3")
ATTRS = ("a0", "a1", "a2")
GROUPS = ("g0", "g1", "g2")
#: how a query vertex is drawn from a data vertex
MODES = ("copy", "copy", "copy", "bare")
#: what may spoil one query vertex of a star
SPOILERS = (None, None, "unknown group", "unknown type", "no labels")


@dataclass
class Case:
    graph: AttributedGraph
    indexed: list[int]
    query: AttributedGraph
    star: Star


def _typed_graph(
    rng: random.Random, n: int, types: int, attrs: int, shared: bool, base: int = 0
):
    """``n`` vertices (ids from ``base``) over ``types`` types and
    ``attrs`` attributes; with ``shared``, vertices of one (type,
    labels) profile share one map."""
    graph = AttributedGraph("typed")
    profiles: dict[tuple, VertexData] = {}
    for vid in range(base, base + n):
        vertex_type = rng.choice(TYPES[:types])
        labels = {
            attr: sorted(rng.sample(GROUPS, rng.randint(0, 2)))
            for attr in ATTRS[:attrs]
        }
        profile = (vertex_type, tuple(sorted((a, tuple(g)) for a, g in labels.items())))
        if shared and profile in profiles:
            graph.add_vertex_like(vid, profiles[profile])
        else:
            profiles[profile] = graph.add_vertex(vid, vertex_type, labels)
    density = rng.choice((0.1, 0.3, 0.6))
    for u in range(base, base + n):
        for v in range(u + 1, base + n):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def _query_vertex(rng: random.Random, data: VertexData, mode: str):
    """``(type, labels)`` of one query vertex drawn from ``data`` in ``mode``."""
    if mode == "unknown type":
        return "robot", {}
    if mode in ("bare", "no labels"):
        return data.vertex_type, {}
    labels = {
        attr: sorted(rng.sample(sorted(groups), rng.randint(1, len(groups))))
        for attr, groups in data.labels.items()
        if rng.random() < 0.7
    }
    if mode == "unknown group":
        labels[rng.choice(ATTRS)] = ["nope"]
    return data.vertex_type, labels


@st.composite
def cases(draw, max_leaves: int = 6):
    """A typed graph, an index set over it and a star query."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    graph = _typed_graph(
        rng,
        n,
        draw(st.integers(1, 4)),
        draw(st.integers(0, 3)),
        draw(st.booleans()),
        draw(st.sampled_from((0, 0, 2**40))),  # dense ids, or too sparse for a list
    )
    kind = draw(st.sampled_from(("go", "bas", "subset")))
    if kind == "bas":  # the BAS baseline indexes every vertex
        indexed = sorted(graph.vertex_ids())
    else:  # Go-like: B1 plus its halo; or B1 inside the whole graph
        indexed = rng.sample(sorted(graph.vertex_ids()), rng.randint(1, n))
        if kind == "go":
            graph = graph.incident_subgraph(indexed, name="go")
    leaves = draw(st.integers(0, max_leaves))
    # drawn around one indexed vertex, so that some stars match
    anchor = rng.choice(indexed)
    around = sorted(graph.neighbors(anchor)) or [anchor]
    modes = [draw(st.sampled_from(MODES)) for _ in range(leaves + 1)]
    spoiler = draw(st.sampled_from(SPOILERS))
    if spoiler is not None:
        modes[draw(st.integers(0, leaves))] = spoiler
    query = AttributedGraph("star")
    for q, mode in enumerate(modes):
        data = graph.vertex(anchor if q == 0 else rng.choice(around))
        query.add_vertex(q, *_query_vertex(rng, data, mode))
    for leaf in range(1, leaves + 1):
        query.add_edge(0, leaf)
    star = Star(center=0, leaves=tuple(range(1, leaves + 1)))
    return Case(graph, indexed, query, star)


#: a star with more rows than this is compared at its budget trip only
LISTABLE = 20_000


def _outcome(kernel, index, case: Case, max_results: int | None):
    try:
        table = kernel(case.query, case.star, index, case.graph, max_results=max_results)
    except ResultBudgetExceeded as exc:
        return ("raised", exc.stage, exc.size, exc.budget)
    return ("table", table.schema, table.rows)


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class TestKernelEqualsTheReplacedArms:
    @pytest.mark.parametrize("arm", ARMS)
    @EQUIV
    @given(case=cases())
    def test_rows_order_and_budget_trip(self, arm, case):
        with vec.override(arm):
            reference = _ReferenceIndex.build(case.graph, case.indexed)
            index = CloudIndex.build(case.graph, case.indexed)
            budgets: tuple[int | None, ...] = (LISTABLE,)
            listed = _outcome(_reference_match_star_table, reference, case, LISTABLE)
            if listed[0] == "table":
                count = len(listed[2])
                budgets = (None, count - 1, count)
            for budget in budgets:
                assert _outcome(match_star_table, index, case, budget) == _outcome(
                    _reference_match_star_table, reference, case, budget
                )

    @pytest.mark.parametrize("arm", ARMS)
    def test_more_centers_than_the_csr_gate(self, arm):
        """A star with >= 64 candidate centers: the auto mode's CSR arm."""
        rng = random.Random(7)
        graph = _typed_graph(rng, 160, 1, 1, True)
        query = AttributedGraph("star")
        query.add_vertex(0, "t0")
        for leaf in (1, 2):
            query.add_vertex(leaf, "t0")
            query.add_edge(0, leaf)
        case = Case(graph, sorted(graph.vertex_ids()), query, Star(0, (1, 2)))
        with vec.override(arm):
            reference = _ReferenceIndex.build(graph, case.indexed)
            full = _outcome(_reference_match_star_table, reference, case, None)
            assert len(full[2]) > 1000
            index = CloudIndex.build(graph, case.indexed)
            assert _outcome(match_star_table, index, case, None) == full
            assert _outcome(match_star_table, index, case, 500) == _outcome(
                _reference_match_star_table, reference, case, 500
            )


class TestIndexTables:
    @EQUIV
    @given(case=cases(max_leaves=0))
    def test_nbv_is_the_transposed_per_vertex_lbv(self, case):
        index = CloudIndex.build(case.graph, case.indexed)
        reference = _ReferenceIndex.build(case.graph, case.indexed)
        assert index.type_bits == reference.type_bits
        assert index.vbv == reference.vbv
        assert list(index.group_bit.items()) == list(reference.group_bit.items())
        assert index.nbv == {
            key: sum(
                1 << p
                for p, vid in enumerate(case.indexed)
                if reference.lbv[vid] >> bit & 1
            )
            for key, bit in reference.group_bit.items()
        }

    @EQUIV
    @given(case=cases())
    def test_a_mask_test_holds_iff_matches_does(self, case):
        index = CloudIndex.build(case.graph, case.indexed)
        for query_vertex in case.query.vertices():
            need = index.need_mask(query_vertex)
            for data in case.graph.vertices():
                hit = need is not None and index.vertex_bits[data.vertex_id] & need == need
                assert hit == query_vertex.matches(data)


# ----------------------------------------------------------------------
# whole plans: the star cache, four shards, a delta
# ----------------------------------------------------------------------
PLAN_PARAMS = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 60),
    k=st.integers(2, 4),
    edges=st.integers(1, 4),
)
#: Two of the plan's stars share a signature but not their query-id
#: leaf order: a hit used to replay the other star's row order.
SHARED_SIGNATURE = dict(seed=1666, n=26, k=2, edges=4)


def _an_absent_edge(graph):
    vertices = sorted(graph.vertex_ids())
    return next(
        (u, v) for u in vertices for v in vertices if u < v and not graph.has_edge(u, v)
    )


def _deployment(method, seed, n, k, edges):
    """A published system, its graph and a random query over it."""
    schema = make_schema(2, 1, 2)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    system = PrivacyPreservingSystem.setup(
        graph, schema, SystemConfig(k=k, seed=seed, method=method)
    )
    try:
        query = random_walk_query(graph, edges, seed + 1, keep_label_probability=0.5)
    except QueryError:
        query = random_walk_query(graph, 1, seed + 1)
    return system, graph, query


def _a_delta(system, graph):
    """One inserted edge, as the ``Go`` delta the owner ships."""
    release = DynamicRelease(
        graph.copy(), system.published.transform, system.published.lct
    )
    return release.go_delta(release.insert_edge(*_an_absent_edge(release.original)))


def _cloud_like(cloud, shards, star_cache_size=0):
    """A cloud over a copy of ``cloud``'s stored half."""
    return build_cloud(
        cloud.graph.copy(),
        cloud.avt,
        cloud.center_vertices,
        shards=shards,
        expand_in_cloud=cloud.expand_in_cloud,
        star_cache_size=star_cache_size,
    )


def _reference_tables(qo, stars, cloud) -> dict[int, list[Row]]:
    reference = _ReferenceIndex.build(cloud.graph, cloud.center_vertices)
    return {
        star.center: _reference_match_star_table(qo, star, reference, cloud.graph).rows
        for star in stars
    }


def _assert_plans_equal_the_parent(system, sharded, query):
    cloud = system.cloud
    qo = system.client.prepare_query(query)
    stars = decompose_query(qo, cloud.estimator).stars
    expected = _reference_tables(qo, stars, cloud)

    def one_server(misses):
        return match_plan(qo, misses, cloud.index, cloud.graph, None, NULL_TRACER)

    def four_shards(misses):
        return sharded._match_stars(qo, misses, sharded.obs, NULL_SPAN)

    for topology in (one_server, four_shards):
        for capacity in (0, 8):
            cache = StarMatchCache(capacity)
            for _ in range(2):  # the second pass reads what the first cached
                tables, _ = cache.plan_tables(qo, stars, topology)
                assert {c: t.rows for c, t in tables.items()} == expected


class TestPlansEqualTheParentKernel:
    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("method", ["EFF", "BAS"])
    @settings(EQUIV, max_examples=10)
    @example(**SHARED_SIGNATURE)
    @given(**PLAN_PARAMS)
    def test_cache_and_shards_before_and_after_a_delta(
        self, arm, method, seed, n, k, edges
    ):
        with vec.override(arm):
            system, graph, query = _deployment(method, seed, n, k, edges)
            with system.cloud, _cloud_like(system.cloud, 4) as sharded:
                _assert_plans_equal_the_parent(system, sharded, query)
                if method == "BAS":
                    return  # a BAS cloud stores Gk verbatim: no deltas
                delta = _a_delta(system, graph)
                system.cloud.apply_delta(delta)
                sharded.apply_delta(delta)
                _assert_plans_equal_the_parent(system, sharded, query)


def _observed(cloud, qo):
    """What a cloud answers one plan with, twice: every star table
    (schema, rows, order) and ``Rin``."""
    stars = decompose_query(qo, cloud.estimator).stars
    seen = []
    for _ in range(2):  # the second pass reads what the first cached
        tables, _ = cloud.star_cache.plan_tables(
            qo, stars, lambda misses: cloud._match_stars(qo, misses, cloud.obs, NULL_SPAN)
        )
        rin = cloud.answer(qo).table
        seen.append(
            (
                {c: (t.schema, t.rows) for c, t in tables.items()},
                rin.schema,
                list(rin.rows),
            )
        )
    return seen


class TestCacheOnEqualsCacheOff:
    """A cache hit is the cold run: rows and order, every table."""

    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("method", ["EFF", "BAS"])
    @settings(EQUIV, max_examples=10)
    @example(**SHARED_SIGNATURE)
    @given(**PLAN_PARAMS)
    def test_star_tables_and_rin_at_one_and_four_shards(
        self, arm, method, seed, n, k, edges
    ):
        with vec.override(arm):
            system, graph, query = _deployment(method, seed, n, k, edges)
            qo = system.client.prepare_query(query)
            clouds = [
                _cloud_like(system.cloud, shards, size)
                for shards in (1, 4)
                for size in (0, 8)
            ]
            try:
                reference = _observed(clouds[0], qo)
                for cloud in clouds[1:]:
                    assert _observed(cloud, qo) == reference
                if method == "BAS":
                    return  # a BAS cloud stores Gk verbatim: no deltas
                delta = _a_delta(system, graph)
                for cloud in clouds:
                    cloud.apply_delta(delta)
                reference = _observed(clouds[0], qo)
                for cloud in clouds[1:]:
                    assert _observed(cloud, qo) == reference
            finally:
                for cloud in clouds:
                    cloud.close()
