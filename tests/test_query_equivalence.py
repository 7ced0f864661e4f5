"""Algorithms 2 and 3 against the implementations they replaced.

Every function below marked *reference* is what the query path ran
before it stopped re-proving Theorem 3 per query — the streamed
per-image client cascade, the broadcast clash mask of the column join —
kept here verbatim, test-only.  The replacements must return the same
rows in the same order with the same counters and the same
budget-exception point, not merely equivalent ones; the dict oracle
(:mod:`tests.oracle`), which shares no code with either, must agree.

The third part pins the argument the cloud no longer checks with a sort:
what :func:`~repro.cloud.star_matching.match_plan` yields is anchored in
``B1`` and duplicate-free, so its expansion and the join of such tables
are duplicate-free too.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PrivacyPreservingSystem, SystemConfig
from repro.client import filtering
from repro.client.filtering import ClientFilter, _Scan
from repro.cloud import (
    decompose_query,
    expand_star_table,
    join_star_tables,
    result_join,
)
from repro.exceptions import QueryError, ResultBudgetExceeded
from repro.graph import AttributedGraph, make_schema, random_attributed_graph
from repro.kauto.dynamic import DynamicRelease
from repro.matching import MatchTable, vec
from repro.obs import NULL_SPAN
from repro.workloads import extract_shape_query, random_walk_query
from tests.oracle import expand_rin, filter_candidates
from tests.test_sharded_cloud import scattered_inline

needs_numpy = pytest.mark.skipif(
    not vec.HAVE_NUMPY, reason="the replaced kernels are the numpy arm's"
)
ARMS = ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ())

EQUIV = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# references (the replaced implementations, verbatim)
# ----------------------------------------------------------------------
def _reference_images(avt, rin, columns):
    """``AlignmentVertexTable.images`` with its flat-column branch."""
    if columns:
        built = avt._vector_luts()
        cols = rin.columns()
        assert built is not None and cols is not None
        yield cols
        np = vec.np
        out = [np.empty_like(col) for col in cols]
        for lut in built[0][1:]:
            for col, buf in zip(cols, out):
                np.take(lut, col, out=buf, mode="clip")
            yield out
    else:
        rows = rin.rows
        yield rows
        for m in range(1, avt.k):
            yield avt.remap_rows(rows, m)


def _reference_filter_rin(self, rin, avt, limit=None):
    """``ClientFilter.filter_rin`` streaming one ``F_m`` image at a time."""
    known, anchored = avt.anchored_rin(rin)
    if not anchored:
        return self.filter_table(avt.expand_known_table(known), limit)
    csr = self._csr.get() if known.is_columnar() else None
    scan = _Scan(self, known.schema, limit, csr)
    checking = 0.0
    for block in _reference_images(avt, known, columns=csr is not None):
        started = time.perf_counter()
        scan.feed(block)
        checking += time.perf_counter() - started
        if scan.full:
            break
    result = scan.result(checking, len(known) * avt.k)
    result.anchored = True
    return result


_REFERENCE_PAIR_CHUNK = 1 << 18


def _reference_clash(lcols, r_new, left_idx, right_idx, keep):
    """The broadcast ``(pairs x left width x new width)`` clash mask."""
    np = vec.np
    total = len(left_idx)
    left_mat = np.column_stack(lcols)
    new_mat = np.column_stack(r_new)
    for start in range(0, total, _REFERENCE_PAIR_CHUNK):
        chunk = slice(start, min(start + _REFERENCE_PAIR_CHUNK, total))
        clash = (
            left_mat[left_idx[chunk]][:, :, None]
            == new_mat[right_idx[chunk]][:, None, :]
        ).any(axis=(1, 2))
        keep[chunk] &= ~clash


def _reference_hash_join_columns(left, right, shared, shared_set, out_schema, budget):
    """``_hash_join_columns`` deciding injectivity by :func:`_reference_clash`."""
    lcols = left.as_columns()
    rcols = right.as_columns()
    if lcols is None or rcols is None:
        return None
    np = vec.np
    nl, nr = len(left), len(right)
    new_idx = [i for i, q in enumerate(right.schema) if q not in shared_set]
    if nl == 0 or nr == 0:
        width = len(left.schema) + len(new_idx)
        return MatchTable.from_columns(
            out_schema, [np.empty(0, dtype=np.int64) for _ in range(width)], 0
        )
    lk_cols = [lcols[left.column_of(q)] for q in shared]
    rk_cols = [rcols[right.column_of(q)] for q in shared]

    low = min(int(col.min()) for col in lk_cols + rk_cols)
    high = max(int(col.max()) for col in lk_cols + rk_cols)
    stride = high + 1
    if low < 0 or stride ** len(shared) >= 1 << 63:
        return None

    l_ok = vec.distinct_within_rows(lcols)
    r_new = [rcols[i] for i in new_idx]
    if r_new:
        r_ok = vec.distinct_within_rows(r_new)
    else:
        r_ok = np.ones(nr, dtype=bool)

    lkey = result_join._packed_keys(lk_cols, stride)
    rkey = result_join._packed_keys(rk_cols, stride)
    order_r = np.argsort(rkey, kind="stable")
    rkey_sorted = rkey[order_r]
    lo = np.searchsorted(rkey_sorted, lkey, side="left")
    hi = np.searchsorted(rkey_sorted, lkey, side="right")
    counts = np.where(l_ok, hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        width = len(left.schema) + len(new_idx)
        return MatchTable.from_columns(
            out_schema, [np.empty(0, dtype=np.int64) for _ in range(width)], 0
        )

    cum = np.cumsum(counts)
    left_idx = np.repeat(np.arange(nl, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    right_idx = order_r[np.repeat(lo, counts) + within]

    keep = r_ok[right_idx]
    if r_new:
        _reference_clash(lcols, r_new, left_idx, right_idx, keep)

    count = int(keep.sum())
    if budget is not None and count > budget:
        raise ResultBudgetExceeded("result join", budget + 1, budget)
    kept_l = left_idx[keep]
    kept_r = right_idx[keep]
    out_cols = [col[kept_l] for col in lcols] + [col[kept_r] for col in r_new]
    return MatchTable.from_columns(out_schema, out_cols, count)


# ----------------------------------------------------------------------
# (i) the one-pass client filter
# ----------------------------------------------------------------------
def _deployment(seed, n, types, k, shape, edges, keep_labels, **config):
    """A random deployment, a query over it and the cloud's honest answer."""
    schema = make_schema(types, 1, 2)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    system = PrivacyPreservingSystem.setup(
        graph, schema, SystemConfig(k=k, seed=seed, **config)
    )
    try:
        if shape == "star":
            query = extract_shape_query(
                graph, "star", edges, seed + 1, keep_label_probability=keep_labels
            )
        else:
            query = random_walk_query(
                graph, edges, seed + 1, keep_label_probability=keep_labels
            )
    except QueryError:  # the graph has no such star
        query = random_walk_query(graph, 1, seed + 1)
    answer = system.cloud.answer(system.client.prepare_query(query))
    return graph, system, query, answer


def _observed(result):
    return (
        result.table.schema,
        result.table.rows,
        result.candidates,
        result.dropped_vertex,
        result.dropped_edge,
        result.dropped_label,
        result.anchored,
    )


def _assert_filter_rin_equivalent(graph, system, query, rin, limit, anchored=True):
    """New == reference == dict oracle on one ``Rin`` and one ``limit``."""
    avt = system.client.avt
    new = ClientFilter(graph, query).filter_rin(rin, avt, limit)
    reference = _reference_filter_rin(ClientFilter(graph, query), rin, avt, limit)
    assert _observed(new) == _observed(reference)
    assert new.anchored is anchored
    candidates = expand_rin(rin.to_matches(), avt)
    oracle = filter_candidates(candidates, graph, query, limit)
    assert new.table.to_matches() == oracle.matches
    assert new.candidates == len(candidates)
    assert (new.dropped_vertex, new.dropped_edge, new.dropped_label) == (
        oracle.dropped_vertex,
        oracle.dropped_edge,
        oracle.dropped_label,
    )
    return new


def _limits(rin, graph, system, query):
    full = len(ClientFilter(graph, query).filter_rin(rin, system.client.avt).table)
    return (None, 1, 2, full, full + 3)


FILTER_PARAMS = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 80),
    types=st.integers(1, 2),
    k=st.sampled_from((2, 3, 5)),
    shape=st.sampled_from(("walk", "star")),
    edges=st.integers(1, 3),
    keep_labels=st.sampled_from((1.0, 0.5, 0.0)),
)


class TestOnePassFilterEqualsStreamedCascade:
    @pytest.mark.parametrize("arm", ARMS)
    @EQUIV
    @given(**FILTER_PARAMS)
    def test_rows_order_counters_and_limits(
        self, arm, seed, n, types, k, shape, edges, keep_labels
    ):
        graph, system, query, answer = _deployment(
            seed, n, types, k, shape, edges, keep_labels
        )
        with vec.override(arm):
            for limit in _limits(answer.table, graph, system, query):
                _assert_filter_rin_equivalent(
                    graph, system, query, answer.table, limit
                )

    @needs_numpy
    @settings(EQUIV, max_examples=8)
    @given(**{**FILTER_PARAMS, "k": st.just(5)})
    def test_images_taken_a_few_at_a_time(
        self, seed, n, types, k, shape, edges, keep_labels
    ):
        """A 2-bit mask word: k = 5 goes through in three groups."""
        graph, system, query, answer = _deployment(
            seed, n, types, k, shape, edges, keep_labels
        )
        with vec.override("numpy"), pytest.MonkeyPatch.context() as patch:
            patch.setattr(filtering, "MASK_BITS", 2)
            client_filter = ClientFilter(graph, query)
            client_filter.filter_rin(answer.table, system.client.avt)
            masks = client_filter._csr.image_masks
            assert [group[0] for group in masks.groups] == [0, 2, 4]
            for limit in _limits(answer.table, graph, system, query):
                _assert_filter_rin_equivalent(
                    graph, system, query, answer.table, limit
                )

    @needs_numpy
    def test_masks_take_the_narrowest_dtype_and_are_built_once(self):
        graph, system, query, answer = _deployment(3, 60, 2, 3, "walk", 3, 0.0)
        assert system.client._graph_csr.image_masks is None  # not by setup
        with vec.override("numpy"):
            for _ in range(2):
                system.client.process_answer(query, answer.table, answer.expanded)
        masks = system.client._graph_csr.image_masks
        assert masks is not None and masks.avt is system.client.avt
        (first, vmask, pair_keys, emask, hmask, shift, back), = masks.groups
        assert vmask.dtype == emask.dtype == hmask.dtype == vec.np.uint8
        assert len(hmask) >= 8 * (len(pair_keys) - 1)
        with vec.override("numpy"):
            system.client.process_answer(query, answer.table, answer.expanded)
        assert system.client._graph_csr.image_masks is masks
        assert vec.unsigned_dtype(9) == vec.np.uint16
        assert vec.unsigned_dtype(33) == vec.np.uint64


class TestOnePassFilterOnHostileRin:
    """What a confused or hostile cloud can put in ``Rin``."""

    @pytest.fixture(scope="class")
    def case(self):
        # 3 does not divide 61: Gk holds noise vertices past G's last id
        graph, system, query, answer = _deployment(11, 61, 2, 3, "walk", 2, 0.5)
        assert len(answer.table) > 4
        return graph, system, query, answer

    @pytest.mark.parametrize("arm", ARMS)
    def test_repeated_rows(self, case, arm):
        graph, system, query, answer = case
        rows = answer.table.rows
        tripled = MatchTable(answer.table.schema, rows + rows[:3] + rows)
        with vec.override(arm):
            honest = ClientFilter(graph, query).filter_rin(
                answer.table, system.client.avt
            )
            for limit in (len(honest.table), 1, None):
                got = _assert_filter_rin_equivalent(
                    graph, system, query, tripled, limit
                )
            assert _observed(got) == _observed(honest)

    @pytest.mark.parametrize("arm", ARMS)
    def test_ids_unknown_to_the_avt(self, case, arm):
        graph, system, query, answer = case
        width = len(answer.table.schema)
        bogus = [
            tuple(10_000 + c for c in range(width)),
            tuple(-5 - c for c in range(width)),
            answer.table.rows[0][:-1] + (1 << 40,),
        ]
        rin = MatchTable(
            answer.table.schema, bogus[:1] + answer.table.rows + bogus[1:]
        )
        with vec.override(arm):
            got = _assert_filter_rin_equivalent(graph, system, query, rin, None)
            assert got.candidates == len(answer.table) * system.client.avt.k

    @pytest.mark.parametrize("arm", ARMS)
    def test_no_column_in_the_first_block(self, case, arm):
        """Unanchored: today's composition, images deduped, flagged."""
        graph, system, query, answer = case
        avt = system.client.avt
        shifted = avt.remap_rows(answer.table.rows[::2], 1)
        rin = MatchTable(answer.table.schema, answer.table.rows + shifted)
        with vec.override(arm):
            for limit in (None, 2):
                _assert_filter_rin_equivalent(
                    graph, system, query, rin, limit, anchored=False
                )

    @pytest.mark.parametrize("arm", ARMS)
    def test_noise_vertices_at_and_past_the_end_of_g(self, case, arm):
        graph, system, query, answer = case
        avt = system.client.avt
        end = max(graph.vertex_ids()) + 1  # == len(csr.exists)
        noise = sorted(v for v in avt.vertex_ids() if v >= end)
        assert noise[0] == end and len(noise) >= 2
        rows = list(answer.table.rows)
        anchor = next(
            c
            for c in range(len(answer.table.schema))
            if all(avt.block_of(row[c]) == 0 for row in rows)
        )
        other = (anchor + 1) % len(answer.table.schema)
        for i, vid in enumerate(noise):
            row = list(rows[i])
            row[other] = vid
            rows.append(tuple(row))
        rin = MatchTable(answer.table.schema, rows)
        with vec.override(arm):
            got = _assert_filter_rin_equivalent(graph, system, query, rin, None)
            assert got.dropped_vertex > 0

    @pytest.mark.parametrize("arm", ARMS)
    def test_non_injective_rows(self, case, arm):
        """Two query vertices on one data vertex: a vertex-check drop."""
        graph, system, _, _ = case
        avt = system.client.avt
        u, v = next(
            (u, v)
            for u in avt.first_block()
            if u in graph
            for v in sorted(graph.neighbors(u))
        )
        # the path 0-1-2 with both ends like v: the row (v, u, v) passes
        # the existence, label and edge checks
        query = AttributedGraph()
        query.add_vertex_like(0, graph.vertex(v))
        query.add_vertex_like(1, graph.vertex(u))
        query.add_vertex_like(2, graph.vertex(v))
        query.add_edge(0, 1)
        query.add_edge(1, 2)
        row = (u, v, v)
        anchored = MatchTable((1, 0, 2), [row])
        unanchored = MatchTable((1, 0, 2), [row, *avt.remap_rows([row], 1)])
        with vec.override(arm):
            for rin, is_anchored in ((anchored, True), (unanchored, False)):
                for limit in (None, 1):
                    got = _assert_filter_rin_equivalent(
                        graph, system, query, rin, limit, anchored=is_anchored
                    )
                    assert got.table.rows == []
                    assert got.dropped_vertex == got.candidates == avt.k
            outcome = system.client.process_answer(query, anchored, False)
            assert outcome.matches == []


# ----------------------------------------------------------------------
# (ii) the column join's injectivity test
# ----------------------------------------------------------------------
@st.composite
def _join_sides(draw):
    """Two tables over overlapping schemas, values drawn to collide."""
    left_width = draw(st.integers(1, 5))
    right_width = draw(st.integers(1, 5))
    shared_count = draw(st.integers(1, min(left_width, right_width)))
    left_schema = tuple(range(left_width))
    shared = tuple(sorted(draw(st.permutations(left_schema))[:shared_count]))
    new = tuple(range(10, 10 + right_width - shared_count))
    right_schema = tuple(draw(st.permutations(shared + new)))
    values = st.integers(0, draw(st.integers(2, 9)))

    def table(schema):
        rows = draw(
            st.lists(
                st.tuples(*[values] * len(schema)), min_size=0, max_size=40
            )
        )
        return MatchTable(schema, rows)

    return table(left_schema), table(right_schema), shared


def _join_outcome(kernel, left, right, shared, budget):
    shared_set = set(shared)
    out_schema = left.schema + tuple(
        q for q in right.schema if q not in shared_set
    )
    try:
        table = kernel(left, right, shared, shared_set, out_schema, budget)
    except ResultBudgetExceeded as exc:
        return ("over budget", exc.stage, exc.size, exc.budget)
    return (table.schema, table.rows)


@needs_numpy
class TestPerColumnPairInjectivityEqualsBroadcastMask:
    @settings(EQUIV, max_examples=150)
    @given(sides=_join_sides(), budget=st.sampled_from((None, 0, 1, 5, 50)))
    def test_same_rows_and_same_budget_trip(self, sides, budget):
        left, right, shared = sides
        with vec.override("numpy"):
            new = _join_outcome(
                result_join._hash_join_columns, left, right, shared, budget
            )
            reference = _join_outcome(
                _reference_hash_join_columns, left, right, shared, budget
            )
        assert new == reference
        if budget is None:  # the tuple kernel counts past the budget one by one
            rows = _join_outcome(
                result_join._hash_join_rows, left, right, shared, None
            )
            assert new == rows


@needs_numpy
class TestRowDistinctnessByColumnPairs:
    @settings(EQUIV, max_examples=60)
    @given(
        width=st.integers(1, 16),
        rows=st.integers(0, 80),
        high=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        large=st.booleans(),
    )
    def test_flags_equal_a_set_per_row(self, width, rows, high, seed, large):
        np = vec.np
        n = rows * 100 if large else rows
        matrix = np.random.default_rng(seed).integers(
            -high, high + 1, size=(n, width), dtype=np.int64
        )
        cols = [np.ascontiguousarray(matrix[:, c]) for c in range(width)]
        flags = vec.distinct_within_rows(cols)
        assert flags.dtype == bool and len(flags) == n
        assert flags.tolist() == [
            len(set(row)) == len(row) for row in matrix.tolist()
        ]


# ----------------------------------------------------------------------
# (iii) Theorem 3: what the cloud no longer sorts to prove
# ----------------------------------------------------------------------
def _an_absent_edge(release):
    vertices = sorted(release.original.vertex_ids())
    return next(
        (u, v)
        for u in vertices
        for v in vertices
        if u < v and not release.original.has_edge(u, v)
    )


def _assert_duplicate_free(system, query, expandable):
    cloud = system.cloud
    qo = system.client.prepare_query(query)
    stars = decompose_query(qo, cloud.estimator).stars
    tables = cloud._match_stars(qo, stars, cloud.obs, NULL_SPAN)
    for table in tables.values():
        assert len(set(table.rows)) == len(table)
        if expandable:
            expanded = expand_star_table(table, cloud.avt)
            assert len(expanded) == cloud.avt.k * len(table)
            assert len(set(expanded.rows)) == len(expanded)
    joined, stats = join_star_tables(
        stars, tables, cloud.avt, expand=cloud.expand_in_cloud
    )
    assert joined.rows == joined.deduped().rows
    assert stats.rin_size == len(joined)
    return len(joined)


class TestTheorem3HoldsWithoutTheSort:
    @pytest.mark.parametrize("arm", ARMS)
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("method", ["EFF", "BAS"])
    @settings(EQUIV, max_examples=8)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(12, 60),
        k=st.integers(2, 4),
        edges=st.integers(1, 4),
    )
    def test_expansion_and_join_are_duplicate_free(
        self, arm, shards, method, seed, n, k, edges
    ):
        with vec.override(arm):
            graph, system, query, _ = _deployment(
                seed, n, 2, k, "walk", edges, 0.5, method=method
            )
            scattered_inline(system.cloud, shards)
            with system.cloud:
                assert _assert_duplicate_free(system, query, method == "EFF") > 0
                if method == "BAS":
                    return  # a BAS cloud stores Gk verbatim: no deltas
                release = DynamicRelease(
                    graph.copy(),
                    system.published.transform,
                    system.published.lct,
                )
                delta = release.go_delta(
                    release.insert_edge(*_an_absent_edge(release))
                )
                system.cloud.apply_delta(delta)
                _assert_duplicate_free(system, query, True)
