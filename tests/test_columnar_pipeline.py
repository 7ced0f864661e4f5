"""Equivalence suite: the columnar pipeline is bit-identical to the
dict oracle.

Every columnar kernel (Algorithm 1 star matching, the Algorithm 2 join
with and without anchor expansion, the AVT row expansion, the
Algorithm 3 client filter) is checked against its dict-based reference
implementation in :mod:`tests.oracle` over randomly generated graphs,
queries, ``k`` and decompositions — same results, same order, same
telemetry.  Budget and empty-decomposition edge cases of the columnar
path are covered at the end.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize import estimator_from_outsourced
from repro.client.expansion import expand_rin_table
from repro.client.filtering import ClientFilter
from repro.cloud import (
    CloudIndex,
    CloudServer,
    ShardedCloud,
    decompose_query,
    expand_star_table,
    join_star_tables,
    match_star_table,
)
from repro.cloud.cache import leaf_role_order, roles_to_table, table_to_roles
from repro.core.protocol import encode_answer_table
from repro.core.query_client import QueryClient
from repro.exceptions import QueryError, ResultBudgetExceeded
from repro.graph import AttributedGraph, make_schema, random_attributed_graph
from repro.kauto import build_k_automorphic_graph
from repro.matching import MatchTable, star_of, vec
from repro.obs import Observability, names
from repro.outsource import build_outsourced_graph
from repro.workloads import random_walk_query
from tests.oracle import (
    encode_answer,
    expand_rin,
    filter_candidates,
    join_star_matches,
    match_star,
)

#: The representation arms: tuple reference kernels and (when
#: installed) the numpy vector kernels forced on regardless of input
#: size.
ARMS = ("rows",) + (("numpy",) if vec.HAVE_NUMPY else ())

EQUIV = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

PARAMS = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(16, 40),
    k=st.integers(2, 4),
    edges=st.integers(1, 4),
)


def deployment(
    seed: int,
    n: int,
    k: int,
    edges: int,
    schema_shape: tuple[int, int, int] = (2, 1, 4),
) -> SimpleNamespace:
    """A random outsourced deployment plus a random query over it.

    ``schema_shape`` is ``(types, attributes, labels)``; ``(1, 1, 1)``
    produces the duplicate-label regime where every vertex carries the
    same type and the same single label group.
    """
    schema = make_schema(*schema_shape)
    graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
    query = random_walk_query(graph, edges, seed=seed + 1)
    transform = build_k_automorphic_graph(graph, k, seed=seed)
    outsourced = build_outsourced_graph(transform.gk, transform.avt)
    index = CloudIndex.build(outsourced.graph, outsourced.block_vertices)
    estimator = estimator_from_outsourced(
        outsourced.block_vertices, outsourced.graph, k
    )
    decomposition = decompose_query(query, estimator)
    return SimpleNamespace(
        graph=graph,
        query=query,
        avt=transform.avt,
        outsourced=outsourced,
        index=index,
        stars=decomposition.stars,
    )


def oracle_star_matches(dep: SimpleNamespace) -> dict[int, list]:
    """The dict oracle's ``R(S, Go)`` for every star of ``dep``."""
    return {
        star.center: match_star(
            dep.query, star, dep.index, dep.outsourced.graph
        )
        for star in dep.stars
    }


def table_join(
    dep: SimpleNamespace,
    star_matches: dict[int, list],
    expand: bool = True,
    expand_anchor: bool = False,
):
    """``join_star_tables`` over the tabulated ``star_matches``.

    ``expand_anchor`` is the straightforward strategy, which the
    library spells as a composition: every table expanded up front,
    then joined as-is.
    """
    tables = {
        star.center: MatchTable.from_matches(
            star_matches[star.center], star.vertex_order
        )
        for star in dep.stars
    }
    if expand and expand_anchor:
        tables = {c: expand_star_table(t, dep.avt) for c, t in tables.items()}
        expand = False
    return join_star_tables(dep.stars, tables, dep.avt, expand=expand)


class TestStarMatchingEquivalence:
    @EQUIV
    @given(**PARAMS)
    def test_table_kernel_bit_identical(self, seed, n, k, edges):
        dep = deployment(seed, n, k, edges)
        for star in dep.stars:
            legacy = match_star(dep.query, star, dep.index, dep.outsourced.graph)
            table = match_star_table(
                dep.query, star, dep.index, dep.outsourced.graph
            )
            assert table.schema == (star.center, *star.leaves)
            assert table.to_matches() == legacy  # same rows, same order

    @EQUIV
    @given(**PARAMS, use_vbv=st.booleans(), use_lbv=st.booleans())
    def test_index_ablation_flags_agree(self, seed, n, k, edges, use_vbv, use_lbv):
        """The index only prunes: the oracle answering without either
        half of it still equals the (fully indexed) kernel."""
        dep = deployment(seed, n, k, edges)
        star = dep.stars[0]
        legacy = match_star(
            dep.query,
            star,
            dep.index,
            dep.outsourced.graph,
            use_vbv=use_vbv,
            use_lbv=use_lbv,
        )
        table = match_star_table(
            dep.query, star, dep.index, dep.outsourced.graph
        )
        assert table.to_matches() == legacy

    def test_leafless_star(self, figure1_pipeline):
        """An isolated query vertex yields single-column rows."""
        pipe = figure1_pipeline
        index = CloudIndex.build(
            pipe.outsourced.graph, pipe.outsourced.block_vertices
        )
        query = AttributedGraph()
        data = pipe.qo.vertex(0)
        query.add_vertex(0, data.vertex_type, data.labels)
        star = star_of(query, 0)
        assert star.leaves == ()
        legacy = match_star(query, star, index, pipe.outsourced.graph)
        table = match_star_table(query, star, index, pipe.outsourced.graph)
        assert table.schema == (0,)
        assert table.to_matches() == legacy
        assert len(table) > 0


class TestJoinEquivalence:
    @EQUIV
    @given(**PARAMS, expand_anchor=st.booleans())
    def test_join_bit_identical(self, seed, n, k, edges, expand_anchor):
        dep = deployment(seed, n, k, edges)
        star_matches = oracle_star_matches(dep)
        legacy, legacy_stats = join_star_matches(
            dep.stars, star_matches, dep.avt, expand_anchor=expand_anchor
        )
        columnar, stats = table_join(
            dep, star_matches, expand_anchor=expand_anchor
        )
        assert columnar.to_matches() == legacy  # same matches, same order
        assert stats.anchor_center == legacy_stats.anchor_center
        assert stats.intermediate_sizes == legacy_stats.intermediate_sizes
        assert stats.rin_size == legacy_stats.rin_size

    @EQUIV
    @given(**PARAMS)
    def test_unexpanded_join_bit_identical(self, seed, n, k, edges):
        """The BAS-style join (``expand=False``) agrees as well."""
        dep = deployment(seed, n, k, edges)
        star_matches = oracle_star_matches(dep)
        legacy, _ = join_star_matches(
            dep.stars, star_matches, dep.avt, expand=False
        )
        columnar, _ = table_join(dep, star_matches, expand=False)
        assert columnar.to_matches() == legacy


class TestClientEquivalence:
    @EQUIV
    @given(**PARAMS)
    def test_expansion_and_filter_bit_identical(self, seed, n, k, edges):
        dep = deployment(seed, n, k, edges)
        rin, _ = join_star_matches(
            dep.stars, oracle_star_matches(dep), dep.avt
        )
        schema = tuple(sorted(dep.query.vertex_ids()))
        rin_table = MatchTable.from_matches(rin, schema)

        legacy_exp = expand_rin(rin, dep.avt)
        table_exp = expand_rin_table(rin_table, dep.avt)
        assert table_exp.table.to_matches() == legacy_exp
        assert table_exp.rin_size == len(rin)
        assert table_exp.rout_size == len(legacy_exp) - len(rin)

        legacy_fr = filter_candidates(legacy_exp, dep.graph, dep.query)
        table_fr = ClientFilter(dep.graph, dep.query).filter_table(
            table_exp.table
        )
        assert table_fr.table.to_matches() == legacy_fr.matches
        assert table_fr.candidates == len(legacy_exp)
        assert table_fr.dropped_vertex == legacy_fr.dropped_vertex
        assert table_fr.dropped_edge == legacy_fr.dropped_edge
        assert table_fr.dropped_label == legacy_fr.dropped_label

    @EQUIV
    @given(**PARAMS, limit=st.integers(0, 5))
    def test_filter_limit_agrees(self, seed, n, k, edges, limit):
        dep = deployment(seed, n, k, edges)
        rin, _ = join_star_matches(
            dep.stars, oracle_star_matches(dep), dep.avt
        )
        schema = tuple(sorted(dep.query.vertex_ids()))
        candidates = expand_rin(rin, dep.avt)
        table = MatchTable.from_matches(candidates, schema)
        flt = ClientFilter(dep.graph, dep.query)
        assert flt.filter_table(table, limit=limit).table.to_matches() == (
            filter_candidates(
                candidates, dep.graph, dep.query, limit=limit
            ).matches
        )


def single_pass(dep: SimpleNamespace, rin: list, limit: int | None = None):
    """``QueryClient.process_answer`` on ``rin``, as the oracle's terms.

    Returns ``(matches, candidate_count, counters, anchored)`` — the
    counters and the anchoring verdict read back from the
    ``client.filter`` span, where the single pass publishes them.
    """
    obs = Observability()
    client = QueryClient(dep.graph, None, dep.avt, obs=obs)  # no LCT needed here
    table = MatchTable.from_matches(rin, sorted(dep.query.vertex_ids()))
    outcome = client.process_answer(dep.query, table, False, limit=limit)
    trace = obs.tracer.trace()
    expand, checks = trace.first(names.CLIENT_EXPAND), trace.first(names.CLIENT_FILTER)
    # two shares of one pass, still in order and never negative
    assert expand.duration >= 0.0 and checks.duration >= 0.0
    assert checks.started_at >= expand.started_at + expand.duration - 1e-9
    assert (outcome.expansion_seconds, outcome.filter_seconds) == (
        expand.duration, checks.duration
    )
    attrs = checks.attributes
    assert expand.attributes["candidates"] == attrs["candidates"]
    assert attrs["candidates"] == outcome.candidate_count
    assert attrs["results"] == len(outcome.matches)
    counters = tuple(attrs[f"dropped_{c}"] for c in ("vertex", "edge", "label"))
    return outcome.matches, outcome.candidate_count, counters, attrs["anchored"]


def oracle_pass(dep: SimpleNamespace, rin: list, limit: int | None = None):
    """The same four facts from ``tests.oracle`` (``anchored`` excepted)."""
    candidates = expand_rin(rin, dep.avt)
    result = filter_candidates(candidates, dep.graph, dep.query, limit=limit)
    counters = (result.dropped_vertex, result.dropped_edge, result.dropped_label)
    return result.matches, len(candidates), counters


def honest_rin(dep: SimpleNamespace) -> list:
    return join_star_matches(dep.stars, oracle_star_matches(dep), dep.avt)[0]


def hostile_rins(dep: SimpleNamespace) -> dict[str, list]:
    """Answers no honest cloud sends, each built from the honest ``Rin``."""
    rin = honest_rin(dep)
    assert rin, "the fixture deployment must have candidates"
    order = sorted(dep.query.vertex_ids())
    top = max(dep.avt.vertex_ids())

    def with_cell(value: int) -> list:
        return rin[:2] + [{**rin[0], order[-1]: value}] + rin[2:]

    return {
        "duplicated": [m for m in rin for _ in range(3)] + rin,
        # Rin ∪ F_1(Rin): no column stays inside B1, and F_m of the
        # second half collides with other blocks' images of the first
        "unanchored": rin + [dep.avt.apply_to_match(m, 1) for m in rin],
        "unknown-id": with_cell(top + 7),
        "negative-id": with_cell(-3),
        "id-2**31": with_cell(2**31),
        "id-2**40": with_cell(2**40),
        "empty": [],
    }


class TestSinglePassClient:
    """``process_answer`` never builds ``R(Qo, Gk)`` and still equals the
    oracle's expand-then-filter in matches, order and every count."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("arm", ARMS + ("auto",))
    def test_honest_rin_equals_the_oracle(self, arm, k):
        kept = 0
        for seed in range(6):
            dep = deployment(seed, 36, k, 3)
            rin = honest_rin(dep)
            with vec.override(arm):
                matches, candidates, counters, anchored = single_pass(dep, rin)
            assert (matches, candidates, counters) == oracle_pass(dep, rin)
            assert anchored and candidates == k * len(rin)
            kept += len(matches)
        assert kept, "no seed produced an exact match: nothing was compared"

    @pytest.mark.parametrize(
        "kind",
        ["duplicated", "unanchored", "unknown-id", "negative-id", "id-2**31",
         "id-2**40", "empty"],
    )
    @pytest.mark.parametrize("arm", ARMS + ("auto",))
    def test_hostile_rin_equals_the_oracle(self, arm, kind):
        dep = deployment(5, 36, 3, 3)
        rin = hostile_rins(dep)[kind]
        with vec.override(arm):
            matches, candidates, counters, anchored = single_pass(dep, rin)
        assert (matches, candidates, counters) == oracle_pass(dep, rin)
        assert anchored == (kind != "unanchored")
        if kind == "unanchored":
            distinct = len({tuple(sorted(m.items())) for m in rin})
            assert candidates < dep.avt.k * distinct  # blocks really collide

    @pytest.mark.parametrize("arm", ARMS + ("auto",))
    def test_width_one_schema(self, arm):
        dep = deployment(5, 36, 3, 3)
        vid = next(iter(dep.graph.vertex_ids()))
        query = AttributedGraph()
        query.add_vertex(7, dep.graph.vertex(vid).vertex_type)
        dep.query = query
        rin = [{7: v} for v in dep.avt.first_block()]
        for hostile in (rin, rin + rin[:3], rin + [{7: -1}, {7: 2**31}]):
            with vec.override(arm):
                got = single_pass(dep, hostile)
            assert got[:3] == oracle_pass(dep, hostile)
            assert got[0]

    @pytest.mark.parametrize("arm", ARMS + ("auto",))
    def test_limit_returns_the_oracles_prefix(self, arm):
        dep, keeps = next(
            (d, keeps)
            for d in (deployment(seed, 36, 3, 2) for seed in range(40))
            for keeps in [per_block_keeps(d)]
            if keeps[0] and sum(keeps[1:])
        )
        rin = honest_rin(dep)
        for limit in (0, 1, keeps[0], keeps[0] + 1, 10**6):
            with vec.override(arm):
                got = single_pass(dep, rin, limit)
            assert got[:3] == oracle_pass(dep, rin, limit)
            assert len(got[0]) == min(limit, sum(keeps))

    @pytest.mark.parametrize("arm", ARMS)
    def test_only_an_unanchored_rin_takes_the_composition(self, arm, monkeypatch):
        """The fallback is the public ``filter_table(expand_known_table(..))``,
        reached by the anchoring guard and by nothing else."""
        dep = deployment(5, 36, 3, 3)
        calls = []
        real = type(dep.avt).expand_known_table
        monkeypatch.setattr(
            type(dep.avt),
            "expand_known_table",
            lambda avt, table: calls.append(len(table)) or real(avt, table),
        )
        rins = hostile_rins(dep)
        with vec.override(arm):
            for kind in ("duplicated", "unknown-id", "empty"):
                single_pass(dep, rins[kind])
            assert calls == []
            single_pass(dep, rins["unanchored"])
        assert len(calls) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(*[st.integers(-2, 45)] * 3), min_size=0, max_size=90
        ),
        anchor=st.booleans(),
        arm=st.sampled_from(ARMS + ("auto",)),
        limit=st.none() | st.integers(0, 6),
    )
    def test_single_pass_equals_the_public_composition(
        self, cells, anchor, arm, limit
    ):
        """On any table at all — ids outside the AVT (0..41 here),
        repeats, rows anchored or not — ``filter_rin`` is
        ``filter_table`` of ``expand_known_table``."""
        dep = TOY
        if anchor:  # pull the middle column into B1
            b1 = dep.avt.first_block()
            cells = [(a, b1[b % len(b1)], c) for a, b, c in cells]
        table = MatchTable(tuple(sorted(dep.query.vertex_ids())), list(cells))
        flt = ClientFilter(dep.graph, dep.query)
        with vec.override(arm):
            composed = flt.filter_table(dep.avt.expand_known_table(table), limit)
            streamed = flt.filter_rin(table, dep.avt, limit)
        assert streamed.anchored == dep.avt.anchored_rin(table)[1]
        assert streamed.table.rows == composed.table.rows
        assert streamed.candidates == composed.candidates
        assert (streamed.dropped_vertex, streamed.dropped_edge, streamed.dropped_label) == (
            composed.dropped_vertex, composed.dropped_edge, composed.dropped_label
        )


def per_block_keeps(dep: SimpleNamespace) -> list[int]:
    """Exact matches contributed by each ``F_m`` image of the honest Rin."""
    rin = honest_rin(dep)
    return [
        len(
            filter_candidates(
                [dep.avt.apply_to_match(m, shift) for m in rin], dep.graph, dep.query
            ).matches
        )
        for shift in range(dep.avt.k)
    ]


#: A published toy graph (40 vertices, k=3) and a 2-edge path query over
#: it, for the property test above.
TOY = deployment(11, 40, 3, 2)


class TestServerEquivalence:
    @EQUIV
    @given(**PARAMS)
    def test_cloud_answer_table_matches_legacy_pipeline(self, seed, n, k, edges):
        """``CloudServer.answer`` (columnar end to end) equals the
        legacy match-then-join composition."""
        dep = deployment(seed, n, k, edges)
        server = CloudServer(
            dep.outsourced.graph,
            dep.avt,
            dep.outsourced.block_vertices,
        )
        answer = server.answer(dep.query)
        legacy, _ = join_star_matches(
            dep.stars, oracle_star_matches(dep), dep.avt
        )
        assert answer.table.to_matches() == legacy
        assert answer.matches == legacy  # the lazy dict view agrees


class TestAvtRowKernels:
    @EQUIV
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 40), k=st.integers(2, 4))
    def test_row_kernels_equal_match_kernels(self, seed, n, k):
        schema = make_schema(2, 1, 4)
        graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
        avt = build_k_automorphic_graph(graph, k, seed=seed).avt
        vids = sorted(avt.vertex_ids())[: 3 * k]
        rows = [tuple(vids[i : i + 2]) for i in range(0, len(vids) - 1, 2)]
        matches = [dict(enumerate(row)) for row in rows]
        for m in range(2 * k):
            remapped = avt.remap_rows(rows, m)
            assert remapped == [
                tuple(avt.apply_to_match(match, m)[q] for q in range(len(row)))
                for match, row in zip(matches, rows)
            ]
        expanded = avt.expand_rows(rows)
        assert [dict(enumerate(row)) for row in expanded] == [
            avt.apply_to_match(match, m) for m in range(k) for match in matches
        ]
        noisy = rows + [(max(vids) + 10_000, vids[0])]
        assert avt.known_rows(noisy) == rows

    def test_remap_rejects_unknown_ids(self, figure1_pipeline):
        avt = figure1_pipeline.transform.avt
        with pytest.raises(KeyError):
            avt.remap_rows([(10**9,)], 1)


class TestColumnarEdgeCases:
    def test_star_budget_enforced_in_loop(self, figure1_pipeline):
        """Satellite: the quota trips *inside* the leaf assignment, so
        the overshoot is exactly one row — on both implementations."""
        pipe = figure1_pipeline
        index = CloudIndex.build(
            pipe.outsourced.graph, pipe.outsourced.block_vertices
        )
        star = next(
            s
            for s in (star_of(pipe.qo, c) for c in pipe.qo.vertex_ids())
            if len(match_star(pipe.qo, s, index, pipe.outsourced.graph)) > 1
        )
        for kernel in (match_star, match_star_table):
            with pytest.raises(ResultBudgetExceeded) as exc_info:
                kernel(pipe.qo, star, index, pipe.outsourced.graph, max_results=1)
            assert exc_info.value.stage == "star matching"
            assert exc_info.value.size == 2  # budget + 1, not a full center

    def test_join_budget_trips_columnar(self, figure1_pipeline):
        pipe = figure1_pipeline
        index = CloudIndex.build(
            pipe.outsourced.graph, pipe.outsourced.block_vertices
        )
        stars = [star_of(pipe.qo, c) for c in sorted(pipe.qo.vertex_ids())]
        tables = {
            s.center: match_star_table(pipe.qo, s, index, pipe.outsourced.graph)
            for s in stars
        }
        with pytest.raises(ResultBudgetExceeded) as exc_info:
            join_star_tables(stars, tables, pipe.transform.avt, max_intermediate=1)
        assert exc_info.value.stage == "result join"
        assert exc_info.value.size == 2  # enforced per emitted row

    def test_empty_decomposition_rejected(self, figure1_pipeline):
        avt = figure1_pipeline.transform.avt
        with pytest.raises(QueryError):
            join_star_tables([], {}, avt)

    def test_missing_star_table_rejected(self, figure1_pipeline):
        pipe = figure1_pipeline
        star = star_of(pipe.qo, 0)
        with pytest.raises(QueryError):
            join_star_tables([star], {}, pipe.transform.avt)

    def test_empty_star_table_short_circuits(self, figure1_pipeline):
        pipe = figure1_pipeline
        star = star_of(pipe.qo, 0)
        empty = MatchTable((star.center, *star.leaves))
        rin, stats = join_star_tables(
            [star], {star.center: empty}, pipe.transform.avt
        )
        assert len(rin) == 0
        assert stats.rin_size == 0
        assert stats.intermediate_sizes == [0]


# ----------------------------------------------------------------------
# three-way equivalence: dict vs tuple vs vector representations
# ----------------------------------------------------------------------
def table_pipeline(dep: SimpleNamespace) -> SimpleNamespace:
    """The full table pipeline under the *active* representation mode.

    Runs star matching, the join, the AVT expansion and the client
    filter, then snapshots everything an arm could disagree on: rows,
    telemetry counters, the cache codec's role tuples (and their JSON
    bytes), and the answer's wire frame.
    """
    star_tables = {
        star.center: match_star_table(
            dep.query, star, dep.index, dep.outsourced.graph
        )
        for star in dep.stars
    }
    rin, stats = join_star_tables(dep.stars, star_tables, dep.avt)
    expanded = expand_rin_table(rin, dep.avt)
    filtered = ClientFilter(dep.graph, dep.query).filter_table(expanded.table)
    order = sorted(dep.query.vertex_ids())
    roles = {
        star.center: table_to_roles(
            star_tables[star.center], star, leaf_role_order(dep.query, star)
        )
        for star in dep.stars
    }
    return SimpleNamespace(
        star_rows={c: list(t.rows) for c, t in star_tables.items()},
        roles=roles,
        roles_bytes=json.dumps(roles, separators=(",", ":")).encode("utf-8"),
        rin_rows=list(rin.rows),
        rin_matches=rin.to_matches(),
        rin_size=stats.rin_size,
        intermediate_sizes=stats.intermediate_sizes,
        answer_frame=encode_answer_table(rin, list(order), True),
        expanded_rows=list(expanded.table.rows),
        rout_size=expanded.rout_size,
        filtered_schema=filtered.table.schema,
        filtered_rows=list(filtered.table.rows),
        drop_counters=(
            filtered.dropped_vertex,
            filtered.dropped_edge,
            filtered.dropped_label,
        ),
    )


def dict_reference(dep: SimpleNamespace) -> SimpleNamespace:
    """The dict-oracle pipeline (never touches the vec shim)."""
    rin, stats = join_star_matches(
        dep.stars, oracle_star_matches(dep), dep.avt
    )
    expanded = expand_rin(rin, dep.avt)
    filtered = filter_candidates(expanded, dep.graph, dep.query)
    order = sorted(dep.query.vertex_ids())
    return SimpleNamespace(
        rin_matches=rin,
        rin_size=stats.rin_size,
        intermediate_sizes=stats.intermediate_sizes,
        answer_frame=encode_answer(rin, list(order), True),
        expanded_matches=expanded,
        rout_size=len(expanded) - len(rin),
        filtered_matches=filtered.matches,
        drop_counters=(
            filtered.dropped_vertex,
            filtered.dropped_edge,
            filtered.dropped_label,
        ),
    )


def assert_arms_identical(dep: SimpleNamespace) -> None:
    """Every representation arm is bit-identical to the dict pipeline
    and to every other arm — rows, order, telemetry, codec and wire
    bytes."""
    reference = dict_reference(dep)
    outputs = {}
    for arm in ARMS:
        with vec.override(arm):
            outputs[arm] = table_pipeline(dep)

    baseline = outputs["rows"]
    # the tuple arm reproduces the dict pipeline exactly, including the
    # answer frame bytes (encode_answer_table vs encode_answer)
    assert baseline.rin_matches == reference.rin_matches
    assert baseline.rin_size == reference.rin_size
    assert baseline.intermediate_sizes == reference.intermediate_sizes
    assert baseline.answer_frame == reference.answer_frame
    assert baseline.rout_size == reference.rout_size
    assert baseline.drop_counters == reference.drop_counters
    assert [
        dict(zip(baseline.filtered_schema, row))
        for row in baseline.filtered_rows
    ] == reference.filtered_matches

    # every other arm is byte-identical to the tuple arm
    for arm in ARMS[1:]:
        out = outputs[arm]
        assert out.star_rows == baseline.star_rows
        assert out.roles == baseline.roles
        assert out.roles_bytes == baseline.roles_bytes
        assert out.rin_rows == baseline.rin_rows
        assert out.rin_size == baseline.rin_size
        assert out.intermediate_sizes == baseline.intermediate_sizes
        assert out.answer_frame == baseline.answer_frame
        assert out.expanded_rows == baseline.expanded_rows
        assert out.rout_size == baseline.rout_size
        assert out.filtered_rows == baseline.filtered_rows
        assert out.drop_counters == baseline.drop_counters


class TestThreeWayEquivalence:
    """Satellite: vectorized vs tuple vs dict, compared byte for byte.

    :data:`ARMS` pins each representation through
    :func:`repro.matching.vec.override`; the numpy arm forces the
    vector kernels regardless of input size, so even tiny hypothesis
    graphs exercise them.
    """

    @EQUIV
    @given(**PARAMS)
    def test_pipeline_arms_bit_identical(self, seed, n, k, edges):
        assert_arms_identical(deployment(seed, n, k, edges))

    @EQUIV
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(16, 32),
        k=st.integers(2, 3),
        edges=st.integers(1, 3),
    )
    def test_duplicate_label_graph_arms_agree(self, seed, n, k, edges):
        """Every vertex shares one type and one label group — maximal
        candidate sets and duplicate-heavy inverted lists."""
        assert_arms_identical(
            deployment(seed, n, k, edges, schema_shape=(1, 1, 1))
        )

    @EQUIV
    @given(**PARAMS, budget=st.integers(0, 4))
    def test_star_budget_outcome_identical(self, seed, n, k, edges, budget):
        """``max_results`` trips at the same row with the same telemetry
        in every arm — or no arm trips at all."""
        dep = deployment(seed, n, k, edges)

        def dict_outcome():
            try:
                matches = [
                    match_star(
                        dep.query,
                        star,
                        dep.index,
                        dep.outsourced.graph,
                        max_results=budget,
                    )
                    for star in dep.stars
                ]
            except ResultBudgetExceeded as exc:
                return ("raise", exc.stage, exc.size, exc.budget)
            return ("ok", matches)

        def table_outcome():
            try:
                tables = [
                    match_star_table(
                        dep.query,
                        star,
                        dep.index,
                        dep.outsourced.graph,
                        max_results=budget,
                    )
                    for star in dep.stars
                ]
            except ResultBudgetExceeded as exc:
                return ("raise", exc.stage, exc.size, exc.budget)
            return ("ok", [t.to_matches() for t in tables])

        reference = dict_outcome()
        for arm in ARMS:
            with vec.override(arm):
                assert table_outcome() == reference

    @EQUIV
    @given(**PARAMS, budget=st.integers(1, 4))
    def test_join_budget_outcome_identical(self, seed, n, k, edges, budget):
        dep = deployment(seed, n, k, edges)

        def outcome():
            tables = {
                star.center: match_star_table(
                    dep.query, star, dep.index, dep.outsourced.graph
                )
                for star in dep.stars
            }
            try:
                rin, stats = join_star_tables(
                    dep.stars, tables, dep.avt, max_intermediate=budget
                )
            except ResultBudgetExceeded as exc:
                return ("raise", exc.stage, exc.size, exc.budget)
            return ("ok", list(rin.rows), stats.intermediate_sizes)

        results = {}
        for arm in ARMS:
            with vec.override(arm):
                results[arm] = outcome()
        assert all(r == results["rows"] for r in results.values())

    def test_empty_tables_identical_across_arms(self, figure1_pipeline):
        """A star with zero matches flows through join, expansion and
        filter as an empty table in every arm, with identical frames."""
        pipe = figure1_pipeline
        index = CloudIndex.build(
            pipe.outsourced.graph, pipe.outsourced.block_vertices
        )
        query = AttributedGraph()
        query.add_vertex(0, "no-such-type", {})
        star = star_of(query, 0)
        frames = set()
        for arm in ARMS:
            with vec.override(arm):
                table = match_star_table(
                    query, star, index, pipe.outsourced.graph
                )
                assert len(table) == 0
                rin, stats = join_star_tables(
                    [star], {0: table}, pipe.transform.avt
                )
                assert len(rin) == 0
                assert stats.rin_size == 0
                expanded = expand_rin_table(rin, pipe.transform.avt)
                assert len(expanded.table) == 0
                filtered = ClientFilter(pipe.graph, query).filter_table(
                    expanded.table
                )
                assert len(filtered.table) == 0
                frames.add(encode_answer_table(rin, [0], True))
        assert len(frames) == 1

    @pytest.mark.parametrize("shards", [1, 4])
    def test_shard_topologies_arms_agree(self, shards):
        """1-shard and 4-shard scatter-gather return the single-server
        answer in every arm, with identical per-star result sizes."""
        dep = deployment(21, 36, 2, 3)
        reference = CloudServer(
            dep.outsourced.graph, dep.avt, dep.outsourced.block_vertices
        ).answer(dep.query)
        for arm in ARMS:
            with vec.override(arm):
                with ShardedCloud(
                    dep.outsourced.graph,
                    dep.avt,
                    dep.outsourced.block_vertices,
                    shards=shards,
                    backend="serial",
                ) as cloud:
                    answer = cloud.answer(dep.query)
                assert answer.table.schema == reference.table.schema
                assert answer.table.rows == reference.table.rows
                assert (
                    answer.star_stats.result_sizes
                    == reference.star_stats.result_sizes
                )

    @EQUIV
    @given(**PARAMS)
    def test_cache_codec_round_trips_in_every_arm(self, seed, n, k, edges):
        """``roles_to_table(table_to_roles(t))`` is ``t`` in every arm,
        and the role payload bytes never vary by representation."""
        dep = deployment(seed, n, k, edges)
        star = dep.stars[0]
        order = leaf_role_order(dep.query, star)
        payloads = set()
        for arm in ARMS:
            with vec.override(arm):
                table = match_star_table(
                    dep.query, star, dep.index, dep.outsourced.graph
                )
                roles = table_to_roles(table, star, order)
                restored = roles_to_table(roles, star, order)
                assert restored.schema == table.schema
                assert restored.rows == table.rows
                payloads.add(
                    json.dumps(roles, separators=(",", ":")).encode("utf-8")
                )
        assert len(payloads) == 1
