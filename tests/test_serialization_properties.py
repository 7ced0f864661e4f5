"""Property-based round-trip tests for every serialized artifact."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import LabelCorrespondenceTable
from repro.core.protocol import (
    decode_answer_table,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_query,
    encode_upload,
)
from repro.graph import AttributedGraph, graph_from_json, graph_to_json
from repro.kauto import AlignmentVertexTable
from repro.matching import MatchTable, matches_to_rows, rows_to_matches

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
label_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=6,
)


@st.composite
def attributed_graphs(draw) -> AttributedGraph:
    n = draw(st.integers(1, 12))
    graph = AttributedGraph(draw(label_text))
    types = draw(st.lists(label_text, min_size=1, max_size=3, unique=True))
    for vid in range(n):
        vertex_type = draw(st.sampled_from(types))
        labels = draw(
            st.dictionaries(
                keys=label_text,
                values=st.sets(label_text, min_size=1, max_size=3),
                max_size=2,
            )
        )
        graph.add_vertex(vid, vertex_type, {a: sorted(v) for a, v in labels.items()})
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible_edges:
        chosen = draw(
            st.lists(st.sampled_from(possible_edges), max_size=2 * n, unique=True)
        )
        for u, v in chosen:
            graph.add_edge(u, v)
    return graph


@st.composite
def avts(draw) -> AlignmentVertexTable:
    k = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    vid = iter(range(10_000))
    return AlignmentVertexTable([[next(vid) for _ in range(k)] for _ in range(rows)])


class TestGraphJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(graph=attributed_graphs())
    def test_round_trip(self, graph):
        restored = graph_from_json(graph_to_json(graph))
        assert restored.structure_equal(graph)
        assert restored.name == graph.name


class TestProtocolRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(graph=attributed_graphs(), avt=avts())
    def test_upload(self, graph, avt):
        restored_graph, restored_avt = decode_upload(encode_upload(graph, avt))
        assert restored_graph.structure_equal(graph)
        assert list(restored_avt.rows()) == list(avt.rows())

    @settings(max_examples=30, deadline=None)
    @given(graph=attributed_graphs())
    def test_query(self, graph):
        assert decode_query(encode_query(graph)).structure_equal(graph)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True),
        rows=st.integers(0, 30),
        expanded=st.booleans(),
        data=st.data(),
    )
    def test_answer(self, order, rows, expanded, data):
        matches = [
            {q: data.draw(st.integers(0, 10_000)) for q in order} for _ in range(rows)
        ]
        decoded, decoded_expanded = decode_answer_table(
            encode_answer_table(
                MatchTable.from_matches(matches, order), order, expanded
            )
        )
        assert decoded.to_matches() == matches
        assert decoded_expanded == expanded


    @settings(max_examples=80, deadline=None)
    @given(
        order=st.lists(st.integers(-5, 50), max_size=5, unique=True),
        n_rows=st.integers(0, 90),
        bits=st.sampled_from([3, 7, 8, 15, 16, 31, 32, 63]),
        expanded=st.booleans(),
        data=st.data(),
    )
    def test_answer_table_packed_columns(self, order, n_rows, bits, expanded, data):
        """``decode(encode(t)) == t`` for any int64 table, on either side
        of the vector threshold and at every cell width."""
        if not order:
            n_rows = 0
        cell = st.integers(-(2**bits), 2**bits - 1)
        rows = [
            tuple(data.draw(cell) for _ in order) for _ in range(n_rows)
        ]
        table = MatchTable(order, rows)
        shuffled = data.draw(st.permutations(order))
        decoded, decoded_expanded = decode_answer_table(
            encode_answer_table(table, shuffled, expanded)
        )
        assert decoded == table.projected(shuffled)
        assert decoded_expanded == expanded


class TestTabularRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        order=st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
        rows=st.integers(0, 20),
        data=st.data(),
    )
    def test_rows(self, order, rows, data):
        matches = [
            {q: data.draw(st.integers(0, 100)) for q in order} for _ in range(rows)
        ]
        assert rows_to_matches(matches_to_rows(matches, order), order) == matches


class TestLctRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.integers(1, 4),
        universes=st.lists(
            st.tuples(
                label_text,
                label_text,
                st.lists(label_text, min_size=1, max_size=8, unique=True),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_round_trip(self, theta, universes):
        lct = LabelCorrespondenceTable(theta)
        seen: set[tuple[str, str]] = set()
        for vertex_type, attribute, labels in universes:
            if (vertex_type, attribute) in seen:
                continue
            seen.add((vertex_type, attribute))
            # one group per universe (theta not enforced here)
            lct.add_group(vertex_type, attribute, labels)
        restored = LabelCorrespondenceTable.from_dict(lct.to_dict())
        assert restored.theta == lct.theta
        assert restored.group_ids() == lct.group_ids()
        for gid in lct.group_ids():
            assert restored.members(gid) == lct.members(gid)


class TestLctApplicationProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 25), theta=st.integers(1, 3))
    def test_generalization_properties(self, seed, n, theta):
        """LCT application: structure untouched, labels all group ids,
        and every group id maps back to a group containing the raw
        label it replaced."""
        from repro.anonymize import STRATEGIES, build_lct
        from repro.graph import make_schema, random_attributed_graph

        schema = make_schema(2, 1, 6)
        graph = random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed)
        lct = build_lct(schema, theta, STRATEGIES["RAN"], seed=seed)
        generalized = lct.apply_to_graph(graph)

        assert generalized.vertex_id_set() == graph.vertex_id_set()
        assert generalized.edge_set() == graph.edge_set()
        all_group_ids = set(lct.group_ids())
        for data in generalized.vertices():
            original = graph.vertex(data.vertex_id)
            assert data.vertex_type == original.vertex_type
            for attr, groups in data.labels.items():
                assert groups <= all_group_ids
                # soundness: each original label's group is present
                for label in original.labels.get(attr, ()):
                    assert lct.group_of(original.vertex_type, attr, label) in groups


class TestAvtDictRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(avt=avts())
    def test_round_trip(self, avt):
        restored = AlignmentVertexTable.from_dict(avt.to_dict())
        assert list(restored.rows()) == list(avt.rows())
        assert restored.k == avt.k
