"""Unit tests for the attributed graph model."""

import pytest

from repro.exceptions import GraphError
from repro.graph import AttributedGraph, VertexData


def build_path(n: int) -> AttributedGraph:
    graph = AttributedGraph("path")
    for vid in range(n):
        graph.add_vertex(vid, "t")
    for vid in range(n - 1):
        graph.add_edge(vid, vid + 1)
    return graph


class TestVertexOperations:
    def test_add_vertex_stores_payload(self):
        graph = AttributedGraph()
        data = graph.add_vertex(7, "person", {"gender": ["male"]})
        assert data.vertex_id == 7
        assert data.vertex_type == "person"
        assert data.labels == {"gender": frozenset({"male"})}
        assert 7 in graph
        assert graph.vertex_count == 1

    def test_add_vertex_without_labels(self):
        graph = AttributedGraph()
        data = graph.add_vertex(0, "person")
        assert data.labels == {}

    def test_empty_label_sets_are_dropped(self):
        graph = AttributedGraph()
        data = graph.add_vertex(0, "person", {"gender": []})
        assert data.labels == {}

    def test_duplicate_vertex_rejected(self):
        graph = AttributedGraph()
        graph.add_vertex(1, "t")
        with pytest.raises(GraphError):
            graph.add_vertex(1, "t")

    def test_unknown_vertex_lookup_raises(self):
        graph = AttributedGraph()
        with pytest.raises(GraphError):
            graph.vertex(42)
        with pytest.raises(GraphError):
            graph.neighbors(42)

    def test_vertex_id_view_is_live_and_read_only(self):
        g = AttributedGraph()
        g.add_vertex(1, "person")
        view = g.vertex_id_view()
        assert 1 in view and 2 not in view
        g.add_vertex(2, "person")
        assert 2 in view and set(view) == g.vertex_id_set()
        assert not hasattr(view, "add")

    def test_set_vertex_labels_replaces(self):
        graph = AttributedGraph()
        graph.add_vertex(0, "person", {"gender": ["male"]})
        graph.set_vertex_labels(0, {"gender": ["female"], "occupation": ["hr"]})
        labels = graph.vertex(0).labels
        assert labels["gender"] == frozenset({"female"})
        assert labels["occupation"] == frozenset({"hr"})


class TestEdgeOperations:
    def test_add_edge_is_undirected(self):
        graph = build_path(2)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.edge_count == 1

    def test_add_edge_twice_returns_false(self):
        graph = build_path(2)
        assert graph.add_edge(1, 0) is False
        assert graph.edge_count == 1

    def test_self_loop_rejected(self):
        graph = build_path(1)
        with pytest.raises(GraphError):
            graph.add_edge(0, 0)

    def test_edge_to_missing_vertex_rejected(self):
        graph = build_path(1)
        with pytest.raises(GraphError):
            graph.add_edge(0, 99)

    def test_remove_edge(self):
        graph = build_path(3)
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.edge_count == 1
        with pytest.raises(GraphError):
            graph.remove_edge(0, 1)

    def test_edges_iterates_each_once(self):
        graph = build_path(4)
        assert sorted(graph.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_degree_and_average_degree(self):
        graph = build_path(3)
        assert graph.degree(0) == 1
        assert graph.degree(1) == 2
        assert graph.average_degree() == pytest.approx(4 / 3)

    def test_average_degree_empty_graph(self):
        assert AttributedGraph().average_degree() == 0.0


class TestStructureHelpers:
    def test_connectivity(self):
        graph = build_path(5)
        assert graph.is_connected()
        graph.add_vertex(99, "t")
        assert not graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert AttributedGraph().is_connected()

    def test_connected_components(self):
        graph = build_path(3)
        graph.add_vertex(10, "t")
        graph.add_vertex(11, "t")
        graph.add_edge(10, 11)
        components = sorted(graph.connected_components(), key=len)
        assert [len(c) for c in components] == [2, 3]
        assert {10, 11} in components

    def test_induced_subgraph(self):
        graph = build_path(5)
        sub = graph.induced_subgraph([1, 2, 3])
        assert sub.vertex_id_set() == {1, 2, 3}
        assert sorted(sub.edges()) == [(1, 2), (2, 3)]
        # payload preserved
        assert sub.vertex(1).vertex_type == "t"

    def test_copy_is_independent(self):
        graph = build_path(3)
        clone = graph.copy()
        clone.add_edge(0, 2)
        assert not graph.has_edge(0, 2)
        assert clone.has_edge(0, 2)

    def test_relabeled_preserves_structure(self):
        graph = build_path(3)
        mapped = graph.relabeled({0: 10, 1: 11, 2: 12})
        assert sorted(mapped.edges()) == [(10, 11), (11, 12)]
        assert mapped.vertex(10).vertex_type == "t"

    def test_structure_equal(self):
        a = build_path(3)
        b = build_path(3)
        assert a.structure_equal(b)
        b.add_edge(0, 2)
        assert not a.structure_equal(b)

    def test_structure_equal_detects_label_difference(self):
        a = AttributedGraph()
        a.add_vertex(0, "t", {"a": ["x"]})
        b = AttributedGraph()
        b.add_vertex(0, "t", {"a": ["y"]})
        assert not a.structure_equal(b)


class TestVertexMatching:
    def test_matches_requires_same_type(self):
        q = VertexData(0, "person")
        v = VertexData(1, "company")
        assert not q.matches(v)

    def test_matches_label_subset(self):
        q = VertexData(0, "person", {"occupation": frozenset({"hr"})})
        v = VertexData(
            1, "person", {"occupation": frozenset({"hr", "manager"})}
        )
        assert q.matches(v)

    def test_matches_fails_on_missing_label(self):
        q = VertexData(0, "person", {"occupation": frozenset({"hr"})})
        v = VertexData(1, "person", {"occupation": frozenset({"manager"})})
        assert not q.matches(v)

    def test_matches_fails_on_missing_attribute(self):
        q = VertexData(0, "person", {"occupation": frozenset({"hr"})})
        v = VertexData(1, "person", {})
        assert not q.matches(v)

    def test_unconstrained_query_vertex_matches_any_same_type(self):
        q = VertexData(0, "person")
        v = VertexData(1, "person", {"gender": frozenset({"male"})})
        assert q.matches(v)

    def test_label_items_enumerates_pairs(self):
        v = VertexData(0, "t", {"a": frozenset({"x", "y"})})
        assert sorted(v.label_items()) == [("a", "x"), ("a", "y")]
