"""End-to-end behaviour on awkward inputs.

Disconnected data graphs, isolated vertices, unicode labels, single
edges — the pipeline must stay exact (or fail loudly) on all of them.
"""


from repro import PrivacyPreservingSystem, SystemConfig
from repro.graph import AttributedGraph, GraphSchema, schema_from_graph
from repro.matching import find_subgraph_matches, match_key


def run_pipeline(graph, schema, query, k=2):
    system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=k))
    outcome = system.query(query)
    oracle = {match_key(m) for m in find_subgraph_matches(query, graph)}
    assert {match_key(m) for m in outcome.matches} == oracle
    return outcome


class TestDisconnectedDataGraph:
    def build(self):
        graph = AttributedGraph("islands")
        for vid in range(4):
            graph.add_vertex(vid, "t", {"a": [f"l{vid % 2}"]})
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)  # second component
        # an isolated vertex too
        graph.add_vertex(9, "t", {"a": ["l0"]})
        return graph

    def test_two_components_and_an_isolated_vertex(self):
        graph = self.build()
        schema = schema_from_graph(graph)
        query = AttributedGraph("q")
        query.add_vertex(0, "t", {"a": ["l0"]})
        query.add_vertex(1, "t", {"a": ["l1"]})
        query.add_edge(0, 1)
        outcome = run_pipeline(graph, schema, query, k=2)
        assert len(outcome.matches) == 2  # one per component

    def test_single_vertex_query_counts_isolated(self):
        graph = self.build()
        schema = schema_from_graph(graph)
        query = AttributedGraph("q")
        query.add_vertex(0, "t", {"a": ["l0"]})
        outcome = run_pipeline(graph, schema, query, k=2)
        # vertices 0, 2 and isolated 9 carry l0
        assert len(outcome.matches) == 3


class TestMinimalGraphs:
    def test_single_edge_graph(self):
        graph = AttributedGraph()
        graph.add_vertex(0, "t", {"a": ["x"]})
        graph.add_vertex(1, "t", {"a": ["y"]})
        graph.add_edge(0, 1)
        schema = schema_from_graph(graph)
        query = graph.copy("q")
        run_pipeline(graph, schema, query, k=2)

    def test_high_k_on_small_graph(self):
        graph = AttributedGraph()
        for vid in range(3):
            graph.add_vertex(vid, "t", {"a": ["x"]})
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        schema = schema_from_graph(graph)
        query = AttributedGraph("q")
        query.add_vertex(0, "t", {"a": ["x"]})
        query.add_vertex(1, "t", {"a": ["x"]})
        query.add_edge(0, 1)
        # k exceeds |V|/2: heavy padding, still exact
        run_pipeline(graph, schema, query, k=4)


class TestUnicodeLabels:
    def test_unicode_through_the_whole_pipeline(self):
        graph = AttributedGraph("unicode")
        graph.add_vertex(0, "人", {"名前": ["太郎", "emoji🎓"]})
        graph.add_vertex(1, "人", {"名前": ["花子"]})
        graph.add_vertex(2, "会社", {"種類": ["ソフトウェア"]})
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.add_edge(0, 1)
        schema = GraphSchema.from_dict(
            {
                "人": {"名前": ["太郎", "花子", "emoji🎓", "次郎"]},
                "会社": {"種類": ["ソフトウェア", "インターネット"]},
            }
        )
        query = AttributedGraph("q")
        query.add_vertex(0, "人", {"名前": ["太郎"]})
        query.add_vertex(1, "会社")
        query.add_edge(0, 1)
        outcome = run_pipeline(graph, schema, query, k=2)
        assert len(outcome.matches) == 1

    def test_unicode_labels_stay_private(self):
        from repro.core.protocol import encode_upload

        graph = AttributedGraph("unicode")
        graph.add_vertex(0, "人", {"名前": ["太郎"]})
        graph.add_vertex(1, "人", {"名前": ["花子"]})
        graph.add_edge(0, 1)
        schema = GraphSchema.from_dict({"人": {"名前": ["太郎", "花子"]}})
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        payload = encode_upload(
            system.published.upload_graph, system.published.transform.avt
        )
        assert "太郎".encode("utf-8") not in payload
        assert "花子".encode("utf-8") not in payload
