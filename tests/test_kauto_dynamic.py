"""Tests for incremental maintenance of a k-automorphic release."""

import pytest

from repro.anonymize import build_lct, cost_based_grouping
from repro.exceptions import GraphError
from repro.graph import assert_supergraph, compute_statistics
from repro.kauto import build_k_automorphic_graph, verify_k_automorphism
from repro.kauto.dynamic import DynamicRelease
from repro.matching import find_subgraph_matches, match_key


@pytest.fixture
def release(figure1):
    graph, schema = figure1
    lct = build_lct(
        schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph), seed=3
    )
    generalized = lct.apply_to_graph(graph)
    transform = build_k_automorphic_graph(generalized, 2, seed=1)
    # DynamicRelease mutates `original`; hand it a private copy
    return DynamicRelease(graph.copy(), transform, lct), schema


def pipeline_exact(release, query, original):
    """Run the full pipeline on the current release state."""
    from repro.anonymize import anonymize_query
    from repro.client import ClientFilter, expand_rin_table
    from repro.cloud import CloudServer

    outsourced = release.refresh_outsourced()
    cloud = CloudServer(outsourced.graph, release.avt, outsourced.block_vertices)
    answer = cloud.answer(anonymize_query(query, release.lct))
    candidates = expand_rin_table(answer.table, release.avt).table
    exact = ClientFilter(original, query).filter_table(candidates).table
    got = {match_key(m) for m in exact.to_matches()}
    oracle = {match_key(m) for m in find_subgraph_matches(query, original)}
    return got == oracle


class TestEdgeInsertion:
    def test_orbit_added_and_invariant_holds(self, release):
        dynamic, _ = release
        log = dynamic.insert_edge(0, 3)  # p1 - p4, not in Figure 1
        assert dynamic.original.has_edge(0, 3)
        assert dynamic.gk.has_edge(0, 3)
        assert len(log.added_edges) >= 1
        verify_k_automorphism(dynamic.gk, dynamic.avt)
        assert_supergraph(dynamic.original, dynamic.gk)

    def test_insert_missing_vertex_rejected(self, release):
        dynamic, _ = release
        with pytest.raises(GraphError):
            dynamic.insert_edge(0, 999)

    def test_insert_existing_edge_is_idempotent_on_gk(self, release):
        dynamic, _ = release
        before = dynamic.gk.edge_count
        log = dynamic.insert_edge(0, 4)  # already an edge of G (p1-c1)
        assert dynamic.gk.edge_count == before
        assert log.added_edges == []


class TestEdgeDeletion:
    def test_unpinned_orbit_removed(self, release):
        dynamic, _ = release
        dynamic.insert_edge(0, 3)
        before = dynamic.gk.edge_count
        log = dynamic.delete_edge(0, 3)
        assert not dynamic.original.has_edge(0, 3)
        verify_k_automorphism(dynamic.gk, dynamic.avt)
        assert_supergraph(dynamic.original, dynamic.gk)
        assert dynamic.gk.edge_count <= before
        assert log.removed_edges or dynamic.noise_edge_count() >= 0

    def test_pinned_orbit_stays_as_noise(self, release):
        dynamic, _ = release
        # find an original edge whose orbit contains another original edge
        pinned = None
        for u, v in list(dynamic.original.edges()):
            orbit = dynamic._edge_orbit(u, v)
            others = [
                e for e in orbit if e != (min(u, v), max(u, v))
                and dynamic.original.has_edge(*e)
            ]
            if others:
                pinned = (u, v)
                break
        if pinned is None:
            pytest.skip("this release has no pinned orbit")
        before = dynamic.gk.edge_count
        log = dynamic.delete_edge(*pinned)
        assert log.removed_edges == []
        assert dynamic.gk.edge_count == before  # edge became noise
        verify_k_automorphism(dynamic.gk, dynamic.avt)

    def test_delete_missing_edge_rejected(self, release):
        dynamic, _ = release
        with pytest.raises(GraphError):
            dynamic.delete_edge(0, 3)


class TestVertexInsertion:
    def test_new_row_with_twins(self, release):
        dynamic, _ = release
        before_rows = dynamic.avt.row_count
        log = dynamic.insert_vertex(100, "person", {"gender": ["male"]})
        assert dynamic.avt.row_count == before_rows + 1
        assert len(log.added_vertices) == dynamic.k
        verify_k_automorphism(dynamic.gk, dynamic.avt)
        # new vertex carries generalized (group) labels in Gk
        gk_labels = dynamic.gk.vertex(100).labels
        assert gk_labels != dynamic.original.vertex(100).labels

    def test_duplicate_vertex_rejected(self, release):
        dynamic, _ = release
        with pytest.raises(GraphError):
            dynamic.insert_vertex(0, "person")

    def test_connect_new_vertex(self, release):
        dynamic, _ = release
        dynamic.insert_vertex(100, "person", {"gender": ["female"]})
        dynamic.insert_edge(100, 0)
        verify_k_automorphism(dynamic.gk, dynamic.avt)
        assert dynamic.gk.has_edge(100, 0)


class TestPipelineExactnessAfterUpdates:
    def test_query_after_mixed_updates(self, release, figure1_query):
        dynamic, _ = release
        dynamic.insert_edge(0, 3)
        dynamic.insert_vertex(100, "person", {"gender": ["male"], "occupation": ["engineer"]})
        dynamic.insert_edge(100, 4)   # new person works at c1
        dynamic.insert_edge(100, 6)   # graduated from s1
        dynamic.delete_edge(0, 3)
        assert pipeline_exact(dynamic, figure1_query, dynamic.original)

    def test_new_vertex_appears_in_results(self, release):
        """After inserting a matching person, the query finds them."""
        from repro.graph import AttributedGraph

        dynamic, _ = release
        dynamic.insert_vertex(100, "person", {"occupation": ["engineer"]})
        dynamic.insert_edge(100, 4)
        query = AttributedGraph("q")
        query.add_vertex(0, "person", {"occupation": ["engineer"]})
        query.add_vertex(1, "company", {"company_type": ["internet"]})
        query.add_edge(0, 1)
        assert pipeline_exact(dynamic, query, dynamic.original)
        matches = find_subgraph_matches(query, dynamic.original)
        assert any(m[0] == 100 for m in matches)
