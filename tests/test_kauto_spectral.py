"""Tests for the spectral partitioner."""

import pytest

pytest.importorskip("scipy", reason="spectral partitioning needs the solver stack")

from repro.exceptions import PartitionError
from repro.graph import (
    AttributedGraph,
    cycle_graph,
    grid_graph,
    planted_partition_graph,
)
from repro.kauto import (
    cut_size,
    partition_graph,
    spectral_partition,
    validate_partition,
)


class TestSpectralPartition:
    def test_valid_partition(self, small_graph):
        for k in (2, 3, 4):
            blocks = spectral_partition(small_graph, k)
            validate_partition(small_graph, blocks, k)

    def test_grid_bisection_optimal(self):
        graph = grid_graph(4, 16)
        blocks = spectral_partition(graph, 2)
        assert cut_size(graph, blocks) <= 6  # optimal is 4

    def test_recovers_planted_communities(self):
        graph, planted = planted_partition_graph(3, 30, 0.3, 0.01, seed=5)
        blocks = spectral_partition(graph, 3)
        assert cut_size(graph, blocks) <= 1.2 * max(cut_size(graph, planted), 1)

    def test_k1(self, small_graph):
        blocks = spectral_partition(small_graph, 1)
        assert blocks == [sorted(small_graph.vertex_ids())]

    def test_invalid_k(self, small_graph):
        with pytest.raises(PartitionError):
            spectral_partition(small_graph, 0)

    def test_tiny_graph(self):
        graph = AttributedGraph()
        graph.add_vertex(0, "t")
        graph.add_vertex(1, "t")
        graph.add_edge(0, 1)
        blocks = spectral_partition(graph, 2)
        validate_partition(graph, blocks, 2)

    def test_cycle_split_is_contiguous_quality(self):
        graph = cycle_graph(40)
        blocks = spectral_partition(graph, 2)
        # optimal cut of a cycle is 2
        assert cut_size(graph, blocks) <= 4

    def test_competitive_with_multilevel_on_clustered_graph(self):
        graph, _ = planted_partition_graph(2, 40, 0.25, 0.01, seed=3)
        spectral_cut = cut_size(graph, spectral_partition(graph, 2))
        multilevel_cut = cut_size(graph, partition_graph(graph, 2, seed=3))
        assert spectral_cut <= 1.5 * max(multilevel_cut, 1)


class TestSpectralInsideTransform:
    def test_builder_accepts_spectral_partitioner(self, small_graph):
        from repro.kauto import build_k_automorphic_graph, verify_k_automorphism

        result = build_k_automorphic_graph(
            small_graph, 3, partitioner=spectral_partition
        )
        verify_k_automorphism(result.gk, result.avt)

    def test_full_pipeline_with_spectral_partitioner(self, figure1, figure1_query):
        from repro.anonymize import (
            anonymize_query,
            build_lct,
            cost_based_grouping,
        )
        from repro.client import ClientFilter, expand_rin_table
        from repro.cloud import CloudServer
        from repro.graph import compute_statistics
        from repro.kauto import build_k_automorphic_graph
        from repro.matching import find_subgraph_matches, match_key
        from repro.outsource import build_outsourced_graph

        graph, schema = figure1
        lct = build_lct(
            schema, 2, cost_based_grouping, graph_stats=compute_statistics(graph)
        )
        transform = build_k_automorphic_graph(
            lct.apply_to_graph(graph), 2, partitioner=spectral_partition
        )
        outsourced = build_outsourced_graph(transform.gk, transform.avt)
        cloud = CloudServer(outsourced.graph, transform.avt, outsourced.block_vertices)
        answer = cloud.answer(anonymize_query(figure1_query, lct))
        candidates = expand_rin_table(answer.table, transform.avt).table
        exact = ClientFilter(graph, figure1_query).filter_table(candidates).table
        got = {match_key(m) for m in exact.to_matches()}
        oracle = {
            match_key(m) for m in find_subgraph_matches(figure1_query, graph)
        }
        assert got == oracle
