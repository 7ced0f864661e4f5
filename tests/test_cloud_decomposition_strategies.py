"""Tests for the greedy decomposition strategy and its server plumbing."""

import pytest

from repro.anonymize import estimator_from_outsourced
from repro.cloud import (
    CloudServer,
    decompose_query,
    expand_star_table,
    greedy_weighted_vertex_cover,
    is_vertex_cover,
)
from repro.exceptions import QueryError
from repro.matching import find_subgraph_matches, match_key


class TestGreedyCover:
    def test_always_a_cover(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        weights = {v: float(v + 1) for v in range(4)}
        cover = greedy_weighted_vertex_cover(edges, weights)
        assert is_vertex_cover(edges, cover)

    def test_prefers_cheap_high_coverage(self):
        # star centered at 0 with cheap center
        edges = [(0, i) for i in range(1, 5)]
        cover = greedy_weighted_vertex_cover(edges, {0: 1.0, 1: 5.0, 2: 5.0, 3: 5.0, 4: 5.0})
        assert cover == {0}

    def test_no_edges(self):
        assert greedy_weighted_vertex_cover([], {}) == set()


class TestStrategyPlumbing:
    @pytest.fixture
    def setup(self, figure1_pipeline):
        pipe = figure1_pipeline
        estimator = estimator_from_outsourced(
            pipe.outsourced.block_vertices, pipe.outsourced.graph, pipe.transform.k
        )
        return pipe, estimator

    def test_greedy_decomposition_covers(self, setup):
        pipe, estimator = setup
        decomposition = decompose_query(pipe.qo, estimator, strategy="greedy")
        assert decomposition.covers(pipe.qo)

    def test_greedy_cost_at_least_optimal(self, setup):
        pipe, estimator = setup
        optimal = decompose_query(pipe.qo, estimator, strategy="optimal")
        greedy = decompose_query(pipe.qo, estimator, strategy="greedy")
        assert greedy.total_estimated_cost() >= optimal.total_estimated_cost() - 1e-9

    def test_unknown_strategy_rejected(self, setup):
        pipe, estimator = setup
        with pytest.raises(QueryError):
            decompose_query(pipe.qo, estimator, strategy="magic")

    def test_server_with_greedy_strategy_is_exact(self, figure1_pipeline):
        pipe = figure1_pipeline
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
            decomposition_strategy="greedy",
        )
        answer = server.answer(pipe.qo)
        expanded = {
            match_key(m)
            for m in expand_star_table(
                answer.table, pipe.transform.avt
            ).to_matches()
        }
        direct = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert expanded == direct

    def test_server_rejects_unknown_strategy(self, figure1_pipeline):
        pipe = figure1_pipeline
        with pytest.raises(ValueError):
            CloudServer(
                pipe.outsourced.graph,
                pipe.transform.avt,
                pipe.outsourced.block_vertices,
                decomposition_strategy="magic",
            )
