"""Unit tests for Algorithm 1 (star matching over Go)."""

import pytest

from repro.cloud import CloudIndex, CloudServer, match_star_table
from repro.matching import (
    Star,
    find_subgraph_matches,
    match_key,
    star_as_graph,
    star_of,
)
from repro.obs import NULL_SPAN


def match_star(query, star, index, data):
    return match_star_table(query, star, index, data).to_matches()


@pytest.fixture
def cloud_setup(figure1_pipeline):
    pipe = figure1_pipeline
    index = CloudIndex.build(pipe.outsourced.graph, pipe.outsourced.block_vertices)
    return pipe, index


class TestMatchStar:
    def test_agrees_with_reference_matcher(self, cloud_setup):
        """Algorithm 1 == VF2 restricted to centers in B1."""
        pipe, index = cloud_setup
        block = set(pipe.outsourced.block_vertices)
        for center in pipe.qo.vertex_ids():
            star = star_of(pipe.qo, center)
            got = {match_key(m) for m in match_star(pipe.qo, star, index, pipe.outsourced.graph)}
            reference = {
                match_key(m)
                for m in find_subgraph_matches(
                    star_as_graph(pipe.qo, star),
                    pipe.outsourced.graph,
                    candidate_filter=lambda q, v, c=center: q != c or v in block,
                )
            }
            assert got == reference

    def test_center_always_in_block(self, cloud_setup):
        pipe, index = cloud_setup
        block = set(pipe.outsourced.block_vertices)
        for center in pipe.qo.vertex_ids():
            star = star_of(pipe.qo, center)
            for match in match_star(pipe.qo, star, index, pipe.outsourced.graph):
                assert match[center] in block

    def test_matches_are_injective_and_edge_respecting(self, cloud_setup):
        pipe, index = cloud_setup
        star = star_of(pipe.qo, 1)
        for match in match_star(pipe.qo, star, index, pipe.outsourced.graph):
            assert len(set(match.values())) == len(match)
            for leaf in star.leaves:
                assert pipe.outsourced.graph.has_edge(match[1], match[leaf])

    def test_unmatchable_star_returns_empty(self, cloud_setup):
        pipe, index = cloud_setup
        star = Star(center=0, leaves=(1,))
        from repro.graph import AttributedGraph

        query = AttributedGraph()
        query.add_vertex(0, "no-such-type")
        query.add_vertex(1, "person")
        query.add_edge(0, 1)
        assert match_star(query, star, index, pipe.outsourced.graph) == []

    def test_degree_pruning(self, cloud_setup):
        """A star with more leaves than any data degree matches nothing."""
        pipe, index = cloud_setup
        from repro.graph import AttributedGraph

        max_degree = max(
            pipe.outsourced.graph.degree(v)
            for v in pipe.outsourced.block_vertices
        )
        query = AttributedGraph()
        query.add_vertex(0, "person")
        for leaf in range(1, max_degree + 2):
            query.add_vertex(leaf, "person")
            query.add_edge(0, leaf)
        star = star_of(query, 0)
        assert match_star(query, star, index, pipe.outsourced.graph) == []


class TestMatchAllStars:
    def test_stats_track_sizes(self, cloud_setup):
        pipe, _ = cloud_setup
        stars = [star_of(pipe.qo, 1), star_of(pipe.qo, 4)]
        server = CloudServer(
            pipe.outsourced.graph,
            pipe.transform.avt,
            pipe.outsourced.block_vertices,
        )
        results = server._match_stars(pipe.qo, stars, server.obs, NULL_SPAN)
        assert set(results) == {1, 4}
        answer = server.answer(pipe.qo)
        stats = answer.star_stats
        assert set(stats.result_sizes) == {
            star.center for star in answer.decomposition.stars
        }
        assert stats.total_results == sum(stats.result_sizes.values())
        assert stats.total_results == answer.rs_size
        assert stats.seconds >= 0
