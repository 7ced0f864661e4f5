"""Unit tests for Algorithm 2 (result join producing Rin)."""

import pytest

from repro.cloud import (
    CloudIndex,
    decompose_query,
    expand_star_table,
    join_star_tables,
    match_star_table,
)
from repro.anonymize import estimator_from_outsourced
from repro.exceptions import QueryError
from repro.matching import MatchTable, find_subgraph_matches, match_key, star_of


def join_star_matches(stars, star_matches, avt, **kwargs):
    """``join_star_tables`` driven with hand-written dict matches."""
    tables = {
        star.center: MatchTable.from_matches(
            star_matches[star.center], star.vertex_order
        )
        for star in stars
    }
    rin, stats = join_star_tables(stars, tables, avt, **kwargs)
    return rin.to_matches(), stats


@pytest.fixture
def joined(figure1_pipeline):
    pipe = figure1_pipeline
    index = CloudIndex.build(pipe.outsourced.graph, pipe.outsourced.block_vertices)
    estimator = estimator_from_outsourced(
        pipe.outsourced.block_vertices, pipe.outsourced.graph, pipe.transform.k
    )
    decomposition = decompose_query(pipe.qo, estimator)
    star_tables = {
        star.center: match_star_table(pipe.qo, star, index, pipe.outsourced.graph)
        for star in decomposition.stars
    }
    rin, stats = join_star_tables(
        decomposition.stars, star_tables, pipe.transform.avt
    )
    return pipe, decomposition, rin.to_matches(), stats


class TestExpandStarMatches:
    def test_expansion_matches_definition(self, figure1_pipeline):
        pipe = figure1_pipeline
        avt = pipe.transform.avt
        table = MatchTable((0,), [(avt.first_block()[0],)])
        expanded = expand_star_table(table, avt)
        assert len(expanded) == avt.k
        assert {row[0] for row in expanded.rows} == set(
            avt.symmetric_group(avt.first_block()[0])
        )


class TestJoinProducesRin:
    def test_rin_expands_to_full_candidate_set(self, joined):
        """Rin ∪ F_m(Rin) must equal R(Qo, Gk) computed directly."""
        pipe, _, rin, _ = joined
        avt = pipe.transform.avt
        expanded = {
            match_key(avt.apply_to_match(m, shift))
            for shift in range(avt.k)
            for m in rin
        }
        direct = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert expanded == direct

    def test_rin_is_anchored_in_block1(self, joined):
        pipe, _, rin, stats = joined
        anchor = stats.anchor_center
        block = set(pipe.transform.avt.first_block())
        assert anchor is not None
        for match in rin:
            assert match[anchor] in block

    def test_rin_matches_are_complete_assignments(self, joined):
        pipe, _, rin, _ = joined
        query_vertices = set(pipe.qo.vertex_ids())
        for match in rin:
            assert set(match) == query_vertices
            assert len(set(match.values())) == len(match)

    def test_stats_recorded(self, joined):
        _, decomposition, rin, stats = joined
        assert stats.rin_size == len(rin)
        assert len(stats.intermediate_sizes) == len(decomposition.stars)


class TestJoinOrdering:
    def test_anchor_is_smallest_result_set(self, figure1_pipeline):
        """Algorithm 2 line 1: the anchor star has minimum |R(S)|."""
        from repro.matching import Star

        avt = figure1_pipeline.transform.avt
        stars = [Star(center=0, leaves=(1,)), Star(center=2, leaves=(1,))]
        star_matches = {
            0: [{0: 10, 1: 11}, {0: 12, 1: 13}, {0: 14, 1: 15}],
            2: [{2: 20, 1: 11}],
        }
        _, stats = join_star_matches(stars, star_matches, avt, expand=False)
        assert stats.anchor_center == 2

    def test_overlapping_star_preferred(self, figure1_pipeline):
        """Algorithm 2 line 4: the next star overlaps the covered part."""
        from repro.matching import Star

        avt = figure1_pipeline.transform.avt
        # chain 0-1-2-3: stars at 0, 2 cover it; star at 0 = {0,1},
        # star at 2 = {1,2,3}.  A third star at 3 = {2,3} does not
        # overlap star 0 but is smaller than star 2.
        stars = [
            Star(center=0, leaves=(1,)),
            Star(center=2, leaves=(1, 3)),
            Star(center=3, leaves=(2,)),
        ]
        star_matches = {
            0: [{0: 100, 1: 101}, {0: 110, 1: 111}],
            2: [{2: 102, 1: 101, 3: 103}, {2: 104, 1: 105, 3: 106}],
            3: [{3: 103, 2: 102}],
        }
        rin, stats = join_star_matches(stars, star_matches, avt, expand=False)
        # anchor: star 3 has the global minimum |R| = 1
        assert stats.anchor_center == 3
        # then star 2 (overlapping via {2,3}) joins before star 0,
        # which does not overlap {2,3} yet despite equal size
        assert rin == [{0: 100, 1: 101, 2: 102, 3: 103}]


class TestJoinEdgeCases:
    def test_empty_decomposition_rejected(self, figure1_pipeline):
        with pytest.raises(QueryError):
            join_star_matches([], {}, figure1_pipeline.transform.avt)

    def test_single_star_passthrough(self, figure1_pipeline):
        pipe = figure1_pipeline
        star = star_of(pipe.qo, 1)
        matches = [{1: 0, 0: 4, 2: 6}]
        rin, stats = join_star_matches([star], {1: matches}, pipe.transform.avt)
        assert rin == matches
        assert stats.anchor_center == 1

    def test_join_eliminates_duplicate_data_vertices(self, figure1_pipeline):
        """Two stars whose non-shared vertices collide must be dropped."""
        pipe = figure1_pipeline
        from repro.matching import Star

        left = Star(center=0, leaves=(1,))
        right = Star(center=2, leaves=(1,))
        star_matches = {
            0: [{0: 10, 1: 11}],
            2: [{2: 10, 1: 11}],  # 2 maps to 10 = duplicate of 0's image
        }
        # use a trivial AVT containing the ids so expansion is harmless
        from repro.kauto import AlignmentVertexTable

        avt = AlignmentVertexTable([[10, 20], [11, 21], [12, 22]])
        rin, _ = join_star_matches([left, right], star_matches, avt, expand=False)
        assert rin == []

    def test_empty_star_result_short_circuits(self, figure1_pipeline):
        pipe = figure1_pipeline
        from repro.matching import Star

        stars = [Star(center=0, leaves=(1,)), Star(center=1, leaves=(0,))]
        star_matches = {0: [], 1: [{1: 5, 0: 6}]}
        rin, stats = join_star_matches(
            stars, star_matches, figure1_pipeline.transform.avt, expand=False
        )
        assert rin == []
