"""Tests for the join-strategy ablation ("rin" vs "full" expansion)."""

import pytest

from repro.cloud import CloudServer, expand_star_table
from repro.matching import find_subgraph_matches, match_key


@pytest.fixture
def servers(figure1_pipeline):
    pipe = figure1_pipeline
    rin_server = CloudServer(
        pipe.outsourced.graph,
        pipe.transform.avt,
        pipe.outsourced.block_vertices,
        join_strategy="rin",
    )
    full_server = CloudServer(
        pipe.outsourced.graph,
        pipe.transform.avt,
        pipe.outsourced.block_vertices,
        join_strategy="full",
    )
    return pipe, rin_server, full_server


class TestFullJoinStrategy:
    def test_full_returns_expanded_candidates(self, servers):
        pipe, rin_server, full_server = servers
        rin_answer = rin_server.answer(pipe.qo)
        full_answer = full_server.answer(pipe.qo)
        assert not rin_answer.expanded
        assert full_answer.expanded

        direct = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert {match_key(m) for m in full_answer.matches} == direct
        # Rin expanded through the AVT gives the same set
        expanded_rin = {
            match_key(m)
            for m in expand_star_table(
                rin_answer.table, pipe.transform.avt
            ).to_matches()
        }
        assert expanded_rin == direct

    def test_full_join_produces_k_times_more_tuples(self, servers):
        pipe, rin_server, full_server = servers
        rin_answer = rin_server.answer(pipe.qo)
        full_answer = full_server.answer(pipe.qo)
        # the whole point of Rin: the cloud materializes a 1/k slice
        assert len(full_answer.matches) == pipe.transform.k * len(rin_answer.matches)

    def test_invalid_strategy_rejected(self, figure1_pipeline):
        pipe = figure1_pipeline
        with pytest.raises(ValueError):
            CloudServer(
                pipe.outsourced.graph,
                pipe.transform.avt,
                pipe.outsourced.block_vertices,
                join_strategy="bogus",
            )
