"""Tests for the direct (non-star) cloud engine on BAS deployments."""

import pytest

from repro.cloud import CloudServer
from repro.core.protocol import decode_answer_table, encode_answer_table
from repro.core.query_client import QueryClient
from repro.matching import MatchTable, find_subgraph_matches, match_key


@pytest.fixture
def bas_servers(figure1_pipeline):
    pipe = figure1_pipeline
    centers = sorted(pipe.transform.gk.vertex_ids())
    stars = CloudServer(
        pipe.transform.gk, pipe.transform.avt, centers, expand_in_cloud=False
    )
    direct = CloudServer(
        pipe.transform.gk,
        pipe.transform.avt,
        centers,
        expand_in_cloud=False,
        engine="direct",
    )
    return pipe, stars, direct


class TestDirectEngine:
    def test_identical_answers(self, bas_servers):
        pipe, stars, direct = bas_servers
        a = {match_key(m) for m in stars.answer(pipe.qo).matches}
        b = {match_key(m) for m in direct.answer(pipe.qo).matches}
        oracle = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert a == b == oracle

    def test_answer_marked_expanded(self, bas_servers):
        pipe, _, direct = bas_servers
        answer = direct.answer(pipe.qo)
        assert answer.expanded
        assert answer.decomposition.stars == []

    def test_matcher_reused_between_queries(self, bas_servers):
        pipe, _, direct = bas_servers
        direct.answer(pipe.qo)
        first = direct._direct_matcher
        direct.answer(pipe.qo)
        assert direct._direct_matcher is first

    def test_direct_engine_rejected_for_go_deployments(self, figure1_pipeline):
        pipe = figure1_pipeline
        with pytest.raises(ValueError):
            CloudServer(
                pipe.outsourced.graph,
                pipe.transform.avt,
                pipe.outsourced.block_vertices,
                expand_in_cloud=True,
                engine="direct",
            )

    def test_unknown_engine_rejected(self, figure1_pipeline):
        pipe = figure1_pipeline
        with pytest.raises(ValueError):
            CloudServer(
                pipe.transform.gk,
                pipe.transform.avt,
                sorted(pipe.transform.gk.vertex_ids()),
                expand_in_cloud=False,
                engine="quantum",
            )

    def test_client_filter_recovers_exact_results(self, bas_servers):
        from repro.client import ClientFilter

        pipe, _, direct = bas_servers
        answer = direct.answer(pipe.qo)
        exact = ClientFilter(pipe.graph, pipe.query).filter_table(answer.table)
        assert {match_key(m) for m in exact.table.to_matches()} == pipe.oracle

    def test_answer_table_schema_is_sorted_query_vertices(self, bas_servers):
        pipe, _, direct = bas_servers
        answer = direct.answer(pipe.qo)
        assert isinstance(answer.table, MatchTable)
        assert answer.table.schema == tuple(sorted(pipe.qo.vertex_ids()))
        assert answer.matches == answer.table.to_matches()

    def test_wire_round_trip_matches_stars_engine(self, bas_servers):
        """Both engines' answers survive the one answer codec and the
        client's Algorithm 3 with the same exact matches."""
        pipe, stars, direct = bas_servers
        client = QueryClient(pipe.graph, pipe.lct, pipe.transform.avt)
        order = sorted(pipe.qo.vertex_ids())

        def through_the_wire(server):
            answer = server.answer(pipe.qo)
            table, expanded = decode_answer_table(
                encode_answer_table(answer.table, order, answer.expanded)
            )
            outcome = client.process_answer(pipe.query, table, expanded)
            return {match_key(m) for m in outcome.matches}

        assert through_the_wire(direct) == through_the_wire(stars) == pipe.oracle
