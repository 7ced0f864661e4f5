"""The BAS star pipeline against direct (VF2) matching over ``Gk``."""

import pytest

from repro.cloud import CloudServer
from repro.core.protocol import decode_answer_table, encode_answer_table
from repro.core.query_client import QueryClient
from repro.matching import find_subgraph_matches, match_key


@pytest.fixture
def bas_server(figure1_pipeline):
    pipe = figure1_pipeline
    centers = sorted(pipe.transform.gk.vertex_ids())
    stars = CloudServer(
        pipe.transform.gk, pipe.transform.avt, centers, expand_in_cloud=False
    )
    return pipe, stars


class TestDirectEngine:
    def test_identical_answers(self, bas_server):
        pipe, stars = bas_server
        answer = stars.answer(pipe.qo)
        oracle = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        assert {match_key(m) for m in answer.matches} == oracle

    def test_answer_marked_expanded(self, bas_server):
        """A full-``Gk`` deployment's answer is ``R(Qo, Gk)`` already."""
        pipe, stars = bas_server
        assert stars.answer(pipe.qo).expanded

    def test_client_filter_recovers_exact_results(self, bas_server):
        from repro.client import ClientFilter

        pipe, stars = bas_server
        answer = stars.answer(pipe.qo)
        exact = ClientFilter(pipe.graph, pipe.query).filter_table(answer.table)
        assert {match_key(m) for m in exact.table.to_matches()} == pipe.oracle

    def test_wire_round_trip_matches_stars_engine(self, bas_server):
        """The star pipeline's BAS answer survives the one answer codec
        and the client's Algorithm 3 with the exact matches."""
        pipe, stars = bas_server
        client = QueryClient(pipe.graph, pipe.lct, pipe.transform.avt)
        order = sorted(pipe.qo.vertex_ids())
        answer = stars.answer(pipe.qo)
        table, expanded = decode_answer_table(
            encode_answer_table(answer.table, order, answer.expanded)
        )
        outcome = client.process_answer(pipe.query, table, expanded)
        assert {match_key(m) for m in outcome.matches} == pipe.oracle
