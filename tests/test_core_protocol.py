"""Unit tests for the wire protocol and network accounting."""

import pytest

from repro.core import (
    NetworkChannel,
    decode_answer_table,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_query,
    encode_upload,
)
from repro.exceptions import ProtocolError
from repro.graph import AttributedGraph
from repro.matching import MatchTable


class TestChannel:
    def test_transmission_time_model(self):
        channel = NetworkChannel(bandwidth_bytes_per_sec=1000, latency_seconds=0.5)
        seconds = channel.transmit("query", b"x" * 500)
        assert seconds == pytest.approx(0.5 + 0.5)

    def test_totals_by_direction(self):
        channel = NetworkChannel()
        channel.transmit("query", b"abc")
        channel.transmit("answer", b"defgh")
        assert channel.total_bytes("query") == 3
        assert channel.total_bytes("answer") == 5
        assert channel.total_bytes() == 8
        assert channel.total_seconds() > 0

    def test_reset(self):
        channel = NetworkChannel()
        channel.transmit("query", b"abc")
        channel.reset()
        assert channel.total_bytes() == 0


class TestUploadMessage:
    def test_round_trip(self, figure1_pipeline):
        pipe = figure1_pipeline
        payload = encode_upload(pipe.outsourced.graph, pipe.transform.avt)
        graph, avt = decode_upload(payload)
        assert graph.structure_equal(pipe.outsourced.graph)
        assert list(avt.rows()) == list(pipe.transform.avt.rows())

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_upload(b'{"nope": 1}')


class TestQueryMessage:
    def test_round_trip(self, figure1_pipeline):
        payload = encode_query(figure1_pipeline.qo)
        assert decode_query(payload).structure_equal(figure1_pipeline.qo)

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_query(b"not json")


def unicode_query() -> AttributedGraph:
    """A query whose labels exercise non-ASCII JSON round-tripping."""
    query = AttributedGraph()
    query.add_vertex(0, "person", labels={"name": ["Ωμέγα", "naïve"]})
    query.add_vertex(1, "café", labels={"città": ["東京", "emoji ✓"]})
    query.add_edge(0, 1)
    return query


class TestQueryMessageEdgeCases:
    def test_empty_query_round_trip(self):
        empty = AttributedGraph()
        decoded = decode_query(encode_query(empty))
        assert decoded.vertex_count == 0
        assert decoded.edge_count == 0

    def test_unicode_labels_round_trip(self):
        query = unicode_query()
        decoded = decode_query(encode_query(query))
        assert decoded.structure_equal(query)
        assert decoded.vertex(0).labels == query.vertex(0).labels
        assert decoded.vertex(1).labels == query.vertex(1).labels
        assert decoded.vertex(1).vertex_type == "café"


class TestAnswerMessage:
    def test_round_trip(self):
        table = MatchTable((0, 1), [(5, 7), (6, 8)])
        payload = encode_answer_table(table, [0, 1], expanded=False)
        decoded, expanded = decode_answer_table(payload)
        assert decoded == table
        assert expanded is False

    def test_expanded_flag_survives(self):
        payload = encode_answer_table(MatchTable((0,)), [0], expanded=True)
        _, expanded = decode_answer_table(payload)
        assert expanded is True

    def test_answer_size_grows_with_matches(self):
        small = encode_answer_table(MatchTable((0,), [(1,)]), [0], expanded=False)
        big = encode_answer_table(
            MatchTable((0,), [(i,) for i in range(100)]), [0], expanded=False
        )
        assert len(big) > len(small)

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_answer_table(b'{"rows": "oops"}')
