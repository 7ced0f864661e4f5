"""Unit tests for the wire protocol and network accounting."""

import base64
import json
import random
from array import array
from pathlib import Path

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
from repro.core import protocol
from repro.core.protocol import (
    decode_gateway_answer,
    encode_gateway_answer,
)
from repro.exceptions import ProtocolError
from repro.graph import AttributedGraph, example_social_network
from repro.kauto import AlignmentVertexTable, build_k_automorphic_graph
from repro.matching import MatchTable, vec
from repro.outsource import build_outsourced_graph
from repro.workloads import load_dataset
from tests import oracle

ARMS = ("auto", "rows") + (("numpy",) if vec.HAVE_NUMPY else ())

UPLOAD_GOLDEN = Path(__file__).parent / "data" / "upload_golden.json"


def example_upload():
    """``(Go, AVT)`` of the running example at k = 2, seed 0."""
    graph, _ = example_social_network()
    transform = build_k_automorphic_graph(graph, 2, seed=0)
    return build_outsourced_graph(transform.gk, transform.avt).graph, transform.avt


def dataset_upload(name):
    """``(Go, AVT)`` of a few-hundred-vertex dataset analogue at k = 3."""
    transform = build_k_automorphic_graph(
        load_dataset(name, scale=0.15, seed=4).graph, 3, seed=4
    )
    return build_outsourced_graph(transform.gk, transform.avt).graph, transform.avt


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

    def test_frame_is_the_committed_golden_bytes(self):
        """``tests/data/upload_golden.json``: the running example at
        k = 2, seed 0.  The numpy leg and the tuple-row leg of CI both
        compare against this one file, which is how they prove to emit
        the same upload."""
        graph, avt = example_upload()
        assert encode_upload(graph, avt) == UPLOAD_GOLDEN.read_bytes()

    def test_frame_anatomy(self):
        """A profile table of plain strings, three packed integer tables."""
        graph, avt = example_upload()
        frame = json.loads(encode_upload(graph, avt))
        assert sorted(frame) == ["avt", "graph"]
        assert sorted(frame["graph"]) == ["edges", "name", "profiles", "vertices"]
        assert sorted(frame["avt"]) == ["k", "rows"]
        tables = (frame["graph"]["vertices"], frame["graph"]["edges"], frame["avt"]["rows"])
        for table, rows in zip(tables, (graph.vertex_count, graph.edge_count, avt.row_count)):
            assert sorted(table) == ["cols", "n", "w"] and table["n"] == rows
        profiles = {
            (entry["type"], tuple((a, tuple(g)) for a, g in entry["labels"].items()))
            for entry in frame["graph"]["profiles"]
        }
        assert len(profiles) == len(frame["graph"]["profiles"])
        assert profiles == {
            (
                data.vertex_type,
                tuple((a, tuple(sorted(g))) for a, g in sorted(data.labels.items())),
            )
            for data in graph.vertices()
        }

    @pytest.mark.parametrize("dataset", ["UK-2002", "DBpedia"])
    def test_round_trip_and_bytes_on_a_dataset_go(self, dataset):
        """Past the vector threshold: every arm packs the same bytes, the
        bytes ignore the order the graph was built in, and the decoded
        graph is the one that was sent."""
        graph, avt = dataset_upload(dataset)
        assert graph.edge_count > 4 * vec.MIN_VECTOR_ROWS
        payload = encode_upload(graph, avt)
        for arm in ARMS:
            with vec.override(arm):
                assert encode_upload(graph, avt) == payload
                decoded, decoded_avt = decode_upload(payload)
            assert decoded.structure_equal(graph)
            assert decoded.name == graph.name
            assert decoded.edge_count == graph.edge_count
            assert list(decoded.vertex_ids()) == sorted(graph.vertex_ids())
            assert list(decoded_avt.rows()) == list(avt.rows())

        shuffled = AttributedGraph(graph.name)
        rng = random.Random(7)
        vertices = list(graph.vertices())
        rng.shuffle(vertices)
        for data in vertices:
            shuffled.add_vertex(data.vertex_id, data.vertex_type, data.labels)
        edges = [pair[:: rng.choice((1, -1))] for pair in graph.edges()]
        rng.shuffle(edges)
        assert len(shuffled.add_edges(edges)) == graph.edge_count
        assert encode_upload(shuffled, avt) == payload

    def test_profile_mates_share_one_label_map(self):
        graph, avt = dataset_upload("UK-2002")
        decoded, _ = decode_upload(encode_upload(graph, avt))
        maps: dict = {}
        for data in decoded.vertices():
            key = (data.vertex_type, frozenset(data.labels.items()))
            assert maps.setdefault(key, data.labels) is data.labels
        assert len(maps) < decoded.vertex_count

    def test_an_id_past_64_bits_is_a_protocol_error_on_every_arm(self):
        graph = AttributedGraph("wide")
        for vid in range(2 * vec.MIN_VECTOR_ROWS):
            graph.add_vertex(vid, "t")
        graph.add_vertex(1 << 70, "t")
        avt = AlignmentVertexTable([[0, 1]])
        for arm in ARMS:
            with vec.override(arm), pytest.raises(ProtocolError):
                encode_upload(graph, avt)


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


def packed(payload: bytes) -> dict:
    """The ``rows`` object of an answer frame."""
    return json.loads(payload)["rows"]


class TestPackedRows:
    """The packed-column ``rows`` field shared by all three table frames."""

    @pytest.mark.parametrize(
        "cell,width",
        [
            (0, 1),
            (127, 1),
            (128, 2),
            (-128, 1),
            (-129, 2),
            (32_767, 2),
            (32_768, 4),
            (-32_769, 4),
            (2**31 - 1, 4),
            (2**31, 8),
            (-(2**31) - 1, 8),
            (2**63 - 1, 8),
            (-(2**63), 8),
        ],
    )
    @pytest.mark.parametrize("arm", ARMS)
    def test_width_is_the_narrowest_that_holds_every_cell(
        self, arm, cell, width
    ):
        table = MatchTable((0, 1), [(1, 2), (cell, 3)])
        with vec.override(arm):
            payload = encode_answer_table(table, [0, 1], False)
            decoded, _ = decode_answer_table(payload)
        assert packed(payload)["w"] == width
        assert packed(payload)["n"] == 2
        assert decoded == table
        assert payload == oracle.encode_answer(table.to_matches(), [0, 1], False)

    @pytest.mark.parametrize("cell", [2**63, -(2**63) - 1, 10**30])
    @pytest.mark.parametrize("arm", ARMS)
    def test_cell_beyond_int64_is_a_typed_error_at_encode(self, arm, cell):
        table = MatchTable((0,), [(1,), (cell,)])
        with vec.override(arm), pytest.raises(ProtocolError, match="64-bit"):
            encode_answer_table(table, [0], False)

    @pytest.mark.parametrize("arm", ARMS)
    def test_empty_table(self, arm):
        with vec.override(arm):
            payload = encode_answer_table(MatchTable((3, 4)), [3, 4], True)
            decoded, expanded = decode_answer_table(payload)
        assert packed(payload) == {"n": 0, "w": 1, "cols": ""}
        assert decoded.schema == (3, 4) and decoded.rows == [] and expanded

    def test_rows_without_columns_are_refused_both_ways(self):
        with pytest.raises(ProtocolError, match="rows without columns"):
            encode_answer_table(MatchTable((), [(), ()]), [], False)
        with pytest.raises(ProtocolError, match="rows without columns"):
            decode_answer_table(
                b'{"order":[],"rows":{"n":2,"w":1,"cols":""},"expanded":false}'
            )
        decoded, _ = decode_answer_table(
            encode_answer_table(MatchTable(()), [], False)
        )
        assert decoded.schema == () and len(decoded) == 0

    @pytest.mark.parametrize("arm", ARMS)
    def test_order_reorders_the_columns(self, arm):
        table = MatchTable((5, 7, 9), [(i, 100 + i, 1000 + i) for i in range(80)])
        with vec.override(arm):
            payload = encode_answer_table(table, [9, 5, 7], False)
            decoded, _ = decode_answer_table(payload)
        assert decoded.schema == (9, 5, 7)
        assert decoded.rows == [(1000 + i, i, 100 + i) for i in range(80)]
        raw = base64.b64decode(packed(payload)["cols"])
        # column-major, little-endian: column 9 first, then 5, then 7
        assert raw[:4] == (1000).to_bytes(2, "little") + (1001).to_bytes(2, "little")
        assert len(raw) == 80 * 3 * 2

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 300])
    def test_every_input_layout_and_arm_packs_the_same_bytes(self, n_rows):
        rows = [(i, 70_000 - i, -i) for i in range(n_rows)]
        schema = (0, 1, 2)
        layouts = {"rows": lambda: MatchTable(schema, list(rows))}
        if vec.HAVE_NUMPY:
            layouts["ndarray"] = lambda: MatchTable.from_columns(
                schema,
                [vec.np.array(col, dtype=vec.np.int64) for col in zip(*rows)],
                n_rows,
            )
        expected = oracle.encode_answer(
            [dict(zip(schema, row)) for row in rows], [2, 0, 1], False
        )
        for arm in ARMS:
            for name, build in layouts.items():
                with vec.override(arm):
                    payload = encode_answer_table(build(), [2, 0, 1], False)
                    decoded, _ = decode_answer_table(payload)
                assert payload == expected, (arm, name)
                assert decoded.rows == [(c, a, b) for a, b, c in rows], (arm, name)

    def test_large_tables_decode_to_columns_and_small_ones_to_rows(self):
        big = MatchTable((0,), [(i,) for i in range(vec.MIN_VECTOR_ROWS)])
        small = MatchTable((0,), [(i,) for i in range(vec.MIN_VECTOR_ROWS - 1)])
        decoded_big, _ = decode_answer_table(encode_answer_table(big, [0], False))
        decoded_small, _ = decode_answer_table(
            encode_answer_table(small, [0], False)
        )
        assert decoded_big.is_columnar() == vec.HAVE_NUMPY
        assert not decoded_small.is_columnar()
        assert decoded_big == big and decoded_small == small

    def test_big_endian_hosts_byteswap_to_the_same_wire_bytes(self, monkeypatch):
        """Forcing the flag on this host swaps twice: the round trip must
        hold, and the wire bytes are the native cells byte-reversed."""
        table = MatchTable((0, 1), [(1, 300), (-2, 40_000)])
        with vec.override("rows"):
            native = encode_answer_table(table, [0, 1], False)
            monkeypatch.setattr(protocol, "_BYTESWAP", not protocol._BYTESWAP)
            swapped = encode_answer_table(table, [0, 1], False)
            decoded, _ = decode_answer_table(swapped)
        assert decoded == table
        cells = array("i")
        cells.frombytes(base64.b64decode(packed(native)["cols"]))
        cells.byteswap()
        assert base64.b64decode(packed(swapped)["cols"]) == cells.tobytes()

    def test_both_answer_frames_carry_the_same_rows_object(self):
        table = MatchTable((0, 1), [(i, 500 + i) for i in range(70)])
        matches = table.to_matches()
        rows = oracle.pack_matches(matches, [0, 1])
        assert packed(encode_answer_table(table, [0, 1], True)) == rows
        gateway = json.loads(encode_gateway_answer("r", [(table, [0, 1], True)]))
        assert gateway["answers"] == [
            json.loads(oracle.encode_answer(matches, [0, 1], True))
        ]
        _, answers, _ = decode_gateway_answer(
            encode_gateway_answer("r", [(table, [0, 1], True)])
        )
        assert answers == [(table, True)]
