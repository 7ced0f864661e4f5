"""The protocol decoders' unified exception envelope.

Every ``decode_*`` function promises exactly one failure mode for a
malformed payload: :class:`~repro.exceptions.ProtocolError`.  Before
the envelope was unified, wrong-typed fields escaped as ``TypeError``
or ``AttributeError`` and invalid graph sections as ``GraphError`` —
callers that caught ``ProtocolError`` (the serve loop, the batch CLI)
crashed on exactly the payloads the envelope exists for.  This suite
drives every decoder through every corruption family (truncation,
invalid UTF-8, non-object JSON, missing fields, wrong-typed fields)
plus a hypothesis fuzz of arbitrary byte strings, asserting the
decoder either succeeds or raises ``ProtocolError`` — never a raw
``KeyError``/``TypeError``/``AttributeError``/``ValueError``.

The three table frames (answer, gateway answer, upload) are a JSON
header plus a binary tail; their corruptions are made on the parts
:func:`tests.oracle.split_frame` cuts them into, so the header stays a
well-formed prefix unless a case says otherwise.
"""

from __future__ import annotations

import base64
import json
import struct
from itertools import chain
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    TraceContext,
    decode_answer_table,
    decode_gateway_answer,
    decode_gateway_hello,
    decode_gateway_reject,
    decode_gateway_request,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_gateway_answer,
    encode_gateway_hello,
    encode_gateway_reject,
    encode_gateway_request,
    encode_query,
    encode_upload,
)
from repro.exceptions import ProtocolError, ReproError
from repro.graph import example_social_network, graph_to_dict
from repro.kauto import build_k_automorphic_graph
from repro.matching import MatchTable
from repro.outsource import build_outsourced_graph
from tests import oracle


@pytest.fixture(scope="module")
def wire():
    """One valid payload per message type, from a real deployment."""
    graph, _ = example_social_network()
    transform = build_k_automorphic_graph(graph, 2, seed=0)
    outsourced = build_outsourced_graph(transform.gk, transform.avt)
    table = MatchTable((0, 1), [(3, 4), (5, 6)])
    return {
        "upload": encode_upload(outsourced.graph, transform.avt),
        "query": encode_query(graph),
        "answer": encode_answer_table(
            MatchTable((0, 1), [(3, 4)]), [0, 1], expanded=True
        ),
        "answer_table": encode_answer_table(table, [0, 1], expanded=False),
        "gateway_hello": encode_gateway_hello("alice", "secret"),
        "gateway_request": encode_gateway_request("alice-1", [graph]),
        "gateway_answer": encode_gateway_answer(
            "alice-1", [(table, [0, 1], False)]
        ),
        "gateway_reject": encode_gateway_reject(
            "alice-1", "overloaded", "shedding"
        ),
    }


DECODERS = {
    "upload": decode_upload,
    "query": decode_query,
    "answer_table": decode_answer_table,
    "gateway_hello": decode_gateway_hello,
    "gateway_request": decode_gateway_request,
    "gateway_answer": decode_gateway_answer,
    "gateway_reject": decode_gateway_reject,
}

#: Payload kinds under test: one per codec, plus ``answer`` — the
#: system's (expanded) answer leg, which the table codec frames too:
#: there is one answer codec per frame kind.
KINDS = {**DECODERS, "answer": decode_answer_table}

#: The kinds that travel as a table frame (JSON header + binary tail).
TABLE_FRAMES = {"upload", "answer", "answer_table", "gateway_answer"}


class Table(NamedTuple):
    """One table of a table frame: its header entry and its tail cells."""

    entry: object
    cells: bytes


def split(kind: str, payload: bytes) -> tuple[dict, bytes | None]:
    """``(document, tail)``; the tail is ``None`` for a plain JSON kind."""
    if kind in TABLE_FRAMES:
        return oracle.split_frame(payload)
    return json.loads(payload.decode("utf-8")), None


def join(doc: object, tail: bytes | None) -> bytes:
    """Inverse of :func:`split`."""
    if tail is None:
        return json.dumps(doc).encode("utf-8")
    return oracle.join_frame(doc, tail)


def table_paths(kind: str, doc: dict) -> list[tuple[tuple, int]]:
    """A table frame's ``(path to the entry, column count)``, tail order."""
    if kind == "upload":
        columns = (2, 2, doc["avt"]["k"])
        paths = (("graph", "vertices"), ("graph", "edges"), ("avt", "rows"))
        return list(zip(paths, columns))
    if kind == "gateway_answer":
        return [
            (("answers", i, "rows"), len(entry["order"]))
            for i, entry in enumerate(doc["answers"])
        ]
    return [(("rows",), len(doc["order"]))]


def at(doc: dict, path: tuple) -> object:
    for key in path:
        doc = doc[key]
    return doc


def tables(kind: str, payload: bytes) -> tuple[dict, dict[tuple, Table]]:
    """A valid table frame's header and its tables by entry path."""
    doc, tail = split(kind, payload)
    found, start = {}, 0
    for path, columns in table_paths(kind, doc):
        entry = at(doc, path)
        size = entry["n"] * columns * entry["w"]
        found[path] = Table(entry, tail[start : start + size])
        start += size
    assert start == len(tail)
    return doc, found


def with_table(kind: str, payload: bytes, path: tuple, table: Table) -> bytes:
    """``payload`` with the table whose entry sits at ``path`` replaced:
    its entry in the header and its cells in the tail."""
    doc, found = tables(kind, payload)
    found[path] = table
    at(doc, path[:-1])[path[-1]] = table.entry
    return join(doc, b"".join(t.cells for t in found.values()))


def _answer_entry(rows: list) -> list[dict]:
    """A one-entry gateway ``answers`` list carrying ``rows``."""
    return [{"order": [0, 1], "rows": rows, "expanded": True}]


#: Pre-packing (list-of-rows) ``rows`` values with non-integer cells:
#: each must be a ProtocolError at decode time like every other row
#: list, never a vertex id in the client filter.
BAD_CELLS = {
    "nested-list-cell": [[[1], [2]]],
    "bool-cell": [[True, 2]],
    "float-cell": [[1.5, 2]],
    "string-cell": [["a", 2]],
}


def packed(*columns: list[int]) -> Table:
    """A table of one-byte cells, by hand (not by the codec)."""
    raw = bytes(cell & 0xFF for cell in chain(*columns))
    return Table({"n": len(columns[0]), "w": 1}, raw)


#: Field corruptions per message type: (id, path, replacement) triples.
#: The path indexes into the decoded JSON object (a table frame's
#: header); the replacement is a wrong-typed value — or a whole
#: :class:`Table`, entry and cells — the decoder must reject as
#: ProtocolError.  The
#: test id is ``<kind>-<id>``, spelled out because pytest's default
#: (the case's position in the flattened list) would rename every
#: later case whenever one is added or dropped; the ``pathN`` ids are
#: those historical positions.
WRONG_TYPED: dict[str, list[tuple[str, tuple, object]]] = {
    "upload": [
        ("path41-7", ("graph",), 7),
        ("path42-nope", ("avt",), "nope"),
        ("path43-1", ("graph", "vertices"), 1),
        # a bad AVT used to escape as a raw VerificationError; the valid
        # rows are (4, 5), (0, 2), (1, 3), (6, 7)
        ("avt-duplicate-vertex", ("avt", "rows"), packed([4, 0, 1, 6], [5, 2, 3, 4])),
        ("avt-ragged-row", ("avt", "rows"), Table({"n": 4, "w": 1}, b"\4\0\1\6\5\2\3")),
        ("avt-k-not-the-row-width", ("avt", "k"), 3),
        ("avt-empty", ("avt", "rows"), Table({"n": 0, "w": 1}, b"")),
        ("avt-k-zero", ("avt", "k"), 0),
        ("avt-k-negative", ("avt", "k"), -2),
        ("avt-k-true", ("avt", "k"), True),
        ("avt-k-float", ("avt", "k"), 2.0),
        ("avt-k-string", ("avt", "k"), "2"),
        ("avt-k-astronomic", ("avt", "k"), 10**12),
        # vertex payloads: a type is a string, label groups are lists
        # of strings (a bare string would be frozen letter by letter)
        ("profile-type-int", ("graph", "profiles", 0, "type"), 5),
        ("profile-type-null", ("graph", "profiles", 0, "type"), None),
        ("profile-labels-list", ("graph", "profiles", 0, "labels"), ["male"]),
        ("profile-labels-null", ("graph", "profiles", 0, "labels"), None),
        ("profile-groups-bare-string", ("graph", "profiles", 0, "labels"), {"gender": "male"}),
        ("profile-groups-of-ints", ("graph", "profiles", 0, "labels"), {"gender": [1]}),
        ("profile-groups-nested", ("graph", "profiles", 0, "labels"), {"gender": [["male"]]}),
        ("profile-not-an-object", ("graph", "profiles", 0), "person"),
        ("profiles-int", ("graph", "profiles"), 5),
        ("profiles-object", ("graph", "profiles"), {"type": "person", "labels": {}}),
        ("graph-name-int", ("graph", "name"), 5),
    ],
    "query": [
        ("path27-x", ("vertices",), "x"),
        ("path28-value28", ("edges",), {"a": 1}),
    ],
    "answer": [
        ("path0-5", ("rows",), 5),
        ("path1-None", ("order",), None),
        ("path2-value2", ("rows",), [1]),
    ],
    "answer_table": [
        ("path5-5", ("rows",), 5),
        ("path6-value6", ("rows",), [[1]]),
        ("path7-3", ("order",), 3),
        *((name, ("rows",), rows) for name, rows in BAD_CELLS.items()),
    ],
    "gateway_hello": [
        ("path14-5", ("client_id",), 5),
        ("path15-", ("client_id",), ""),
        ("path16-7", ("token",), 7),
    ],
    "gateway_request": [
        ("path21-5", ("id",), 5),
        ("path22-5", ("queries",), 5),
        ("path23-value23", ("queries",), []),
        ("path24-value24", ("queries",), [7]),
        # a corrupted embedded trace context fails the whole frame —
        # it must never silently degrade to an untraced request.
        ("path25-value25", ("ctx",), []),
        ("path26-value26", ("ctx",), {"q": "x", "p": -1}),
    ],
    "gateway_answer": [
        ("path8-5", ("id",), 5),
        ("path9-5", ("answers",), 5),
        ("path10-value10", ("answers",), [None]),
        ("path11-value11", ("answers",), _answer_entry([[1]])),
        ("path12-5", ("trace",), 5),
        ("path13-value13", ("trace",), {"spans": [7]}),
        *(
            (name, ("answers",), _answer_entry(rows))
            for name, rows in BAD_CELLS.items()
        ),
    ],
    "gateway_reject": [
        ("path17-9", ("id",), 9),
        ("path18-5", ("code",), 5),
        ("path19-", ("code",), ""),
        ("path20-None", ("message",), None),
    ],
}

#: Where each table sits: ``site -> (kind, path to the object holding
#: its entry, its key there, the key of its schema beside it)``.  An
#: upload's three tables have no schema field: their columns are
#: numbered, two of them in this fixture (id/profile, low/high, k = 2).
TABLE_SITES: dict[str, tuple[str, tuple, str, str | None]] = {
    "answer_table": ("answer_table", (), "rows", "order"),
    "gateway_answer": ("gateway_answer", ("answers", 0), "rows", "order"),
    "upload-graph.vertices": ("upload", ("graph",), "vertices", None),
    "upload-graph.edges": ("upload", ("graph",), "edges", None),
    "upload-avt.rows": ("upload", ("avt",), "rows", None),
}
SCHEMA_SITES = sorted(site for site, entry in TABLE_SITES.items() if entry[3])
UPLOAD_SITES = sorted(site for site, entry in TABLE_SITES.items() if not entry[3])

#: The valid answer table ``{"n": 2, "w": 1}`` + these cells: two
#: columns, four one-byte cells.
VALID_CELLS = b"\3\5\4\6"
VALID_ENTRY = {"n": 2, "w": 1}

#: Hostile tables against the valid one: every one must be a
#: ProtocolError before any per-row storage is allocated.  The cases
#: named after base64 are what a peer of the base64-in-JSON layout
#: sends: an entry that still carries its ``cols`` string (malformed
#: or not) is refused whatever the tail holds; the ``cells-*`` and
#: ``tail-*`` cases are their binary counterparts.
HOSTILE_ROWS: dict[str, Table] = {
    "old-format-list": Table([[3, 4], [5, 6]], VALID_CELLS),
    "old-format-empty-list": Table([], VALID_CELLS),
    "null": Table(None, VALID_CELLS),
    "string": Table("AwUEBg==", VALID_CELLS),
    "missing-n": Table({"w": 1}, VALID_CELLS),
    "missing-w": Table({"n": 2}, VALID_CELLS),
    "missing-cols": Table(VALID_ENTRY, b""),
    "non-alphabet-base64": Table({**VALID_ENTRY, "cols": "Aw*EBg=="}, VALID_CELLS),
    "whitespace-in-base64": Table({**VALID_ENTRY, "cols": "AwUE Bg=="}, VALID_CELLS),
    "unpadded-base64": Table({**VALID_ENTRY, "cols": "AwUEBg"}, VALID_CELLS),
    "overpadded-base64": Table({**VALID_ENTRY, "cols": "AwUEBg==="}, VALID_CELLS),
    "cols-not-a-string": Table({**VALID_ENTRY, "cols": [3, 5, 4, 6]}, VALID_CELLS),
    "cells-in-the-header": Table({**VALID_ENTRY, "cells": [3, 5, 4, 6]}, b""),
    "cells-offset-field": Table({**VALID_ENTRY, "offset": 0}, VALID_CELLS),
    "tail-short-by-a-row": Table(VALID_ENTRY, VALID_CELLS[:2]),
    "tail-long-by-a-row": Table(VALID_ENTRY, VALID_CELLS + b"\7\7"),
    "tail-in-two-byte-cells": Table(VALID_ENTRY, struct.pack("<4h", 3, 5, 4, 6)),
    "one-byte-short": Table(VALID_ENTRY, VALID_CELLS[:-1]),
    "one-byte-long": Table(VALID_ENTRY, VALID_CELLS + b"\7"),
    "w-0": Table({"n": 2, "w": 0}, VALID_CELLS),
    "w-3": Table({"n": 2, "w": 3}, VALID_CELLS),
    "w-16": Table({"n": 2, "w": 16}, VALID_CELLS),
    "w-true": Table({"n": 2, "w": True}, VALID_CELLS),
    "w-string": Table({"n": 1, "w": "2"}, VALID_CELLS),
    "w-float": Table({"n": 1, "w": 2.0}, VALID_CELLS),
    "n-negative": Table({"n": -2, "w": 1}, VALID_CELLS),
    "n-true": Table({"n": True, "w": 2}, VALID_CELLS),
    "n-float": Table({"n": 2.0, "w": 1}, VALID_CELLS),
    "n-string": Table({"n": "2", "w": 1}, VALID_CELLS),
    "n-lies-high": Table({"n": 10**12, "w": 1}, VALID_CELLS),
    "n-lies-low": Table({"n": 1, "w": 1}, VALID_CELLS),
    "width-lies": Table({"n": 2, "w": 2}, VALID_CELLS),
    "kilobyte-for-two-rows": Table(VALID_ENTRY, b"A" * 1024),
}

#: Hostile schemas (the ``order`` / ``schema`` field beside ``rows``).
HOSTILE_SCHEMAS: dict[str, object] = {
    "strings": ["a", "b"],
    "float-and-bool": [1.5, True],
    "bools": [False, True],
    "duplicate": [0, 0],
    "nested": [[0], [1]],
    "dict": {"0": 0, "1": 1},
    "string": "01",
    "null": None,
}

#: Exceptions that must never escape a decoder (the raw errors the
#: envelope wraps).  ProtocolError is a ReproError, so the assertion
#: below checks the *concrete* type, not just inheritance.
RAW_ERRORS = (KeyError, ValueError, TypeError, AttributeError, IndexError)


def corrupt(kind: str, payload: bytes, path: tuple, value: object) -> bytes:
    """``payload`` with the field at ``path`` replaced; a :class:`Table`
    value replaces a table frame's entry and its cells."""
    if isinstance(value, Table):
        return with_table(kind, payload, path, value)
    data, tail = split(kind, payload)
    at(data, path[:-1])[path[-1]] = value
    return join(data, tail)


def drop_field(kind: str, payload: bytes, field: str) -> bytes:
    data, tail = split(kind, payload)
    data.pop(field, None)
    return join(data, tail)


def assert_protocol_error(decoder, payload: bytes) -> None:
    """The decoder raises ProtocolError — and nothing rawer."""
    try:
        decoder(payload)
    except ProtocolError as exc:
        assert "malformed" in str(exc)
        assert exc.__cause__ is not None
    except RAW_ERRORS as exc:  # pragma: no cover - the failure this pins
        pytest.fail(
            f"{decoder.__name__} leaked {type(exc).__name__}: {exc!r}"
        )
    else:
        pytest.fail(f"{decoder.__name__} accepted a corrupted payload")


class TestCorruptionFamilies:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_truncated_payload(self, wire, kind):
        payload = wire[kind]
        assert_protocol_error(KINDS[kind], payload[: len(payload) // 2])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_invalid_utf8(self, wire, kind):
        assert_protocol_error(KINDS[kind], b"\xff\xfe\x00garbage")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "payload", [b"[]", b'"text"', b"42", b"null", b"true"]
    )
    def test_non_object_json(self, wire, kind, payload):
        assert_protocol_error(KINDS[kind], payload)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_empty_object(self, wire, kind):
        assert_protocol_error(KINDS[kind], b"{}")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_missing_fields(self, wire, kind):
        # dropping an *optional* field may legally still decode; what
        # must never happen is a raw KeyError escaping the envelope.
        data, _ = split(kind, wire[kind])
        for field in data:
            payload = drop_field(kind, wire[kind], field)
            try:
                KINDS[kind](payload)
            except ProtocolError as exc:
                assert exc.__cause__ is not None
            except RAW_ERRORS as exc:  # pragma: no cover
                pytest.fail(
                    f"{KINDS[kind].__name__} leaked "
                    f"{type(exc).__name__} on missing {field!r}"
                )

    @pytest.mark.parametrize(
        "kind,path,value",
        [
            pytest.param(kind, path, value, id=f"{kind}-{case}")
            for kind, cases in sorted(WRONG_TYPED.items())
            for case, path, value in cases
        ],
    )
    def test_wrong_typed_fields(self, wire, kind, path, value):
        assert_protocol_error(
            KINDS[kind], corrupt(kind, wire[kind], path, value)
        )


def site_path(site: str, field: str) -> tuple:
    """The header path of the table at ``site``'s entry or schema."""
    _, path, rows_key, schema_key = TABLE_SITES[site]
    return (*path, schema_key if field == "schema" else rows_key)


def site_case(wire, site: str, field: str, value: object):
    """``(decoder, corrupted payload)`` for one hostile table field."""
    kind = TABLE_SITES[site][0]
    return DECODERS[kind], corrupt(kind, wire[kind], site_path(site, field), value)


class TestHostilePackedFrames:
    """A table's header entry and tail cells under attack, wherever one travels."""

    @pytest.mark.parametrize("kind", SCHEMA_SITES)
    def test_the_valid_rows_object_is_what_the_cases_deviate_from(self, wire, kind):
        _, found = tables(kind, wire[kind])
        valid = Table(VALID_ENTRY, VALID_CELLS)
        assert found[site_path(kind, "rows")] == valid
        assert corrupt(kind, wire[kind], site_path(kind, "rows"), valid) == wire[kind]

    @pytest.mark.parametrize("site", UPLOAD_SITES)
    def test_the_upload_tables_are_two_one_byte_columns_too(self, wire, site):
        """So every hostile case deviates from them as it does from the
        answer's ``rows``: none happens to be a valid table here."""
        _, found = tables("upload", wire["upload"])
        table = found[site_path(site, "rows")]
        assert table.entry["w"] == 1 and table.entry["n"] > 2
        assert len(table.cells) == 2 * table.entry["n"]

    @pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
    @pytest.mark.parametrize("kind", sorted(TABLE_SITES))
    def test_hostile_rows_object(self, wire, kind, case):
        assert_protocol_error(
            *site_case(wire, kind, "rows", HOSTILE_ROWS[case])
        )

    @pytest.mark.parametrize("case", sorted(HOSTILE_SCHEMAS))
    @pytest.mark.parametrize("kind", SCHEMA_SITES)
    def test_hostile_schema(self, wire, kind, case):
        assert_protocol_error(
            *site_case(wire, kind, "schema", HOSTILE_SCHEMAS[case])
        )

    @pytest.mark.parametrize("n", [1, 10**12, 10**30])
    @pytest.mark.parametrize("kind", SCHEMA_SITES)
    def test_a_lying_n_with_an_empty_schema_allocates_nothing(self, wire, kind, n):
        """No column carries the row count, so ``n`` alone would size the
        table: it must be refused, not materialized as ``n`` empty rows."""
        doc, _ = split(kind, wire[kind])
        for field, value in (("schema", []), ("rows", {"n": n, "w": 1})):
            path = site_path(kind, field)
            at(doc, path[:-1])[path[-1]] = value
        assert_protocol_error(DECODERS[kind], join(doc, b""))

    @pytest.mark.parametrize("site", UPLOAD_SITES)
    def test_a_lying_n_with_an_empty_column_block_allocates_nothing(self, wire, site):
        assert_protocol_error(
            *site_case(wire, site, "rows", Table({"n": 10**12, "w": 1}, b""))
        )


def legacy(kind: str, payload: bytes) -> bytes:
    """``payload`` in the base64-in-JSON layout this frame replaced: each
    entry carries its cells as a ``cols`` string, and there is no tail."""
    doc, found = tables(kind, payload)
    for path, table in found.items():
        cols = base64.b64encode(table.cells).decode("ascii")
        at(doc, path[:-1])[path[-1]] = {**table.entry, "cols": cols}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def framed(header: bytes, tail: bytes = b"") -> bytes:
    """Raw header bytes behind a correct length prefix."""
    return struct.pack("<I", len(header)) + header + tail


FRAME_KINDS = ["answer_table", "gateway_answer", "upload"]


class TestTableFrameLayout:
    """The frame around the tables: length prefix, header, exact tail."""

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_the_frame_is_the_prefix_the_header_and_the_tail(self, wire, kind):
        header, tail = oracle.split_frame(wire[kind])
        _, found = tables(kind, wire[kind])
        assert tail == b"".join(table.cells for table in found.values())
        assert oracle.join_frame(header, tail) == wire[kind]

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_header_length_past_the_end(self, wire, kind):
        payload = wire[kind]
        for length in (len(payload) - 3, 2**32 - 1):
            assert_protocol_error(
                DECODERS[kind], struct.pack("<I", length) + payload[4:]
            )

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_frame_shorter_than_its_length_prefix(self, wire, kind):
        for payload in (b"", b"\0", b"\0\0\0"):
            assert_protocol_error(DECODERS[kind], payload)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_header_not_utf8(self, wire, kind):
        header, tail = oracle.split_frame(wire[kind])
        text = json.dumps(header).encode("utf-16")
        assert_protocol_error(DECODERS[kind], framed(text, tail))
        assert_protocol_error(DECODERS[kind], framed(b'{"\xff": 1}', tail))

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_header_not_json(self, wire, kind):
        _, tail = oracle.split_frame(wire[kind])
        assert_protocol_error(DECODERS[kind], framed(b"{not json", tail))

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    @pytest.mark.parametrize("header", [b"[]", b'"text"', b"42", b"null", b"true"])
    def test_header_not_an_object(self, wire, kind, header):
        _, tail = oracle.split_frame(wire[kind])
        assert_protocol_error(DECODERS[kind], framed(header, tail))

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_zero_length_header(self, wire, kind):
        _, tail = oracle.split_frame(wire[kind])
        assert_protocol_error(DECODERS[kind], framed(b"", tail))

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 4, b"A" * 1024])
    def test_trailing_bytes_after_the_last_table(self, wire, kind, extra):
        assert_protocol_error(DECODERS[kind], wire[kind] + extra)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_big_endian_length_prefix(self, wire, kind):
        payload = wire[kind]
        (length,) = struct.unpack_from("<I", payload)
        assert_protocol_error(
            DECODERS[kind], struct.pack(">I", length) + payload[4:]
        )

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_legacy_base64_frame(self, wire, kind):
        old = legacy(kind, wire[kind])
        assert b'"cols":"' in old and old.startswith(b"{")
        assert_protocol_error(DECODERS[kind], old)


#: Well-typed uploads that describe no simple graph.  The fixture's
#: vertices are 0, 1, 2, 4, 6, 7 over four profiles and its edges
#: (0,1) (0,4) (0,6) (0,7) (1,4) (1,6) (2,6).
_IDS, _PROFILES = [0, 1, 2, 4, 6, 7], [0, 1, 0, 2, 3, 3]
_LOWS, _HIGHS = [0, 0, 0, 0, 1, 1, 2], [1, 4, 6, 7, 4, 6, 6]
NO_SIMPLE_GRAPH: dict[str, tuple[str, Table]] = {
    "profile-index-negative": ("vertices", packed(_IDS, [0, 1, 0, 2, 3, -1])),
    "profile-index-past-the-table": ("vertices", packed(_IDS, [0, 1, 0, 2, 3, 4])),
    "duplicate-vertex-id": ("vertices", packed([0, 1, 2, 4, 6, 6], _PROFILES)),
    "self-loop": ("edges", packed(_LOWS + [4], _HIGHS + [4])),
    "edge-endpoint-is-no-vertex": ("edges", packed(_LOWS + [2], _HIGHS + [3])),
    "duplicate-edge": ("edges", packed(_LOWS + [1], _HIGHS + [6])),
    "duplicate-edge-reversed": ("edges", packed(_LOWS + [6], _HIGHS + [1])),
}


class TestUploadSemantics:
    """Refused by the decoder, before any server is built on them."""

    def test_the_cases_deviate_from_the_valid_tables(self, wire):
        graph, found = tables("upload", wire["upload"])
        assert found[("graph", "vertices")] == packed(_IDS, _PROFILES)
        assert found[("graph", "edges")] == packed(_LOWS, _HIGHS)
        assert len(graph["graph"]["profiles"]) == 4

    @pytest.mark.parametrize("case", sorted(NO_SIMPLE_GRAPH))
    def test_no_simple_graph(self, wire, case):
        key, table = NO_SIMPLE_GRAPH[case]
        assert_protocol_error(
            decode_upload, corrupt("upload", wire["upload"], ("graph", key), table)
        )

    def test_the_list_of_pairs_upload_format_is_refused(self):
        """What ``encode_upload`` emitted before the tables were packed."""
        graph, _ = example_social_network()
        transform = build_k_automorphic_graph(graph, 2, seed=0)
        outsourced = build_outsourced_graph(transform.gk, transform.avt)
        old_format = json.dumps(
            {
                "graph": graph_to_dict(outsourced.graph),
                "avt": transform.avt.to_dict(),
            },
            sort_keys=True,
        ).encode("utf-8")
        assert b'"edges": [[' in old_format and b'{"id": ' in old_format
        assert_protocol_error(decode_upload, old_format)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(max_size=200))
    def test_arbitrary_bytes_never_leak_raw_errors(self, payload):
        for decoder in DECODERS.values():
            try:
                decoder(payload)
            except ProtocolError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=8), inner, max_size=4),
            max_leaves=12,
        )
    )
    def test_arbitrary_json_never_leaks_raw_errors(self, payload):
        encoded = json.dumps(payload).encode("utf-8")
        for decoder in DECODERS.values():
            try:
                decoder(encoded)
            except ProtocolError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(
        header=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(
                st.sampled_from(["order", "rows", "n", "w", "answers", "id", "graph", "avt"]),
                inner,
                max_size=4,
            ),
            max_leaves=12,
        ),
        tail=st.binary(max_size=16),
    )
    def test_arbitrary_framed_headers_never_leak_raw_errors(self, header, tail):
        """A correct length prefix in front of any JSON header and tail."""
        payload = framed(json.dumps(header).encode("utf-8"), tail)
        for kind in FRAME_KINDS:
            try:
                DECODERS[kind](payload)
            except ProtocolError:
                pass


class TestTraceContext:
    """The context document: round trip + corruption only -> ProtocolError."""

    @settings(max_examples=60, deadline=None)
    @given(
        query_id=st.text(max_size=16),
        parent=st.integers(min_value=0, max_value=2**53),
        sampled=st.booleans(),
    )
    def test_round_trips(self, query_id, parent, sampled):
        context = TraceContext(
            query_id=query_id, parent_span_id=parent, sampled=sampled
        )
        doc = json.loads(json.dumps(context.to_doc()))
        assert TraceContext.from_doc(doc) == context

    @settings(max_examples=100, deadline=None)
    @given(
        doc=st.dictionaries(
            st.sampled_from(["q", "p", "s", "junk"]),
            st.none()
            | st.booleans()
            | st.integers()
            | st.text(max_size=8)
            | st.lists(st.integers(), max_size=3),
            max_size=4,
        )
    )
    def test_arbitrary_docs_only_raise_protocol_error(self, wire, doc):
        """A request frame's ``ctx`` is where a context document arrives."""
        try:
            decode_gateway_request(
                corrupt("gateway_request", wire["gateway_request"], ("ctx",), doc)
            )
        except ProtocolError:
            pass

    def test_embedded_context_round_trips_on_request_frames(self, wire):
        _, queries, none_context = decode_gateway_request(wire["gateway_request"])
        assert none_context is None
        context = TraceContext(query_id="q-9", parent_span_id=41)
        _, _, gateway_ctx = decode_gateway_request(
            encode_gateway_request("alice-1", queries, context=context)
        )
        assert gateway_ctx == context

    def test_context_field_is_strictly_optional(self, wire):
        """``context=None`` leaves the frame bytes untouched (old clients)."""
        _, queries, _ = decode_gateway_request(wire["gateway_request"])
        traced = encode_gateway_request(
            "alice-1",
            queries,
            context=TraceContext(query_id="q", parent_span_id=1),
        )
        data = json.loads(traced.decode("utf-8"))
        data.pop("ctx")
        assert json.dumps(data, sort_keys=True).encode(
            "utf-8"
        ) == encode_gateway_request("alice-1", queries)


def test_protocol_error_is_repro_error():
    assert issubclass(ProtocolError, ReproError)
