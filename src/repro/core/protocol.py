"""Client/cloud protocol with byte-accurate network accounting.

The paper reports communication overhead (Figure 33: network
transmission time) as a first-class cost.  Since this reproduction runs
client and cloud in one process, the wire is simulated: every message
is actually serialized to JSON bytes, and a :class:`NetworkChannel`
converts byte counts into transmission time with a configurable
bandwidth/latency model (defaults approximate the paper's LAN-to-Azure
setting: results of a few KiB transmit in single-digit milliseconds).
"""

from __future__ import annotations

import base64
import json
import struct
import sys
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

from repro.analysis.markers import hot_path
from repro.exceptions import GraphError, ProtocolError, VerificationError
from repro.graph.attributed import AttributedGraph, VertexData
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.kauto.avt import AlignmentVertexTable
from repro.matching import vec
from repro.matching.table import MatchTable
from repro.obs import Observability, names
from repro.obs.tracing import Trace

DEFAULT_BANDWIDTH_BYTES_PER_SEC = 1_000_000  # ~1 MB/s effective throughput
DEFAULT_LATENCY_SECONDS = 0.001

#: Upper bound on a serialized remote trace riding back on an answer
#: frame; a gateway drops the trace (never the answer) past this.
MAX_TRACE_PAYLOAD = 4 * 1024 * 1024

#: The unified malformed-payload envelope: everything a hostile or
#: truncated message can raise out of ``json.loads`` + the field
#: accessors + the graph/AVT/table constructors.  Every ``decode_*``
#: traps exactly this tuple and re-raises :class:`ProtocolError`, so a
#: bad frame can never surface as a raw ``TypeError``/``AttributeError``
#: in the engine.
_DECODE_ERRORS = (
    KeyError, ValueError, TypeError, AttributeError, GraphError, VerificationError
)


@dataclass
class NetworkChannel:
    """Per-direction byte totals + linear latency/bandwidth cost model.

    The channel keeps one running byte total per message direction, so
    its accounting stays constant-size however many messages a
    long-lived deployment carries.

    :meth:`transmit` optionally reports into an
    :class:`~repro.obs.Observability` scope: one ``network.<direction>``
    span per message (attributes ``bytes`` and ``simulated_seconds`` —
    the *cost-model* time, distinct from the span's negligible wall
    duration) and a ``network_bytes_total{direction=...}`` counter.
    """

    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH_BYTES_PER_SEC
    latency_seconds: float = DEFAULT_LATENCY_SECONDS
    # R3 (lock discipline): query_batch workers transmit concurrently;
    # an unlocked read-modify-write racing reset()/total_bytes()
    # mid-batch would tear the totals.  All access goes through _lock.
    #: guarded by _lock
    _bytes: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def transmit(
        self, direction: str, payload: bytes, obs: Observability | None = None
    ) -> float:
        """Count a message; returns the simulated transmission time."""
        size = len(payload)
        seconds = self.latency_seconds + size / self.bandwidth_bytes_per_sec
        with self._lock:
            self._bytes[direction] = self._bytes.get(direction, 0) + size
        if obs is not None:
            # R2: span names come from the canonical taxonomy, never
            # from runtime data (the direction is validated en route).
            span_name = names.NETWORK_SPANS[direction]
            with obs.tracer.span(span_name) as span:
                span.set(bytes=size, simulated_seconds=seconds)
            obs.metrics.counter(
                names.M_NETWORK_BYTES,
                help="Bytes on the simulated wire, by message direction.",
            ).inc(size, direction=direction)
        return seconds

    def total_bytes(self, direction: str | None = None) -> int:
        with self._lock:
            if direction is None:
                return sum(self._bytes.values())
            return self._bytes.get(direction, 0)

    def reset(self) -> None:
        with self._lock:
            self._bytes.clear()


# ----------------------------------------------------------------------
# message encodings
# ----------------------------------------------------------------------
def encode_upload(graph: AttributedGraph, avt: AlignmentVertexTable) -> bytes:
    """The data owner's one-time upload: published graph + AVT.

    The distinct ``(type, label groups)`` pairs travel once, as plain
    JSON ``profiles``; the ``(id, profile)`` vertex rows, the edges and
    the AVT rows are packed tables (:func:`_pack_rows`), so only
    integers are inside base64.  Same graph, same bytes, however built.
    """
    profile_of: dict[tuple[str, frozenset[Any]], int] = {}
    profiles: list[dict[str, Any]] = []
    ids: list[int] = []  # the vertex table: id, profile
    picks: list[int] = []
    lows: list[int] = []  # the edge table: low end, high end, ascending
    highs: list[int] = []
    for data in sorted(graph.vertices(), key=attrgetter("vertex_id")):
        key = (data.vertex_type, frozenset(data.labels.items()))
        index = profile_of.get(key)
        if index is None:
            index = profile_of[key] = len(profiles)
            labels = {a: sorted(v) for a, v in data.labels.items()}
            profiles.append({"type": data.vertex_type, "labels": labels})
        ids.append(data.vertex_id)
        picks.append(index)
        above = sorted(graph.neighbors(data.vertex_id))
        del above[: bisect_right(above, data.vertex_id)]
        lows += [data.vertex_id] * len(above)
        highs += above
    return json.dumps(
        {
            "graph": {
                "name": graph.name,
                "profiles": profiles,
                "vertices": _pack_table([ids, picks]),
                "edges": _pack_table([lows, highs]),
            },
            "avt": {"k": avt.k, "rows": _pack_table(list(zip(*avt.rows())))},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _profile(entry: Any) -> VertexData:
    """One ``profiles`` entry as the vertex payload its vertices share."""
    vertex_type, labels = entry["type"], entry["labels"]
    if type(vertex_type) is not str:
        raise ValueError("profile 'type' must be a string")
    if not isinstance(labels, dict) or not all(
        type(groups) is list and {*map(type, groups)} <= {str}
        for groups in labels.values()
    ):
        raise ValueError("profile 'labels' must map attributes to string lists")
    return VertexData(-1, vertex_type).with_labels(labels)


def decode_upload(payload: bytes) -> tuple[AttributedGraph, AlignmentVertexTable]:
    """Inverse of :func:`encode_upload` for untrusted input: anything but
    a well-typed frame holding a simple graph (distinct ids, known
    profiles, no self loop, dangling or repeated edge) and a valid AVT
    is a :class:`ProtocolError`."""
    try:
        data = json.loads(payload.decode("utf-8"))
        doc, avt_doc = data["graph"], data["avt"]
        if type(doc["name"]) is not str:
            raise ValueError("graph 'name' must be a string")
        profiles = [_profile(entry) for entry in doc["profiles"]]
        graph = AttributedGraph(doc["name"])
        for vid, index in _unpack_rows([0, 1], doc["vertices"]).rows:
            if not 0 <= index < len(profiles):
                raise ValueError(f"vertex {vid} names unknown profile {index}")
            graph.add_vertex_like(vid, profiles[index])
        edges = _unpack_rows([0, 1], doc["edges"]).rows
        if len(graph.add_edges(edges)) != len(edges):
            raise ValueError("duplicate edge")
        k = avt_doc["k"]
        # a row holds k cells of at least a byte each
        if type(k) is not int or not 0 < k <= len(payload):
            raise ValueError("'k' must be a positive integer")
        avt = AlignmentVertexTable(_unpack_rows(list(range(k)), avt_doc["rows"]).rows)
        return graph, avt
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed upload message: {exc}") from exc


def encode_query(query: AttributedGraph) -> bytes:
    """The anonymized query ``Qo``."""
    return json.dumps(graph_to_dict(query), sort_keys=True).encode("utf-8")


def decode_query(payload: bytes) -> AttributedGraph:
    try:
        return graph_from_dict(json.loads(payload.decode("utf-8")))
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed query message: {exc}") from exc


# ----------------------------------------------------------------------
# packed table rows (shared by the answer and gateway-answer frames)
# ----------------------------------------------------------------------
# A table travels as ``{"n": N, "w": W, "cols": "<base64>"}``: the
# columns in schema order, column-major, each N little-endian signed
# W-byte integers, W the narrowest of 1/2/4/8 that holds every cell.
# It is base64 inside the JSON document rather than a binary tail so
# that a frame stays one JSON value: gateway answers nest it, the
# optional ``trace`` field rides beside it, and the malformed-frame
# suites and lint R8 treat every codec alike.

#: Cell width in bytes -> ``array`` typecode of that signed width.
_CELL_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

#: The stdlib arm packs native-endian ``array`` cells; on a big-endian
#: host it byteswaps them to the little-endian wire order.
_BYTESWAP = sys.byteorder == "big"


def _cell_width(low: int, high: int) -> int:
    """The narrowest wire width holding every cell in ``[low, high]``."""
    # two's complement: a value needs bit_length(v if v >= 0 else ~v) + 1 bits
    bits = max(high, ~low).bit_length()
    for width in _CELL_CODES:
        if bits < 8 * width:
            return width
    raise ProtocolError(
        "cannot encode table: a cell does not fit a signed 64-bit integer"
    )


@hot_path
def _pack_rows(table: MatchTable, order: Sequence[int]) -> dict[str, Any]:
    """The ``rows`` field of a table frame, columns in ``order``.

    From :data:`repro.matching.vec.MIN_VECTOR_ROWS` rows upward (with
    numpy) the columns go straight to bytes; below that, and without
    numpy, the cells pass through a stdlib ``array`` — same bytes.
    """
    n = len(table)
    if n and not order:
        raise ProtocolError("cannot encode table: rows without columns")
    cols = table.as_columns() if n and vec.vectorize(n) else None
    if cols is not None:
        np = vec.np
        picked = [cols[table.column_of(q)] for q in order]
        width = _cell_width(
            min(int(col.min()) for col in picked),
            max(int(col.max()) for col in picked),
        )
        raw = np.concatenate(picked).astype(f"<i{width}").tobytes()
    else:
        cells = list(chain.from_iterable(zip(*table.project_rows(order))))
        width = _cell_width(min(cells), max(cells)) if cells else 1
        packed = array(_CELL_CODES[width], cells)
        if _BYTESWAP:
            packed.byteswap()
        raw = packed.tobytes()
    return {"n": n, "w": width, "cols": base64.b64encode(raw).decode("ascii")}


def _pack_table(columns: Sequence[Sequence[int]]) -> dict[str, Any]:
    """Integer columns through :func:`_pack_rows`: schema = column numbers."""
    schema = range(len(columns))
    n = len(columns[0])
    if vec.vectorize(n):
        try:
            cols = [vec.as_ndarray(array("q", column)) for column in columns]
        except OverflowError as exc:
            raise ProtocolError(f"cannot encode table: {exc}") from exc
        return _pack_rows(MatchTable.from_columns(schema, cols, n), schema)
    return _pack_rows(MatchTable(schema, list(zip(*columns))), schema)


@hot_path
def _unpack_rows(order: Any, packed: Any) -> MatchTable:
    """Inverse of :func:`_pack_rows` for untrusted input.

    Every field is checked before any per-row storage exists: the
    schema is a list of distinct exact ints, ``n``/``w`` are exact ints
    in range, ``cols`` is strict base64, and its decoded length is
    exactly ``n * len(order) * w`` — so a lying ``n`` costs nothing,
    and the cells are integers by construction.  Raises ``ValueError``/
    ``KeyError``/``TypeError``; the decoders' envelope wraps them.
    """
    if not isinstance(order, list) or not {*map(type, order)} <= {int}:
        raise ValueError("table schema must be a list of integer vertex ids")
    if len(set(order)) != len(order):
        raise ValueError("duplicate query vertex in table schema")
    if not isinstance(packed, dict):
        raise ValueError("'rows' must be a packed-column object")
    n, width, cols = packed["n"], packed["w"], packed["cols"]
    if type(n) is not int or n < 0:
        raise ValueError("'n' must be a non-negative integer")
    if type(width) is not int or width not in _CELL_CODES:
        raise ValueError("'w' must be 1, 2, 4 or 8")
    if not isinstance(cols, str):
        raise ValueError("'cols' must be a base64 string")
    if n and not order:
        raise ValueError("rows without columns")
    raw = base64.b64decode(cols, validate=True)
    if len(raw) != n * len(order) * width:
        raise ValueError(
            f"'cols' holds {len(raw)} bytes, expected "
            f"{n} x {len(order)} x {width}"
        )
    # cell offset of each column in the column-major block
    starts = range(0, n * len(order), n or 1)
    if vec.vectorize(n):
        np = vec.np
        flat = np.frombuffer(raw, dtype=f"<i{width}")
        return MatchTable.from_columns(
            order, [flat[i : i + n].astype(np.int64) for i in starts], n
        )
    cells = array(_CELL_CODES[width])
    cells.frombytes(raw)
    if _BYTESWAP:
        cells.byteswap()
    values = cells.tolist()
    return MatchTable(order, list(zip(*[values[i : i + n] for i in starts])))


def encode_answer_table(
    table: MatchTable,
    query_order: list[int],
    expanded: bool,
) -> bytes:
    """The cloud's answer: ``Rin`` (or full candidates for BAS).

    The matches travel as packed columns re-ordered to ``query_order``
    (see :func:`_pack_rows`) — compact and measurable in bytes for the
    communication experiments.
    """
    return json.dumps(
        {
            "order": query_order,
            "rows": _pack_rows(table, query_order),
            "expanded": expanded,
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_answer_table(payload: bytes) -> tuple[MatchTable, bool]:
    """Inverse of :func:`encode_answer_table`; the rows stay tabular.

    The table's schema is the message's ``order``; a schema that is not
    a list of distinct ints, or a ``rows`` field that is anything but a
    consistent packed-column object, is a :class:`ProtocolError` (see
    :func:`_unpack_rows`).
    """
    try:
        data = json.loads(payload.decode("utf-8"))
        table = _unpack_rows(data["order"], data["rows"])
        return table, bool(data["expanded"])
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed answer message: {exc}") from exc


# ----------------------------------------------------------------------
# trace context (cross-process span propagation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """The compact trace context carried across process boundaries.

    A gateway request frame optionally embeds one, and a fork child's
    scatter task carries its document, so the remote side can stamp its
    spans with the caller's ``query_id`` and record which caller span
    logically encloses its work.  ``parent_span_id`` is only meaningful
    within the *caller's* id space — remote tracers never adopt it as a
    literal parent id (their own counters would collide with it);
    stitching happens on the caller via
    :meth:`repro.obs.tracing.Tracer.absorb`.
    """

    query_id: str
    parent_span_id: int = 0
    sampled: bool = True

    def to_doc(self) -> dict[str, Any]:
        """The wire document: short keys, deterministic order."""
        return {
            "p": self.parent_span_id,
            "q": self.query_id,
            "s": 1 if self.sampled else 0,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "TraceContext":
        query_id = doc["q"]
        if not isinstance(query_id, str):
            raise ValueError("'q' must be a string")
        parent_span_id = doc["p"]
        if isinstance(parent_span_id, bool) or not isinstance(
            parent_span_id, int
        ):
            raise ValueError("'p' must be an integer")
        if parent_span_id < 0:
            raise ValueError("'p' must be >= 0")
        sampled = doc.get("s", 1)
        if sampled not in (0, 1, True, False):
            raise ValueError("'s' must be 0 or 1")
        return cls(
            query_id=query_id,
            parent_span_id=parent_span_id,
            sampled=bool(sampled),
        )


def _context_from_field(data: dict[str, Any]) -> TraceContext | None:
    """Decode the optional embedded ``ctx`` field of a request frame.

    Raises the raw field errors (the caller's envelope wraps them), so
    a corrupted context fails the whole frame instead of silently
    degrading to an untraced request.
    """
    doc = data.get("ctx")
    if doc is None:
        return None
    return TraceContext.from_doc(doc)


def _trace_from_field(data: dict[str, Any]) -> Trace | None:
    """Decode the optional embedded ``trace`` field of an answer frame."""
    doc = data.get("trace")
    if doc is None:
        return None
    return Trace.from_dict(doc)


# ----------------------------------------------------------------------
# gateway framing (length-prefixed binary envelope)
# ----------------------------------------------------------------------
# The serving gateway (repro.gateway) multiplexes many requests over
# one TCP connection, so messages get a self-delimiting envelope:
#
#     +-------+------+-----------------+----------------+
#     | magic | kind | payload length  | payload bytes  |
#     | 4s    | B    | I (big-endian)  | length bytes   |
#     +-------+------+-----------------+----------------+
#
# The payload of every kind is one of the JSON codecs below; the
# envelope itself stays binary so a reader can frame without parsing.

FRAME_MAGIC = b"RPG1"
FRAME_HEADER = struct.Struct(">4sBI")
#: Frame kind -> wire code.  ``hello`` opens a connection (client
#: identity + auth token), ``request`` carries anonymized queries,
#: ``answer``/``reject`` are the two terminal responses per request,
#: and ``bye`` closes the connection cleanly.
FRAME_KINDS = {"hello": 1, "request": 2, "answer": 3, "reject": 4, "bye": 5}
FRAME_CODES = {code: kind for kind, code in FRAME_KINDS.items()}
#: Upper bound on a single frame payload; a hostile length prefix must
#: not make the reader allocate unbounded buffers.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


def encode_frame(kind: str, payload: bytes) -> bytes:
    """Wrap ``payload`` in the length-prefixed gateway envelope."""
    try:
        code = FRAME_KINDS[kind]
    except KeyError:
        raise ProtocolError(f"unknown gateway frame kind: {kind!r}") from None
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"gateway frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte cap"
        )
    return FRAME_HEADER.pack(FRAME_MAGIC, code, len(payload)) + payload


def decode_frame_header(header: bytes) -> tuple[str, int]:
    """Parse an envelope header into ``(kind, payload_length)``."""
    try:
        if len(header) != FRAME_HEADER.size:
            raise ValueError(
                f"frame header must be {FRAME_HEADER.size} bytes, "
                f"got {len(header)}"
            )
        magic, code, length = FRAME_HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            raise ValueError(f"bad frame magic: {magic!r}")
        if code not in FRAME_CODES:
            raise ValueError(f"unknown frame kind code: {code}")
        if length > MAX_FRAME_PAYLOAD:
            raise ValueError(
                f"frame payload length {length} exceeds the "
                f"{MAX_FRAME_PAYLOAD}-byte cap"
            )
        return FRAME_CODES[code], length
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed gateway frame header: {exc}") from exc


def decode_frame(data: bytes) -> tuple[str, bytes, bytes]:
    """Split one complete frame off ``data``: ``(kind, payload, rest)``.

    The sans-I/O counterpart of the gateway's stream reader, used by
    tests and the sync client; raises :class:`ProtocolError` when the
    buffer holds less than one whole frame.
    """
    kind, length = decode_frame_header(data[: FRAME_HEADER.size])
    end = FRAME_HEADER.size + length
    if len(data) < end:
        raise ProtocolError(
            f"malformed gateway frame: truncated payload "
            f"({len(data) - FRAME_HEADER.size} of {length} bytes)"
        )
    return kind, data[FRAME_HEADER.size : end], data[end:]


# ----------------------------------------------------------------------
# gateway frame payloads
# ----------------------------------------------------------------------
def encode_gateway_hello(client_id: str, token: str = "") -> bytes:
    """The connection opener: who is calling and with what credential."""
    return json.dumps(
        {"client_id": client_id, "token": token}, sort_keys=True
    ).encode("utf-8")


def decode_gateway_hello(payload: bytes) -> tuple[str, str]:
    try:
        data = json.loads(payload.decode("utf-8"))
        client_id = data["client_id"]
        if not isinstance(client_id, str) or not client_id:
            raise ValueError("'client_id' must be a non-empty string")
        token = data.get("token", "")
        if not isinstance(token, str):
            raise ValueError("'token' must be a string")
        return client_id, token
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed gateway hello message: {exc}") from exc


def encode_gateway_request(
    request_id: str,
    queries: list[AttributedGraph],
    *,
    context: TraceContext | None = None,
) -> bytes:
    """One request: anonymized queries answered as a unit.

    ``context`` optionally propagates the client's trace context (the
    ``ctx`` key is absent when ``None``, so requests from pre-context
    clients stay byte-identical).
    """
    doc: dict[str, Any] = {
        "id": request_id,
        "queries": [graph_to_dict(query) for query in queries],
    }
    if context is not None:
        doc["ctx"] = context.to_doc()
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def decode_gateway_request(
    payload: bytes,
) -> tuple[str, list[AttributedGraph], TraceContext | None]:
    try:
        data = json.loads(payload.decode("utf-8"))
        request_id = data["id"]
        if not isinstance(request_id, str) or not request_id:
            raise ValueError("'id' must be a non-empty string")
        queries = data["queries"]
        if not isinstance(queries, list) or not queries:
            raise ValueError("'queries' must be a non-empty list")
        return (
            request_id,
            [graph_from_dict(entry) for entry in queries],
            _context_from_field(data),
        )
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed gateway request message: {exc}") from exc


def encode_gateway_answer(
    request_id: str,
    answers: list[tuple[MatchTable, list[int], bool]],
    *,
    trace: Trace | None = None,
) -> bytes:
    """Answers for one request, one table per query.

    Each entry has exactly the :func:`encode_answer_table` document
    shape (``order``/``rows``/``expanded``), so a gateway answer is
    byte-for-byte the in-process wire encoding wrapped in a request
    envelope — the bit-identity tests compare at this layer.  ``trace``
    optionally carries the gateway-side trace back to the client (the
    key is absent when ``None``, so untraced answers keep the exact
    pre-trace bytes).
    """
    doc: dict[str, Any] = {
        "id": request_id,
        "answers": [
            {
                "order": order,
                "rows": _pack_rows(table, order),
                "expanded": expanded,
            }
            for table, order, expanded in answers
        ],
    }
    if trace is not None:
        doc["trace"] = trace.to_dict()
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def decode_gateway_answer(
    payload: bytes,
) -> tuple[str, list[tuple[MatchTable, bool]], Trace | None]:
    try:
        data = json.loads(payload.decode("utf-8"))
        request_id = data["id"]
        if not isinstance(request_id, str):
            raise ValueError("'id' must be a string")
        answers = data["answers"]
        if not isinstance(answers, list):
            raise ValueError("'answers' must be a list")
        decoded = [
            (
                _unpack_rows(entry["order"], entry["rows"]),
                bool(entry["expanded"]),
            )
            for entry in answers
        ]
        return request_id, decoded, _trace_from_field(data)
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed gateway answer message: {exc}") from exc


def encode_gateway_reject(request_id: str, code: str, message: str) -> bytes:
    """A typed refusal: load shedding or policy, never a silent drop."""
    return json.dumps(
        {"id": request_id, "code": code, "message": message},
        sort_keys=True,
    ).encode("utf-8")


def decode_gateway_reject(payload: bytes) -> tuple[str, str, str]:
    try:
        data = json.loads(payload.decode("utf-8"))
        request_id = data["id"]
        if not isinstance(request_id, str):
            raise ValueError("'id' must be a string")
        code = data["code"]
        if not isinstance(code, str) or not code:
            raise ValueError("'code' must be a non-empty string")
        message = data["message"]
        if not isinstance(message, str):
            raise ValueError("'message' must be a string")
        return request_id, code, message
    except _DECODE_ERRORS as exc:
        raise ProtocolError(f"malformed gateway reject message: {exc}") from exc
