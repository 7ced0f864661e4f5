"""Client/cloud protocol with byte-accurate network accounting.

The paper reports communication overhead (Figure 33: network
transmission time) as a first-class cost.  Since this reproduction runs
client and cloud in one process, the wire is simulated: every message
is actually serialized to bytes, and a :class:`NetworkChannel`
converts byte counts into transmission time with a configurable
bandwidth/latency model (defaults approximate the paper's LAN-to-Azure
setting: results of a few KiB transmit in single-digit milliseconds).

Messages without tables are JSON documents.  The three that carry
tables (the answer, the gateway answer and the upload) are one binary
*table frame*: a little-endian ``u32`` header length, a UTF-8 JSON
header, and the tables' raw cells as the tail (:func:`_pack_frame`).
"""

from __future__ import annotations

import json
import struct
import sys
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Sequence

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
    JSON ``profiles`` in the header; the ``(id, profile)`` vertex rows,
    the edges and the AVT rows are the frame's three tables
    (:func:`_pack_frame`), in that order.  Same graph, same bytes,
    however built.
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
            labels = {a: sorted(v) for a, v in sorted(data.labels.items())}
            profiles.append({"type": data.vertex_type, "labels": labels})
        ids.append(data.vertex_id)
        picks.append(index)
        above = sorted(graph.neighbors(data.vertex_id))
        del above[: bisect_right(above, data.vertex_id)]
        lows += [data.vertex_id] * len(above)
        highs += above
    vertices, v_cells = _pack_table([ids, picks])
    edges, e_cells = _pack_table([lows, highs])
    rows, a_cells = _pack_table(list(zip(*avt.rows())))
    graph_doc = {"name": graph.name, "profiles": profiles, "vertices": vertices, "edges": edges}
    doc = {"graph": graph_doc, "avt": {"k": avt.k, "rows": rows}}
    return _pack_frame(doc, [v_cells, e_cells, a_cells])


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


def _upload_tables(data: dict[str, Any], size: int) -> list[tuple[Any, Any]]:
    """The ``(schema, table)`` entries of a ``size``-byte upload's header."""
    doc, avt_doc = data["graph"], data["avt"]
    k = avt_doc["k"]
    # a row holds k cells of at least a byte each
    if type(k) is not int or not 0 < k <= size:
        raise ValueError("'k' must be a positive integer")
    return [([0, 1], doc["vertices"]), ([0, 1], doc["edges"]), (list(range(k)), avt_doc["rows"])]


def decode_upload(payload: bytes) -> tuple[AttributedGraph, AlignmentVertexTable]:
    """Inverse of :func:`encode_upload` for untrusted input: anything but
    a well-typed frame holding a simple graph (distinct ids, known
    profiles, no self loop, dangling or repeated edge) and a valid AVT
    is a :class:`ProtocolError`."""
    try:
        data, (vertices, edge_table, avt_rows) = _unpack_frame(
            payload, lambda data: _upload_tables(data, len(payload))
        )
        doc = data["graph"]
        if type(doc["name"]) is not str:
            raise ValueError("graph 'name' must be a string")
        profiles = [_profile(entry) for entry in doc["profiles"]]
        graph = AttributedGraph(doc["name"])
        for vid, index in vertices.rows:
            if not 0 <= index < len(profiles):
                raise ValueError(f"vertex {vid} names unknown profile {index}")
            graph.add_vertex_like(vid, profiles[index])
        edges = edge_table.rows
        if len(graph.add_edges(edges)) != len(edges):
            raise ValueError("duplicate edge")
        return graph, AlignmentVertexTable(avt_rows.rows)
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
# table frames (the answer, gateway-answer and upload messages)
# ----------------------------------------------------------------------
# A table frame is ``u32 LE header length | UTF-8 JSON header | tail``.
# Each table is ``{"n": N, "w": W}`` in the header beside its schema;
# the tail is the tables' cells in header order, each column-major in
# schema order, each cell W little-endian two's-complement bytes (W the
# narrowest of 1/2/4/8 holding every cell).  Offsets are implicit: the
# tail is exactly sum(N * len(schema) * W) bytes, checked before any
# allocation, so no table can point past the end or into another.

#: Cell width in bytes -> ``array`` typecode of that signed width.
_CELL_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

#: The stdlib arm packs native-endian ``array`` cells; on a big-endian
#: host it byteswaps them to the little-endian wire order.
_BYTESWAP = sys.byteorder == "big"

#: The table frame's prefix: the JSON header's length in bytes.
_HEADER_LENGTH = struct.Struct("<I")


def _cell_width(low: int, high: int) -> int:
    """The narrowest wire width holding every cell in ``[low, high]``."""
    # two's complement: a value needs bit_length(v if v >= 0 else ~v) + 1 bits
    bits = max(high, ~low).bit_length()
    for width in _CELL_CODES:
        if bits < 8 * width:
            return width
    raise ProtocolError("cannot encode table: a cell does not fit a signed 64-bit integer")


@hot_path
def _pack_rows(table: MatchTable, order: Sequence[int]) -> tuple[dict[str, int], Any]:
    """One table, columns in ``order``: its header entry and its cells.

    From :data:`repro.matching.vec.MIN_VECTOR_ROWS` rows upward (with
    numpy) the columns are cast into one array; below that, and without
    numpy, the cells pass through a stdlib ``array`` — same bytes.
    """
    n = len(table)
    if n and not order:
        raise ProtocolError("cannot encode table: rows without columns")
    cols = table.as_columns() if n and vec.vectorize(n) else None
    if cols is not None:
        picked = [cols[table.column_of(q)] for q in order]
        low, high = min(int(col.min()) for col in picked), max(int(col.max()) for col in picked)
        width = _cell_width(low, high)
        # every cell fits ``width``, so the unchecked cast is exact
        cells = vec.np.concatenate(picked, dtype=f"<i{width}", casting="unsafe")
    else:
        flat = list(chain.from_iterable(zip(*table.project_rows(order))))
        width = _cell_width(min(flat), max(flat)) if flat else 1
        cells = array(_CELL_CODES[width], flat)
        if _BYTESWAP:
            cells.byteswap()
    return {"n": n, "w": width}, cells


def _pack_table(columns: Sequence[Sequence[int]]) -> tuple[dict[str, int], Any]:
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


def _pack_frame(doc: dict[str, Any], tails: Sequence[Any], cap: int = 0) -> bytes:
    """``doc`` as the JSON header, then the :func:`_pack_rows` cells
    ``tails`` in header order; past a nonzero ``cap`` bytes, a
    :class:`ProtocolError` before the tail is joined."""
    header = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    size = _HEADER_LENGTH.size + len(header)
    size += sum(memoryview(cells).nbytes for cells in tails)
    if cap and size > cap:
        raise ProtocolError(f"a {size}-byte table frame exceeds the {cap}-byte cap")
    return b"".join([_HEADER_LENGTH.pack(len(header)), header, *tails])


def _unpack_frame(
    payload: bytes, locate: Callable[[dict[str, Any]], list[tuple[Any, Any]]]
) -> tuple[dict[str, Any], list[MatchTable]]:
    """Inverse of :func:`_pack_frame` for untrusted input: the header and
    the tables ``locate(header)`` lists as ``(schema, entry)`` pairs.

    The header length, the header, every schema and entry, and the exact
    tail length are checked before any per-row storage exists, so a
    lying ``n`` costs nothing; cells are read through a ``memoryview``,
    never a copy of the tail.  Raises ``ValueError``/``KeyError``/
    ``TypeError``; the decoders' envelope wraps them.
    """
    view = memoryview(payload)
    # a frame shorter than the prefix fails the next check too
    length = int.from_bytes(view[: _HEADER_LENGTH.size], "little")
    end = _HEADER_LENGTH.size + length
    if end > len(view):
        raise ValueError(f"header length {length} runs past a {len(view)}-byte frame")
    header = json.loads(str(view[_HEADER_LENGTH.size : end], "utf-8"))
    if not isinstance(header, dict):
        raise ValueError("frame header must be a JSON object")
    shapes = [_table_shape(order, entry) for order, entry in locate(header)]
    tail = view[end:]
    declared = sum(n * len(order) * width for order, n, width in shapes)
    if len(tail) != declared:
        raise ValueError(f"tail holds {len(tail)} bytes, header declares {declared}")
    tables = []
    for order, n, width in shapes:
        tables.append(_unpack_rows(order, n, width, tail[: n * len(order) * width]))
        tail = tail[n * len(order) * width :]
    return header, tables


def _table_shape(order: Any, entry: Any) -> tuple[list[int], int, int]:
    """One table's ``(schema, n, w)`` after the header-level checks."""
    if not isinstance(order, list) or {*map(type, order)} - {int} or len({*order}) < len(order):
        raise ValueError("table schema must be a list of distinct integer vertex ids")
    if not isinstance(entry, dict) or entry.keys() != {"n", "w"}:
        raise ValueError("a table entry must be exactly {'n', 'w'}")
    n, width = entry["n"], entry["w"]
    if type(n) is not int or n < 0:
        raise ValueError("'n' must be a non-negative integer")
    if type(width) is not int or width not in _CELL_CODES:
        raise ValueError("'w' must be 1, 2, 4 or 8")
    if n and not order:
        raise ValueError("rows without columns")
    return order, n, width


@hot_path
def _unpack_rows(order: list[int], n: int, width: int, raw: memoryview) -> MatchTable:
    """A checked table's ``n * len(order) * width`` tail bytes as a table."""
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


def encode_answer_table(table: MatchTable, query_order: list[int], expanded: bool) -> bytes:
    """The cloud's answer: ``Rin`` (or full candidates for BAS).

    A table frame (:func:`_pack_frame`) whose header is ``{"order",
    "rows": {"n", "w"}, "expanded"}`` and whose tail is the matches'
    columns re-ordered to ``query_order`` — compact and measurable in
    bytes for the communication experiments.
    """
    rows, cells = _pack_rows(table, query_order)
    doc = {"order": query_order, "rows": rows, "expanded": expanded}
    return _pack_frame(doc, [cells])


def decode_answer_table(payload: bytes) -> tuple[MatchTable, bool]:
    """Inverse of :func:`encode_answer_table`; the rows stay tabular.

    The table's schema is the message's ``order``; anything but a
    consistent table frame is a :class:`ProtocolError` (see
    :func:`_unpack_frame`).
    """
    try:
        data, (table,) = _unpack_frame(
            payload, lambda data: [(data["order"], data["rows"])]
        )
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
            # a corrupted context fails the whole frame, never
            # degrading silently to an untraced request
            None if data.get("ctx") is None else TraceContext.from_doc(data["ctx"]),
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

    A table frame whose header is ``{"id", "answers"}``, each entry the
    :func:`encode_answer_table` header, and whose tail is the entries'
    tails in order — an entry and its cells are byte-for-byte the
    in-process answer's.  ``trace`` optionally carries the gateway-side
    trace back (the key is absent when ``None``).  An answer past
    :data:`MAX_FRAME_PAYLOAD` is a :class:`ProtocolError`.
    """
    packed = [_pack_rows(table, order) for table, order, _ in answers]
    entries = [
        {"order": order, "rows": rows, "expanded": expanded}
        for (_, order, expanded), (rows, _) in zip(answers, packed)
    ]
    doc: dict[str, Any] = {"id": request_id, "answers": entries}
    if trace is not None:
        doc["trace"] = trace.to_dict()
    return _pack_frame(doc, [cells for _, cells in packed], cap=MAX_FRAME_PAYLOAD)


def _answer_tables(data: dict[str, Any]) -> list[tuple[Any, Any]]:
    """A gateway answer header's ``(schema, table)`` entries."""
    if not isinstance(data["id"], str) or not isinstance(data["answers"], list):
        raise ValueError("'id' must be a string and 'answers' a list")
    return [(entry["order"], entry["rows"]) for entry in data["answers"]]


def decode_gateway_answer(
    payload: bytes,
) -> tuple[str, list[tuple[MatchTable, bool]], Trace | None]:
    try:
        data, tables = _unpack_frame(payload, _answer_tables)
        entries = zip(tables, data["answers"])
        trace = None if data.get("trace") is None else Trace.from_dict(data["trace"])
        return data["id"], [(t, bool(entry["expanded"])) for t, entry in entries], trace
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
