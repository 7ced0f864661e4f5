"""Gateway clients: async :class:`GatewayClient` + a sync wrapper.

The async client multiplexes requests over one connection: a
background reader task routes ``answer``/``reject`` frames to awaiting
futures by request id, so callers can have many requests in flight.
Rejects surface as :class:`~repro.exceptions.GatewayRejected` (typed
code + reason); transport failures as
:class:`~repro.exceptions.GatewayError` — both on the awaiting caller,
never swallowed.

:class:`SyncGatewayClient` runs a private event loop on a background
thread and exposes the same surface with blocking calls, so scripts
and the ``repro call`` CLI command can use the gateway without any
asyncio plumbing.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass
from typing import Awaitable, Sequence, TypeVar

from repro.core.protocol import (
    FRAME_HEADER,
    TraceContext,
    decode_frame_header,
    decode_gateway_answer,
    decode_gateway_reject,
    encode_frame,
    encode_gateway_hello,
    encode_gateway_request,
)
from repro.exceptions import GatewayError, GatewayRejected, ProtocolError
from repro.graph.attributed import AttributedGraph
from repro.matching.table import MatchTable
from repro.obs import names
from repro.obs.tracing import Trace, Tracer, new_query_id

T = TypeVar("T")

#: One decoded answer: the result table and its expanded flag.
Answer = tuple[MatchTable, bool]


@dataclass
class TracedSubmit:
    """A traced round trip: the answers plus the stitched trace.

    ``trace`` holds the client's ``client.submit`` root span with the
    gateway's whole remote trace (request/dispatch/cloud/shard/fork
    spans) re-rooted under it — one tree, fresh local span ids, every
    span stamped with ``query_id``.  ``None`` only when the gateway
    dropped the trace (size cap) or predates trace propagation.
    """

    answers: list[Answer]
    trace: Trace | None
    query_id: str


class GatewayClient:
    """Async client for one gateway connection.

    Usage::

        async with GatewayClient(host, port, client_id="alice") as client:
            table, expanded = await client.query(anonymized)
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "client",
        token: str = "",
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.token = token
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task[None] | None = None
        self._pending: dict[
            str, asyncio.Future[tuple[list[Answer], Trace | None, int]]
        ] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "GatewayClient":
        """Open the connection and run the hello handshake."""
        if self._writer is not None:
            raise GatewayError("client already connected")
        try:
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise GatewayError(f"cannot reach gateway: {exc}") from exc
        self._reader, self._writer = reader, writer
        writer.write(
            encode_frame(
                "hello", encode_gateway_hello(self.client_id, self.token)
            )
        )
        await writer.drain()
        kind, payload = await self._read_frame(reader)
        if kind == "reject":
            _, code, message = decode_gateway_reject(payload)
            await self._teardown()
            raise GatewayRejected(code, message)
        if kind != "hello":
            await self._teardown()
            raise GatewayError(f"expected hello ack, got {kind!r} frame")
        self._reader_task = asyncio.create_task(self._read_loop(reader))
        return self

    async def close(self) -> None:
        """Send ``bye`` and tear the connection down (idempotent)."""
        writer = self._writer
        if writer is not None:
            try:
                async with self._write_lock:
                    writer.write(encode_frame("bye", b""))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        await self._teardown()

    async def _teardown(self) -> None:
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending(GatewayError("connection closed"))

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def _submit_raw(
        self,
        queries: Sequence[AttributedGraph],
        context: TraceContext | None,
    ) -> tuple[list[Answer], Trace | None, dict[str, int]]:
        writer = self._writer
        if writer is None:
            raise GatewayError("client is not connected")
        request_id = f"{self.client_id}-{next(self._ids)}"
        loop = asyncio.get_running_loop()
        future: asyncio.Future[tuple[list[Answer], Trace | None, int]] = (
            loop.create_future()
        )
        self._pending[request_id] = future
        try:
            payload = encode_gateway_request(
                request_id, list(queries), context=context
            )
            async with self._write_lock:
                writer.write(encode_frame("request", payload))
                await writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise GatewayError(f"request write failed: {exc}") from exc
        answers, remote, answer_bytes = await future
        return answers, remote, {
            "query": len(payload),
            "answer": answer_bytes,
        }

    async def submit(
        self, queries: Sequence[AttributedGraph]
    ) -> list[Answer]:
        """Send one request frame; await its answers (or typed reject).

        No trace context is attached, so the request bytes (and the
        gateway's answer bytes) are identical to a pre-context client.
        """
        answers, _, _ = await self._submit_raw(queries, None)
        return answers

    async def submit_traced(
        self, queries: Sequence[AttributedGraph]
    ) -> TracedSubmit:
        """A traced :meth:`submit`: propagate context, stitch the trace.

        Opens a ``client.submit`` root span, ships its id and a fresh
        ``query_id`` inside the request frame, and absorbs the remote
        trace the gateway returns under that root — every remote span
        gets a fresh local id, so the result is one collision-free tree
        chaining client -> gateway -> cloud -> shards -> fork children.
        """
        tracer = Tracer(query_id=new_query_id())
        remote: Trace | None = None
        with tracer.span(names.CLIENT_SUBMIT) as root:
            root.set(queries=len(queries))
            context = TraceContext(
                query_id=tracer.query_id,
                parent_span_id=root.span_id,
                sampled=True,
            )
            answers, remote, sizes = await self._submit_raw(queries, context)
            if remote is not None:
                tracer.absorb(remote, parent=root)
            root.set(remote_spans=len(remote) if remote is not None else 0)
            # the gateway serializes its trace *before* transmitting the
            # answer frame, so the answer-direction bytes can only be
            # accounted on this side of the wire
            with tracer.span(
                names.NETWORK_GATEWAY_ANSWER, parent=root
            ) as wire:
                wire.set(bytes=sizes["answer"])
        return TracedSubmit(
            answers=answers,
            trace=tracer.take_trace(),
            query_id=tracer.query_id,
        )

    async def query(self, query: AttributedGraph) -> Answer:
        """Single-query convenience over :meth:`submit`."""
        answers = await self.submit([query])
        if len(answers) != 1:
            raise GatewayError(
                f"expected 1 answer, gateway sent {len(answers)}"
            )
        return answers[0]

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------
    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, bytes]:
        header = await reader.readexactly(FRAME_HEADER.size)
        kind, length = decode_frame_header(header)
        payload = await reader.readexactly(length) if length else b""
        return kind, payload

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                kind, payload = await self._read_frame(reader)
                if kind == "answer":
                    request_id, answers, remote_trace = decode_gateway_answer(
                        payload
                    )
                    future = self._pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result(
                            (answers, remote_trace, len(payload))
                        )
                elif kind == "reject":
                    request_id, code, message = decode_gateway_reject(payload)
                    future = self._pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_exception(
                            GatewayRejected(code, message, request_id)
                        )
                # any other frame kind from the server is ignored
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._fail_pending(GatewayError("gateway closed the connection"))
        except ProtocolError as exc:
            self._fail_pending(
                GatewayError(f"malformed frame from gateway: {exc}")
            )

    def _fail_pending(self, error: GatewayError) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)


class SyncGatewayClient:
    """Blocking facade over :class:`GatewayClient`.

    Owns a private event loop on a daemon thread; every method submits
    the corresponding coroutine and blocks on its result.  Use as a
    context manager::

        with SyncGatewayClient(host, port, client_id="cli") as client:
            table, expanded = client.query(anonymized)
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "client",
        token: str = "",
        timeout: float | None = 60.0,
    ) -> None:
        self.timeout = timeout
        self._client = GatewayClient(
            host, port, client_id=client_id, token=token
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def _run(self, coroutine: Awaitable[T]) -> T:
        loop = self._loop
        if loop is None:
            raise GatewayError("client is not connected")
        future = asyncio.run_coroutine_threadsafe(coroutine, loop)  # type: ignore[arg-type]
        return future.result(self.timeout)

    def connect(self) -> "SyncGatewayClient":
        if self._thread is not None:
            raise GatewayError("client already connected")
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-gateway-client", daemon=True
        )
        self._thread.start()
        try:
            self._run(self._client.connect())
        except BaseException:
            self._stop_loop()
            raise
        return self

    def close(self) -> None:
        if self._loop is None:
            return
        try:
            self._run(self._client.close())
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        loop, thread = self._loop, self._thread
        self._loop = None
        self._thread = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        if loop is not None and not loop.is_running():
            loop.close()

    def submit(self, queries: Sequence[AttributedGraph]) -> list[Answer]:
        return self._run(self._client.submit(queries))

    def submit_traced(
        self, queries: Sequence[AttributedGraph]
    ) -> TracedSubmit:
        return self._run(self._client.submit_traced(queries))

    def query(self, query: AttributedGraph) -> Answer:
        return self._run(self._client.query(query))

    def __enter__(self) -> "SyncGatewayClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["GatewayClient", "SyncGatewayClient", "Answer", "TracedSubmit"]
