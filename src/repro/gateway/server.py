"""The asyncio serving gateway: frames in, admitted work out.

:class:`QueryGateway` listens on a TCP socket (``asyncio.start_server``
on a dedicated background thread), speaks the length-prefixed frame
envelope of :mod:`repro.core.protocol`, and answers anonymized
queries with a :class:`~repro.cloud.server.CloudServer` (single or
sharded) on that same event-loop thread: under the GIL a thread pool
gives pure-Python matching no parallelism, only a thread hop each way.
As each request frame is read it runs, in order:

1. the auth check of the connection's hello token against the
   gateway's shared ``token``, when one is set,
2. admission control (one global cap on requests read but not yet
   answered, SLO-driven load shedding off the live
   ``gateway_seconds_window`` gauges while any request is pending),
3. the duplicate-query lease (identical requests read before their
   leader starts computing share its one cloud computation).

The request then queues as a task: tasks compute in read order, each
ending in the answer frame; every refusal ships as a typed reject
frame instead — the gateway degrades by shedding, never by collapsing.

The request's trace, its ``gateway.request`` span carrying client id,
request id, query count and final status, is pushed to the
:class:`~repro.obs.TraceRing` when one is given: that document is the
request's record on ``/traces`` and in the ``serve --events`` log.

Every connection transmits on the gateway's one
:class:`~repro.core.protocol.NetworkChannel`, whose per-direction byte
totals are live while connections are still open.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import threading
from typing import Sequence

from repro.cloud.server import CloudServer
from repro.core.protocol import (
    FRAME_HEADER,
    MAX_TRACE_PAYLOAD,
    NetworkChannel,
    TraceContext,
    decode_frame_header,
    decode_gateway_hello,
    decode_gateway_request,
    encode_frame,
    encode_gateway_answer,
    encode_gateway_hello,
    encode_gateway_reject,
)
from repro.exceptions import GatewayError, GatewayRejected, ProtocolError
from repro.gateway.admission import (
    MIN_WINDOW_COUNT,
    SLO_QUANTILE,
    AdmissionController,
    QueryCoalescer,
    coalesce_key,
)
from repro.graph.attributed import AttributedGraph
from repro.matching.table import MatchTable
from repro.obs import Observability, SlidingWindow, TraceRing, names
from repro.obs.tracing import NullSpan, Span, Trace

#: Reject codes counted as *load shedding* (``gateway_shed_total``);
#: the other rejections (auth, bad frames, internal) are not.
SHED_CODES = ("overloaded",)

#: One answer entry: the result table, its column order, and whether
#: the rows are already expanded through the AVT.
AnswerEntry = tuple[MatchTable, list[int], bool]

#: A coalescing lease: the workload key, whether this request leads
#: (computes), and the future the leader's answers are shared through.
Lease = tuple[tuple, bool, "asyncio.Future[list[AnswerEntry]]"]


class _Connection:
    """Per-connection state: identity and write lock."""

    def __init__(
        self, client_id: str, token: str, writer: asyncio.StreamWriter
    ) -> None:
        self.client_id = client_id
        self.token = token
        self.writer = writer
        self.write_lock = asyncio.Lock()

    async def send(self, kind: str, payload: bytes) -> None:
        async with self.write_lock:
            self.writer.write(encode_frame(kind, payload))
            await self.writer.drain()


class QueryGateway:
    """An async query front end over a deployed cloud engine.

    Parameters
    ----------
    cloud:
        The deployed engine requests dispatch into (shared, read-mostly).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    token:
        Shared secret every request's hello token must equal (compared
        in constant time); a mismatch is refused with ``unauthorized``
        and the connection stays usable.  ``None`` admits any token.
    max_inflight:
        Global cap on requests read but not yet answered (queued or
        computing); past it a request is refused with ``overloaded``.
    slo_seconds:
        Arms latency shedding: once the gateway's own sliding window
        holds ``MIN_WINDOW_COUNT`` admitted requests and its
        ``SLO_QUANTILE`` exceeds this bound, a request read while
        another is pending is refused with ``overloaded`` (an idle
        gateway always admits, so the window refreshes).  The window
        is fed request span durations, so it needs an enabled ``obs``.
    obs:
        Observability root; every request runs on its own
        ``obs.for_query()`` scope.
    traces:
        Optional :class:`~repro.obs.TraceRing`; when given, each
        request's trace is retained under its query id so the
        telemetry server's ``/traces/<query_id>`` endpoint can serve
        gateway-handled queries too.
    """

    def __init__(
        self,
        cloud: CloudServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        max_inflight: int = 64,
        slo_seconds: float | None = None,
        obs: Observability | None = None,
        traces: TraceRing | None = None,
    ) -> None:
        if slo_seconds is not None and not slo_seconds > 0:
            raise GatewayError(f"slo_seconds must be positive or None, got {slo_seconds!r}")
        self.cloud = cloud
        self.host = host
        self.port = port
        self.token = token
        self.channel = NetworkChannel()
        self.obs = obs if obs is not None else Observability()
        self.traces = traces
        if slo_seconds is not None and not self.obs.enabled:
            raise GatewayError(
                "slo_seconds needs an enabled obs: the latency window "
                "observes request spans, and a disabled scope has none"
            )
        self.window = SlidingWindow(capacity=1024)
        shed_probe = None
        if slo_seconds is not None:
            shed_probe = self.window.shed_probe(
                slo_seconds, quantile=SLO_QUANTILE, min_count=MIN_WINDOW_COUNT
            )
        # validates max_inflight before the window's gauges are registered
        self.admission = AdmissionController(max_inflight, shed_probe)
        if self.obs.enabled:
            self.window.register(
                self.obs.metrics,
                names.W_GATEWAY_WINDOW,
                help="Admitted gateway request seconds over the SLO window.",
            )
        self.coalescer = QueryCoalescer()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started: threading.Event | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryGateway":
        """Bind and serve on a background thread; returns once listening."""
        if self._thread is not None:
            raise GatewayError("gateway already started")
        self._startup_error = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise GatewayError(f"gateway failed to start: {error}") from error
        return self

    def stop(self) -> None:
        """Shut the server down and join the loop thread (idempotent)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._loop = None
        self._shutdown = None

    def __enter__(self) -> "QueryGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        assert self._started is not None
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            current = asyncio.current_task()
            pending = [
                task for task in asyncio.all_tasks() if task is not current
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, bytes]:
        header = await reader.readexactly(FRAME_HEADER.size)
        kind, length = decode_frame_header(header)
        payload = await reader.readexactly(length) if length else b""
        return kind, payload

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # shutdown path: _main cancels live connection handlers;
            # finishing quietly (instead of ending *cancelled*) keeps
            # asyncio's stream bookkeeping from logging a spurious
            # error for every open connection.
            pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: set[asyncio.Task[None]] = set()
        try:
            conn = await self._handshake(reader, writer)
            if conn is None:
                return
            while True:
                try:
                    kind, payload = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ProtocolError as exc:
                    # broken framing: one typed reject, then hang up —
                    # the byte stream can no longer be trusted.
                    await conn.send(
                        "reject",
                        encode_gateway_reject("", "bad_request", str(exc)),
                    )
                    break
                if kind == "bye":
                    break
                if kind != "request":
                    await conn.send(
                        "reject",
                        encode_gateway_reject(
                            "", "bad_request", f"unexpected {kind} frame"
                        ),
                    )
                    continue
                try:
                    request_id, queries, context = decode_gateway_request(
                        payload
                    )
                except ProtocolError as exc:
                    await conn.send(
                        "reject",
                        encode_gateway_reject("", "bad_request", str(exc)),
                    )
                    continue
                verdict = self._accept(conn, request_id, queries)
                task = asyncio.create_task(
                    self._serve_request(
                        conn, request_id, queries, payload, context, verdict
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> _Connection | None:
        try:
            kind, payload = await self._read_frame(reader)
            if kind != "hello":
                raise ProtocolError(f"expected hello frame, got {kind!r}")
            client_id, token = decode_gateway_hello(payload)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except ProtocolError as exc:
            writer.write(
                encode_frame(
                    "reject",
                    encode_gateway_reject("", "bad_request", str(exc)),
                )
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return None
        conn = _Connection(client_id, token, writer)
        await conn.send("hello", encode_gateway_hello("gateway"))
        return conn

    # ------------------------------------------------------------------
    # request serving
    # ------------------------------------------------------------------
    def _accept(
        self,
        conn: _Connection,
        request_id: str,
        queries: Sequence[AttributedGraph],
    ) -> tuple[GatewayRejected | None, Lease | None]:
        """Read-time checks: the token, admission, the coalescing lease.

        Run as the frame is read, so ``max_inflight`` counts queued
        requests too and identical requests read together share a
        lease.  A refusal carries only a code and a constant reason
        (for ``internal``, the exception's type name).
        """
        if self.token is not None and not hmac.compare_digest(
            conn.token.encode("utf-8"), self.token.encode("utf-8")
        ):
            return GatewayRejected("unauthorized", "invalid token", request_id), None
        try:
            self.admission.admit(request_id)
        except GatewayRejected as exc:
            return exc, None
        try:
            key = coalesce_key(queries)
        except Exception as exc:  # noqa: BLE001 - refuse, never collapse
            # a frame can decode yet carry labels no canonical order
            # sorts; R6: only the exception type crosses the wire
            self.admission.release()
            return GatewayRejected("internal", type(exc).__name__, request_id), None
        leader, future = self.coalescer.lease(key)
        return None, (key, leader, future)

    async def _serve_request(
        self,
        conn: _Connection,
        request_id: str,
        queries: list[AttributedGraph],
        payload: bytes,
        context: TraceContext | None,
        verdict: tuple[GatewayRejected | None, Lease | None],
    ) -> None:
        # a propagated context re-uses the client's query id so every
        # gateway/cloud/shard span of this request is correlatable with
        # the client's root span; pre-context clients get a fresh id.
        scope = self.obs.for_query(
            context.query_id if context is not None and context.query_id else None
        )
        tracer = scope.tracer
        rejection, lease = verdict
        answers: list[AnswerEntry] = []

        with tracer.span(names.GATEWAY_REQUEST) as root:
            root.set(
                client_id=conn.client_id,
                request_id=request_id,
                queries=len(queries),
            )
            if context is not None:
                # the caller's parent id is recorded as data, never
                # adopted as a literal parent_id — this tracer's own
                # ids live in a different space; the client re-roots
                # the returned trace via Tracer.absorb.
                root.set(ctx_parent=context.parent_span_id)
            self.channel.transmit("gateway_query", payload, obs=scope)
            if lease is not None:
                try:
                    answers = await self._dispatch(lease, queries, scope)
                except GatewayRejected as exc:
                    rejection = exc
                except Exception as exc:  # noqa: BLE001 - shed, never collapse
                    # R6: only the exception *type* crosses the wire.
                    # str(exc) can embed internal state (file paths,
                    # label values, config) the remote client must
                    # never see; the full text stays in local logs via
                    # the span/metrics pipeline.
                    rejection = GatewayRejected(
                        "internal", type(exc).__name__, request_id
                    )
                finally:
                    self.admission.release()

            if rejection is None:
                try:
                    answer_payload = encode_gateway_answer(
                        request_id,
                        answers,
                        trace=self._return_trace(context, scope, root),
                    )
                except Exception as exc:  # noqa: BLE001 - e.g. past the frame cap
                    rejection = GatewayRejected(
                        "internal", type(exc).__name__, request_id
                    )
            if rejection is None:
                status = "ok"
                self.channel.transmit(
                    "gateway_answer", answer_payload, obs=scope
                )
                await conn.send("answer", answer_payload)
            else:
                status = rejection.code
                await conn.send(
                    "reject",
                    encode_gateway_reject(
                        request_id, rejection.code, rejection.reason
                    ),
                )
            root.set(status=status)

        if self.traces is not None and tracer.enabled:
            self.traces.push(
                tracer.take_trace(),
                query_id=scope.query_id,
                client_id=conn.client_id,
                status=status,
            )
        scope.metrics.counter(
            names.M_GATEWAY_REQUESTS,
            help="Gateway requests by final status.",
        ).inc(status=status)
        if rejection is not None and rejection.code in SHED_CODES:
            scope.metrics.counter(
                names.M_GATEWAY_SHED,
                help="Requests shed by admission control, by reason.",
            ).inc(reason=rejection.code)
        if rejection is None and scope.enabled:
            self.window.observe(root.duration)

    def _return_trace(
        self,
        context: TraceContext | None,
        scope: Observability,
        root: Span | NullSpan,
    ) -> "Trace | None":
        """The gateway-side trace to ship back, or ``None``.

        Only requests that propagated a sampled context get one.  The
        request root span is still open while the answer is encoded, so
        a snapshot of it (duration as of now) is appended; the client
        replaces nothing — it re-roots the whole remote trace under its
        own submit span.  The serialized size is capped (the trace is
        dropped, never the answer) and byte-accounted.
        """
        tracer = scope.tracer
        if context is None or not context.sampled or not tracer.enabled:
            return None
        trace = tracer.trace()
        if isinstance(root, Span):
            trace.spans.append(tracer.snapshot(root))
        doc_bytes = len(
            json.dumps(trace.to_dict(), separators=(",", ":")).encode("utf-8")
        )
        if doc_bytes > MAX_TRACE_PAYLOAD:
            return None
        scope.metrics.counter(
            names.M_TRACE_BYTES,
            help="Serialized trace bytes returned on answer frames.",
        ).inc(doc_bytes, direction="gateway_answer")
        return trace

    async def _dispatch(
        self,
        lease: Lease,
        queries: Sequence[AttributedGraph],
        scope: Observability,
    ) -> list[AnswerEntry]:
        """Compute on the loop as the leader, or await the leader's answer."""
        key, leader, future = lease
        if not leader:
            scope.metrics.counter(
                names.M_GATEWAY_COALESCED,
                help="Requests that shared another request's computation.",
            ).inc()
            return await future
        # one yield: the requests read in the same batch open their
        # request spans (their queueing time) before this one computes
        await asyncio.sleep(0)
        try:
            with scope.tracer.span(names.GATEWAY_DISPATCH) as span:
                result = self._answer_all(queries, scope)
                span.set(
                    queries=len(queries),
                    rows=sum(len(table) for table, _, _ in result),
                )
        except BaseException as exc:
            future.set_exception(exc)
            # retrieved here: followers re-raise it, and with none asyncio
            # would log it as never retrieved
            future.exception()
            raise
        else:
            future.set_result(result)
        finally:
            self.coalescer.complete(key)
        return result

    def _answer_all(
        self, queries: Sequence[AttributedGraph], scope: Observability
    ) -> list[AnswerEntry]:
        """The bit-identical core: one cloud answer per query."""
        out: list[AnswerEntry] = []
        for query in queries:
            answer = self.cloud.answer(query, obs=scope)
            out.append((answer.table, sorted(query.vertex_ids()), answer.expanded))
        return out


__all__ = ["QueryGateway", "SHED_CODES"]
