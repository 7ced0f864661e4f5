"""The asyncio serving gateway: frames in, admitted work out.

:class:`QueryGateway` listens on a TCP socket (``asyncio.start_server``
on a dedicated background thread), speaks the length-prefixed frame
envelope of :mod:`repro.core.protocol`, and dispatches anonymized
queries into a :class:`~repro.cloud.server.CloudServer` (single or
sharded) through a bounded thread pool.  Per request it runs, in order:

1. the middleware chain's ``on_request`` hooks (auth, rate limit,
   privacy budget — any may refuse),
2. admission control (global + per-client concurrency caps, SLO-driven
   load shedding off the live ``gateway_seconds_window`` gauges),
3. duplicate-query coalescing (identical in-flight workloads share one
   cloud computation),
4. the cloud computation itself on a pool worker, then the answer
   frame; every refusal ships as a typed reject frame instead — the
   gateway degrades by shedding, never by collapsing.

Each connection transmits on its own
:meth:`~repro.core.protocol.NetworkChannel.scope` child channel, so
concurrent sessions get isolated byte accounting that still rolls up
into the deployment's channel totals on disconnect.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

from repro.cloud.parallel import DEFAULT_MAX_WORKERS
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
    AdmissionController,
    AdmissionPolicy,
    QueryCoalescer,
    coalesce_key,
)
from repro.gateway.middleware import (
    GatewayRequest,
    GatewayResponse,
    Middleware,
    MiddlewareChain,
)
from repro.graph.attributed import AttributedGraph
from repro.matching.table import MatchTable
from repro.obs import Observability, SlidingWindow, TraceRing, names
from repro.obs.tracing import NullSpan, Span, Trace

#: Reject codes counted as *load shedding* (``gateway_shed_total``);
#: other rejections (auth, rate limit, budget, bad frames) are policy.
SHED_CODES = ("overloaded", "queue_full")

#: One answer entry: the result table, its column order, and whether
#: the rows are already expanded through the AVT.
AnswerEntry = tuple[MatchTable, list[int], bool]


class _Connection:
    """Per-connection state: identity, write lock, scoped channel."""

    def __init__(
        self,
        client_id: str,
        token: str,
        channel: NetworkChannel,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.client_id = client_id
        self.token = token
        self.channel = channel
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
    middlewares:
        The request/response chain, outermost first.
    policy:
        Admission knobs; ``policy.slo_seconds`` arms latency shedding
        off the gateway's own sliding window.
    workers:
        Dispatch pool size (bounds concurrent cloud computations).
    expansion_site:
        ``"cloud"`` expands ``Rin`` through the AVT before framing the
        answer (mirrors ``SystemConfig.expansion_site``); ``"client"``
        ships ``Rin`` as-is.
    channel:
        The deployment's byte-accounting channel; each connection
        transmits on a :meth:`~NetworkChannel.scope` child of it.
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
        middlewares: Iterable[Middleware] = (),
        policy: AdmissionPolicy | None = None,
        workers: int | None = None,
        expansion_site: str = "client",
        channel: NetworkChannel | None = None,
        obs: Observability | None = None,
        traces: TraceRing | None = None,
    ) -> None:
        if expansion_site not in ("client", "cloud"):
            raise GatewayError(
                f"expansion_site must be 'client' or 'cloud', "
                f"got {expansion_site!r}"
            )
        self.cloud = cloud
        self.host = host
        self.port = port
        self.expansion_site = expansion_site
        self.channel = channel if channel is not None else NetworkChannel()
        self.obs = obs if obs is not None else Observability()
        self.traces = traces
        self.middleware = MiddlewareChain(middlewares)
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.window = SlidingWindow(capacity=1024)
        if self.obs.enabled:
            self.window.register(
                self.obs.metrics,
                names.W_GATEWAY_WINDOW,
                help="Admitted gateway request seconds over the SLO window.",
            )
        shed_probe = None
        if self.policy.slo_seconds is not None:
            shed_probe = self.window.shed_probe(
                self.policy.slo_seconds,
                quantile=self.policy.slo_quantile,
                min_count=self.policy.min_window_count,
            )
        self.admission = AdmissionController(self.policy, shed_probe)
        self.coalescer = QueryCoalescer()
        self._workers = workers if workers is not None else DEFAULT_MAX_WORKERS
        self._pool: ThreadPoolExecutor | None = None
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
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-gateway"
        )
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
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
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
        conn_channel = self.channel.scope()
        tasks: set[asyncio.Task[None]] = set()
        try:
            conn = await self._handshake(reader, writer, conn_channel)
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
                task = asyncio.create_task(
                    self._serve_request(
                        conn, request_id, queries, payload, context
                    )
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            conn_channel.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn_channel: NetworkChannel,
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
        conn = _Connection(client_id, token, conn_channel, writer)
        await conn.send("hello", encode_gateway_hello("gateway"))
        return conn

    # ------------------------------------------------------------------
    # request serving
    # ------------------------------------------------------------------
    async def _serve_request(
        self,
        conn: _Connection,
        request_id: str,
        queries: list[AttributedGraph],
        payload: bytes,
        context: TraceContext | None = None,
    ) -> None:
        # a propagated context re-uses the client's query id so every
        # gateway/cloud/shard span of this request is correlatable with
        # the client's root span; pre-context clients get a fresh id.
        scope = self.obs.for_query(
            context.query_id if context is not None and context.query_id else None
        )
        tracer = scope.tracer
        request = GatewayRequest(
            client_id=conn.client_id,
            request_id=request_id,
            queries=queries,
            token=conn.token,
        )
        rejection: GatewayRejected | None = None
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
            conn.channel.transmit("gateway_query", payload, obs=scope)
            entered, rejection = self.middleware.before(request)
            admitted = False
            if rejection is None:
                try:
                    self.admission.admit(conn.client_id, request_id)
                    admitted = True
                except GatewayRejected as exc:
                    rejection = exc
            if rejection is None:
                try:
                    answers = await self._dispatch(queries, scope, root)
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
                    if admitted:
                        self.admission.release(conn.client_id)

            if rejection is None:
                response = GatewayResponse.ok(len(answers))
                return_trace = self._return_trace(context, scope, root)
                answer_payload = encode_gateway_answer(
                    request_id, answers, trace=return_trace
                )
                conn.channel.transmit(
                    "gateway_answer", answer_payload, obs=scope
                )
                await conn.send("answer", answer_payload)
            else:
                response = GatewayResponse.from_rejection(rejection)
                await conn.send(
                    "reject",
                    encode_gateway_reject(
                        request_id, rejection.code, rejection.reason
                    ),
                )
            try:
                self.middleware.after(entered, request, response)
            except Exception:  # noqa: BLE001 - audit must not kill the reply
                pass
            root.set(status=response.status)

        if self.traces is not None and tracer.recording:
            self.traces.push(
                tracer.take_trace(),
                query_id=scope.query_id,
                client_id=conn.client_id,
                status=response.status,
            )
        scope.metrics.counter(
            names.M_GATEWAY_REQUESTS,
            help="Gateway requests by final status.",
        ).inc(status=response.status)
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
        if context is None or not context.sampled or not tracer.recording:
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
        queries: Sequence[AttributedGraph],
        scope: Observability,
        root: Span | NullSpan,
    ) -> list[AnswerEntry]:
        """Run the cloud computation on the pool, coalescing duplicates."""
        assert self._pool is not None
        key = coalesce_key(queries)
        leader, future = self.coalescer.lease(key)
        if not leader:
            scope.metrics.counter(
                names.M_GATEWAY_COALESCED,
                help="Requests that shared another request's computation.",
            ).inc()
            return await asyncio.wrap_future(future)

        tracer = scope.tracer

        def compute() -> list[AnswerEntry]:
            # explicit parent: the pool thread has no implicit span
            # stack, but everything the cloud opens below nests under
            # this dispatch span via the worker's own stack.
            with tracer.span(names.GATEWAY_DISPATCH, parent=root) as span:
                result = self._answer_all(queries, scope)
                span.set(
                    queries=len(queries),
                    rows=sum(len(table) for table, _, _ in result),
                )
            return result

        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(self._pool, compute)
        except BaseException as exc:
            future.set_exception(exc)
            self.coalescer.complete(key)
            raise
        future.set_result(result)
        self.coalescer.complete(key)
        return result

    def _answer_all(
        self, queries: Sequence[AttributedGraph], scope: Observability
    ) -> list[AnswerEntry]:
        """The bit-identical core: one cloud answer per query."""
        out: list[AnswerEntry] = []
        for query in queries:
            answer = self.cloud.answer(query, obs=scope)
            order = sorted(query.vertex_ids())
            table, expanded = answer.table, answer.expanded
            if self.expansion_site == "cloud" and not expanded:
                # the same three-step kernel as the client's Rin
                # expansion (known rows -> AVT expansion -> dedupe),
                # via the AVT so the gateway layer never reaches into
                # repro.client (vectorized when the backend allows).
                table = self.cloud.avt.expand_known_table(table)
                expanded = True
            out.append((table, order, expanded))
        return out


__all__ = ["QueryGateway", "SHED_CODES"]
