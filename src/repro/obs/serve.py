"""Serving-grade telemetry exposition over HTTP (stdlib only).

A long-lived ``repro serve`` process must be observable from the
outside: a Prometheus scraper pulls ``/metrics``, an orchestrator
probes ``/healthz`` (liveness) and ``/readyz`` (readiness — flips true
once the deployment is published and the index is built), and an
operator tails ``/traces`` for the last N query traces as JSON.

:class:`TelemetryServer` wraps a :class:`http.server.ThreadingHTTPServer`
running on a daemon thread.  Everything it serves is computed at
request time from the live :class:`~repro.obs.registry.MetricsRegistry`
(including the pull-style callbacks of the gateway's
:mod:`repro.obs.windows` window), so the query hot path never notices a
scrape.

Endpoints
---------
``GET /metrics``
    :func:`~repro.obs.exporters.prometheus_text` of the registry —
    every line matches ``PROM_LINE_RE``.
``GET /healthz``
    Liveness JSON: ``{"status": "ok", "uptime_seconds": ...,
    "queries_total": ...}`` (registry-backed) plus any extras from the
    ``health`` callable.
``GET /readyz``
    ``200 {"ready": true}`` once the ``ready`` callable reports the
    deployment published; ``503`` before that.
``GET /traces``
    The :class:`TraceRing` contents: the last N recorded query traces
    (query id, totals, spans) as one JSON document.
``GET /traces/<query_id>``
    The newest retained trace for one query id; ``404`` with a JSON
    error body when the ring holds no trace for that id.

The trace document is the one record of a finished query or gateway
request: a ring built with ``log=path`` (``repro serve --events``) also
appends every document it retains to that file as one JSON line, so a
log line and the ``/traces/<query_id>`` response are the same text.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Any, Callable

from repro.obs import names
from repro.obs.exporters import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Trace

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
DEFAULT_TRACE_RING_CAPACITY = 64


def _dumps(doc: dict[str, Any]) -> str:
    """The one JSON encoding of a document, on ``/traces`` and in the log."""
    return json.dumps(doc, sort_keys=True, default=str)


class TraceRing:
    """Thread-safe ring buffer of the last N query traces (as dicts).

    With ``log`` set, every pushed document is also appended to that
    file (opened in append mode, parents created) as one JSON line and
    flushed, so the log can be tailed; :meth:`close` closes it.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_RING_CAPACITY,
        *,
        log: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity)  #: guarded by _lock
        self._pushed = 0  #: guarded by _lock
        self._lock = threading.Lock()
        self._log: IO[str] | None = None  #: guarded by _lock
        if log is not None:
            path = Path(log)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._log = path.open("a", encoding="utf-8")

    def push(
        self,
        trace: Trace | None,
        query_id: str = "",
        **summary: Any,
    ) -> None:
        """Retain one query's trace (drops the oldest past capacity)."""
        doc: dict[str, Any] = {
            "query_id": query_id,
            "recorded_at": time.time(),
        }
        doc.update(summary)
        if trace is not None:
            doc["total_seconds"] = trace.total_seconds
            doc["spans"] = [span.to_dict() for span in trace]
        else:
            doc["spans"] = []
        with self._lock:
            self._entries.append(doc)
            self._pushed += 1
            if self._log is not None:
                self._log.write(_dumps(doc) + "\n")
                self._log.flush()

    def close(self) -> None:
        """Close the log file, if any (idempotent); the ring stays readable."""
        with self._lock:
            log, self._log = self._log, None
        if log is not None:
            log.close()

    def snapshot(self) -> list[dict[str, Any]]:
        """Oldest-to-newest copies of the retained trace documents."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def find(self, query_id: str) -> dict[str, Any] | None:
        """The newest retained trace for ``query_id`` (else ``None``).

        Newest wins: a re-submitted query id (e.g. a retry) shadows the
        earlier recording, matching what an operator debugging "what
        just happened to query X" wants to see.
        """
        with self._lock:
            for entry in reversed(self._entries):
                if entry.get("query_id") == query_id:
                    return dict(entry)
        return None

    @property
    def pushed(self) -> int:
        """Lifetime pushes, including traces already evicted."""
        with self._lock:
            return self._pushed

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes one GET to the owning :class:`TelemetryServer`."""

    server_version = "repro-telemetry/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return None  # scrapes must not spam the serving process's stderr

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc: dict[str, Any]) -> None:
        self._send(
            status, _dumps(doc).encode("utf-8"), "application/json; charset=utf-8"
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = prometheus_text(telemetry.registry).encode("utf-8")
                self._send(200, body, PROM_CONTENT_TYPE)
            elif path == "/healthz":
                self._send_json(200, telemetry.health_doc())
            elif path == "/readyz":
                ready = telemetry.is_ready()
                self._send_json(200 if ready else 503, {"ready": ready})
            elif path == "/traces":
                traces = telemetry.traces.snapshot()
                self._send_json(
                    200, {"count": len(traces), "traces": traces}
                )
            elif path.startswith("/traces/"):
                query_id = path[len("/traces/"):]
                entry = telemetry.traces.find(query_id)
                if entry is None:
                    self._send_json(
                        404,
                        {
                            "error": f"no retained trace for query {query_id!r}",
                            "query_id": query_id,
                            "retained": len(telemetry.traces),
                        },
                    )
                else:
                    self._send_json(200, entry)
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass


class TelemetryServer:
    """The exposition endpoint: bind, serve on a daemon thread, stop.

    Parameters
    ----------
    registry:
        The live metrics registry ``/metrics`` renders.
    ready:
        Zero-argument callable for ``/readyz``; defaults to
        always-ready.  ``repro serve`` passes a closure that flips
        true once the deployment is loaded and the index is built.
    health:
        Optional callable returning extra ``/healthz`` fields.
    traces:
        The :class:`TraceRing` behind ``/traces`` (a fresh default
        ring when omitted).
    host / port:
        Bind address.  ``port=0`` asks the OS for a free port; read
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        ready: Callable[[], bool] | None = None,
        health: Callable[[], dict[str, Any]] | None = None,
        traces: TraceRing | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.traces = traces if traces is not None else TraceRing()
        self._ready = ready
        self._health = health
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = time.time()

    # -- state the handler reads ---------------------------------------
    def is_ready(self) -> bool:
        if self._ready is None:
            return True
        try:
            return bool(self._ready())
        except Exception:  # pragma: no cover - defensive
            return False

    def health_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
        }
        counter = self.registry.get(names.M_QUERIES)
        if counter is not None:
            doc[names.M_QUERIES] = counter.total  # type: ignore[union-attr]
        if self._health is not None:
            try:
                doc.update(self._health())
            except Exception:  # pragma: no cover - defensive
                doc["status"] = "degraded"
        return doc

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "TelemetryServer":
        """Bind and serve on a daemon thread; idempotent."""
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _TelemetryHandler
        )
        httpd.daemon_threads = True
        httpd.telemetry = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the endpoint down (idempotent; joins the thread)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
