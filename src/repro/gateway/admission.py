"""Admission control and duplicate-query coalescing for the gateway.

The gateway never queues unboundedly and never collapses under load:
an :class:`AdmissionController`, consulted as each request frame is
read, caps the requests read but not yet answered and — when wired to
a live :class:`~repro.obs.windows.SlidingWindow` through
:meth:`~repro.obs.windows.SlidingWindow.shed_probe` — sheds new work
while the admitted-traffic tail latency breaches the SLO and another
request is still pending.  Every refusal is a typed
:class:`~repro.exceptions.GatewayRejected` (code ``"overloaded"``)
that the server turns into a reject frame; admitted requests are
unaffected.

The :class:`QueryCoalescer` deduplicates identical queued work: two
requests carrying structurally identical query workloads, read before
the first starts computing, share one cloud computation, so a
thundering herd of one hot query costs one star-matching pass.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Sequence

from repro.exceptions import GatewayError, GatewayRejected
from repro.graph.attributed import AttributedGraph, VertexData

#: The latency quantile ``slo_seconds`` bounds on admitted requests.
SLO_QUANTILE = 0.99
#: Admitted requests the window must hold before it may shed: a cold
#: window has no statistically meaningful tail.
MIN_WINDOW_COUNT = 32


class AdmissionController:
    """Bounded admission: one concurrency cap + SLO-driven load shedding.

    ``shed_probe`` is a zero-argument callable (typically
    ``window.shed_probe(slo_seconds, ...)``) evaluated on an admission
    attempt while an admitted request is still pending; ``True``
    refuses with code ``"overloaded"``, as does a full budget of
    ``max_inflight`` requests.  An idle controller always admits: only
    admitted requests feed the window, so shedding on an idle gateway
    would never let a breached window refresh.  :meth:`admit` either
    raises :class:`GatewayRejected` or reserves a slot the caller must
    give back via :meth:`release` (the gateway does, in a ``finally``,
    once the request is computed).
    """

    def __init__(
        self,
        max_inflight: int = 64,
        shed_probe: Callable[[], bool] | None = None,
    ) -> None:
        if max_inflight < 1:
            raise GatewayError(f"max_inflight must be >= 1, got {max_inflight!r}")
        self.max_inflight = max_inflight
        self.shed_probe = shed_probe
        self._inflight = 0  #: guarded by _lock
        self._lock = threading.Lock()

    def admit(self, request_id: str = "") -> None:
        """Reserve one slot or raise ``GatewayRejected``."""
        with self._lock:
            if self._inflight and self.shed_probe is not None and self.shed_probe():
                raise GatewayRejected(
                    "overloaded",
                    f"tail latency over the p{int(SLO_QUANTILE * 100)} SLO; "
                    "shedding new work",
                    request_id,
                )
            if self._inflight >= self.max_inflight:
                raise GatewayRejected(
                    "overloaded",
                    f"global concurrency budget of {self.max_inflight} "
                    "requests is full",
                    request_id,
                )
            self._inflight += 1

    def release(self) -> None:
        """Give back a slot reserved by :meth:`admit`."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def inflight(self) -> int:
        with self._lock:
            return self._inflight


# ----------------------------------------------------------------------
# duplicate-query coalescing
# ----------------------------------------------------------------------
def vertex_constraint(vertex: VertexData) -> tuple:
    """Canonical form of one query vertex's matching constraint:
    ``(type, ((attr, (group, ...)), ...))``."""
    labels = tuple(
        (attr, tuple(sorted(values))) for attr, values in sorted(vertex.labels.items())
    )
    return (vertex.vertex_type, labels)


def query_signature(query: AttributedGraph) -> tuple:
    """Canonical structural signature of one anonymized query.

    Every vertex's constraint (:func:`vertex_constraint`) plus the
    edge set, so two requests coalesce exactly when the cloud would
    compute identical answers for them.
    """
    vertices = tuple(
        (vid, vertex_constraint(query.vertex(vid)))
        for vid in sorted(query.vertex_ids())
    )
    edges = tuple(sorted(tuple(sorted(edge)) for edge in query.edges()))
    return (vertices, edges)


def coalesce_key(queries: Sequence[AttributedGraph]) -> tuple:
    """The in-flight dedup key for a whole request workload."""
    return tuple(query_signature(query) for query in queries)


class QueryCoalescer:
    """Share one queued computation among identical requests.

    The first requester of a key becomes the *leader* (it computes and
    must call :meth:`complete`); later requesters of the same key are
    *followers* and await the leader's future.  Keys are retired on
    completion, so a later identical request computes afresh — the
    coalescer is a thundering-herd guard, not a result cache.

    Loop-confined: every call runs on the one event-loop thread that
    owns the futures, so nothing here takes a lock.
    """

    def __init__(self) -> None:
        self._inflight: dict[tuple, asyncio.Future[Any]] = {}

    def lease(self, key: tuple) -> tuple[bool, asyncio.Future[Any]]:
        """Return ``(leader, future)`` for ``key`` (inside a running loop)."""
        existing = self._inflight.get(key)
        if existing is not None:
            return False, existing
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return True, future

    def complete(self, key: tuple) -> None:
        """Retire ``key`` (leader-only, after resolving its future)."""
        self._inflight.pop(key, None)

    def inflight_count(self) -> int:
        return len(self._inflight)


__all__ = [
    "SLO_QUANTILE",
    "MIN_WINDOW_COUNT",
    "AdmissionController",
    "QueryCoalescer",
    "query_signature",
    "coalesce_key",
]
