"""Pluggable request middleware for the serving gateway.

A :class:`Middleware` sees every request before the gateway admits it
(:meth:`Middleware.on_request`) and may raise
:class:`~repro.exceptions.GatewayRejected` to short-circuit the chain:
later middlewares never see the request and the caller receives a typed
reject frame.  What happened to a request — client, request id, query
count, final status — is recorded on its ``gateway.request`` span, so
the gateway's trace document (``/traces`` and the ``serve --events``
log) is its audit record.

Stock middlewares cover the serving concerns the related cloud-service
papers call out: per-client auth tokens, token-bucket rate limiting,
and a per-client privacy budget capping how many anonymized queries one
client may issue against the outsourced graph.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exceptions import GatewayRejected
from repro.graph.attributed import AttributedGraph


@dataclass
class GatewayRequest:
    """One request frame as the middleware chain sees it."""

    client_id: str
    request_id: str
    queries: list[AttributedGraph]
    token: str = ""


class Middleware:
    """Base middleware: override :meth:`on_request`."""

    def on_request(self, request: GatewayRequest) -> None:
        """Inspect/veto ``request``; raise ``GatewayRejected`` to refuse."""


class MiddlewareChain:
    """An ordered middleware stack with short-circuit semantics."""

    def __init__(self, middlewares: Iterable[Middleware] = ()) -> None:
        self.middlewares: tuple[Middleware, ...] = tuple(middlewares)

    def before(self, request: GatewayRequest) -> GatewayRejected | None:
        """Run ``on_request`` hooks in order until one refuses; return
        that rejection (``None`` when every middleware accepted)."""
        for middleware in self.middlewares:
            try:
                middleware.on_request(request)
            except GatewayRejected as rejection:
                return rejection
        return None


# ----------------------------------------------------------------------
# stock middlewares
# ----------------------------------------------------------------------
class AuthTokenMiddleware(Middleware):
    """Refuse requests whose token does not match the expected one.

    ``token`` is a single shared secret; ``tokens`` maps client ids to
    per-client secrets (and implicitly restricts the client roster).
    Pass exactly one of the two.
    """

    def __init__(
        self,
        token: str | None = None,
        tokens: dict[str, str] | None = None,
    ) -> None:
        if (token is None) == (tokens is None):
            raise ValueError("pass exactly one of token= or tokens=")
        self._token = token
        self._tokens = tokens

    def on_request(self, request: GatewayRequest) -> None:
        if self._token is not None:
            expected: str | None = self._token
        else:
            assert self._tokens is not None
            expected = self._tokens.get(request.client_id)
        if expected is None or request.token != expected:
            raise GatewayRejected(
                "unauthorized",
                f"invalid token for client {request.client_id!r}",
                request.request_id,
            )


class RateLimitMiddleware(Middleware):
    """Per-client token bucket: ``rate`` requests/second, ``burst`` deep."""

    def __init__(
        self,
        rate: float,
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, tuple[float, float]] = {}  #: guarded by _lock
        self._lock = threading.Lock()

    def on_request(self, request: GatewayRequest) -> None:
        now = self._clock()
        with self._lock:
            level, last = self._buckets.get(
                request.client_id, (float(self.burst), now)
            )
            level = min(float(self.burst), level + (now - last) * self.rate)
            if level < 1.0:
                self._buckets[request.client_id] = (level, now)
                raise GatewayRejected(
                    "rate_limited",
                    f"client {request.client_id!r} exceeded "
                    f"{self.rate:g} requests/second",
                    request.request_id,
                )
            self._buckets[request.client_id] = (level - 1.0, now)


@dataclass
class _Budget:
    remaining: int


class PrivacyBudgetMiddleware(Middleware):
    """Cap how many queries each client may issue over a deployment.

    Privacy leakage against the outsourced graph compounds with every
    anonymized query a client sends; this middleware enforces a hard
    per-client budget (each request consumes one unit per query it
    carries) and refuses with ``budget_exhausted`` once spent.
    """

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self._spent: dict[str, int] = {}  #: guarded by _lock
        self._lock = threading.Lock()

    def on_request(self, request: GatewayRequest) -> None:
        cost = len(request.queries)
        with self._lock:
            spent = self._spent.get(request.client_id, 0)
            if spent + cost > self.budget:
                raise GatewayRejected(
                    "budget_exhausted",
                    f"client {request.client_id!r} spent {spent} of a "
                    f"{self.budget}-query privacy budget",
                    request.request_id,
                )
            self._spent[request.client_id] = spent + cost

    def remaining(self, client_id: str) -> int:
        with self._lock:
            return self.budget - self._spent.get(client_id, 0)


__all__ = [
    "GatewayRequest",
    "Middleware",
    "MiddlewareChain",
    "AuthTokenMiddleware",
    "RateLimitMiddleware",
    "PrivacyBudgetMiddleware",
]
