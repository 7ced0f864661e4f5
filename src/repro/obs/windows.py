"""Sliding-window SLO views: ring-buffer quantiles and rates.

The cumulative histograms of :mod:`repro.obs.registry` answer "what
happened since the process started"; admission control needs "what is
happening *now*": p50/p95/p99 latency and request rate over the last N
observations.  A :class:`SlidingWindow` is a bounded ring buffer of
``(timestamp, value)`` pairs that computes those views on demand, so
the observe path stays one deque append under a lock.  The gateway
keeps one (:class:`repro.gateway.QueryGateway` sheds off it).

Windows plug into a :class:`~repro.obs.registry.MetricsRegistry` as
**pull callbacks** (:meth:`SlidingWindow.register`): the quantiles are
computed at scrape/snapshot time only, and therefore show up on the
``/metrics`` endpoint of :mod:`repro.obs.serve` for free.

Quantiles use the *inclusive* method (linear interpolation between
closest ranks, ``h = (n-1) q``) — identical to
``statistics.quantiles(data, method="inclusive")``, which the property
tests pin down.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable

from repro.obs.registry import MetricsRegistry

#: The standard SLO quantiles exported by :meth:`SlidingWindow.register`.
SLO_QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))


def quantile_inclusive(data: list[float], q: float) -> float:
    """The ``q``-quantile of ``data`` by the inclusive (R-7) method.

    Matches ``statistics.quantiles(data, n=..., method="inclusive")``
    cut points: sort, take ``h = (len-1) * q`` and interpolate
    linearly between ``data[floor(h)]`` and ``data[ceil(h)]``.
    Returns ``0.0`` for empty data.
    """
    if not data:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q!r}")
    ordered = sorted(data)
    if len(ordered) == 1:
        return float(ordered[0])
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    lower = float(ordered[lo])
    if lo == hi:
        return lower
    return lower + (float(ordered[hi]) - lower) * (h - lo)


class SlidingWindow:
    """Bounded ring of timestamped observations with SLO views.

    ``capacity`` is the maximum retained observations; the oldest fall
    off first.  Timestamps come from ``time.monotonic``.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[tuple[float, float]] = deque(maxlen=capacity)  #: guarded by _lock
        self._lock = threading.Lock()

    # -- observe --------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (one append; O(1))."""
        ts = time.monotonic()
        with self._lock:
            self._entries.append((ts, float(value)))

    # -- views ----------------------------------------------------------
    def _current(self) -> list[tuple[float, float]]:
        with self._lock:
            return list(self._entries)

    def values(self) -> list[float]:
        return [value for _, value in self._current()]

    def count(self) -> int:
        """Observations currently inside the window."""
        return len(self)

    def quantile(self, q: float) -> float:
        return quantile_inclusive(self.values(), q)

    def rate(self) -> float:
        """Observations per second over the observed span.

        The count over newest - oldest timestamp; 0.0 when fewer than
        two observations exist.
        """
        entries = self._current()
        if len(entries) < 2:
            return 0.0
        spread = entries[-1][0] - entries[0][0]
        return len(entries) / spread if spread > 0 else 0.0

    # -- SLO breach probing ---------------------------------------------
    def breached(
        self, threshold: float, quantile: float = 0.99, min_count: int = 1
    ) -> bool:
        """True when the windowed ``quantile`` exceeds ``threshold``.

        The admission-control primitive: an SLO of "p99 under 250 ms"
        is ``breached(0.25, quantile=0.99)``.  ``min_count`` guards the
        cold start — with fewer in-window observations than that the
        window has no statistical opinion and reports no breach, so a
        freshly started server never sheds its first requests.
        """
        values = self.values()
        if len(values) < max(1, min_count):
            return False
        return quantile_inclusive(values, quantile) > threshold

    def shed_probe(
        self, threshold: float, quantile: float = 0.99, min_count: int = 1
    ) -> Callable[[], bool]:
        """A zero-argument :meth:`breached` closure for load shedders.

        Handed to admission controllers (e.g.
        :class:`repro.gateway.AdmissionController`) so the shed
        decision stays driven by this live window without the
        controller holding a window reference itself.
        """

        def probe() -> bool:
            return self.breached(
                threshold, quantile=quantile, min_count=min_count
            )

        return probe

    # -- registry integration -------------------------------------------
    def register(
        self, registry: MetricsRegistry, prefix: str, help: str = ""
    ) -> None:
        """Expose the window as pull gauges ``{prefix}_{p50,p95,p99,rate,count}``.

        Evaluated at snapshot/scrape time only; the observe path is
        untouched.  A :class:`~repro.obs.registry.NullRegistry` ignores
        the registration entirely.
        """
        what = help or prefix
        for suffix, q in SLO_QUANTILES:
            registry.register_callback(
                f"{prefix}_{suffix}",
                (lambda q=q: self.quantile(q)),
                help=f"{what} — sliding-window {suffix}.",
            )
        registry.register_callback(
            f"{prefix}_rate",
            self.rate,
            help=f"{what} — observations/second over the window.",
        )
        registry.register_callback(
            f"{prefix}_count",
            (lambda: float(self.count())),
            help=f"{what} — observations inside the window.",
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
