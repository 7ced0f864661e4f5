"""Sliding-window SLO views: ring-buffer quantiles and rates.

The cumulative histograms of :mod:`repro.obs.registry` answer "what
happened since the process started"; a serving system also needs
"what is happening *now*": p50/p95/p99 latency and request rate over
the last N observations (optionally time-bounded).  A
:class:`SlidingWindow` is a bounded ring buffer of ``(timestamp,
value)`` pairs that computes those views on demand, so the observe
path stays one deque append under a lock.

Windows plug into a :class:`~repro.obs.registry.MetricsRegistry` as
**pull callbacks** (:meth:`SlidingWindow.register`): the quantiles are
computed at scrape/snapshot time only, and therefore show up on the
``/metrics`` endpoint of :mod:`repro.obs.serve` for free.

Quantiles use the *inclusive* method (linear interpolation between
closest ranks, ``h = (n-1) q``) — identical to
``statistics.quantiles(data, method="inclusive")``, which the property
tests pin down.

Windows are picklable (the lock is dropped and re-created) and
mergeable: a forked batch observes into per-child
windows whose merged union is exactly the window a shared-memory run
would have produced.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable

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

    Parameters
    ----------
    capacity:
        Maximum retained observations; the oldest fall off first.
    window_seconds:
        Optional time bound: observations older than this are excluded
        from every view (and pruned on the way).  ``None`` keeps the
        window purely count-bounded.
    clock:
        Timestamp source (``time.monotonic`` by default; injectable
        for tests).
    """

    def __init__(
        self,
        capacity: int = 1024,
        window_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive or None")
        self.capacity = capacity
        self.window_seconds = window_seconds
        self._clock = clock
        self._entries: deque[tuple[float, float]] = deque(maxlen=capacity)  #: guarded by _lock
        #: guarded by _lock
        self._total = 0  # lifetime observation count (survives eviction)
        self._lock = threading.Lock()

    # -- observe --------------------------------------------------------
    def observe(self, value: float, now: float | None = None) -> None:
        """Record one observation (one append; O(1))."""
        ts = self._clock() if now is None else now
        with self._lock:
            self._entries.append((ts, float(value)))
            self._total += 1

    # -- views ----------------------------------------------------------
    def _current(self, now: float | None = None) -> list[tuple[float, float]]:
        """The in-window entries, pruning expired ones under the lock."""
        with self._lock:
            if self.window_seconds is not None:
                ts = self._clock() if now is None else now
                floor = ts - self.window_seconds
                while self._entries and self._entries[0][0] < floor:
                    self._entries.popleft()
            return list(self._entries)

    def values(self, now: float | None = None) -> list[float]:
        return [value for _, value in self._current(now)]

    def count(self, now: float | None = None) -> int:
        """Observations currently inside the window."""
        return len(self._current(now))

    @property
    def total_observations(self) -> int:
        """Lifetime observations, including those evicted from the ring."""
        with self._lock:
            return self._total

    def mean(self, now: float | None = None) -> float:
        values = self.values(now)
        return sum(values) / len(values) if values else 0.0

    def quantile(self, q: float, now: float | None = None) -> float:
        return quantile_inclusive(self.values(now), q)

    def p50(self, now: float | None = None) -> float:
        return self.quantile(0.5, now)

    def p95(self, now: float | None = None) -> float:
        return self.quantile(0.95, now)

    def p99(self, now: float | None = None) -> float:
        return self.quantile(0.99, now)

    def rate(self, now: float | None = None) -> float:
        """Observations per second over the (time or observed) window.

        With ``window_seconds`` set this is ``count / window_seconds``
        — the steady-state arrival rate.  Without it, the count over
        the observed span (newest - oldest timestamp); 0.0 when fewer
        than two observations exist.
        """
        entries = self._current(now)
        if self.window_seconds is not None:
            return len(entries) / self.window_seconds
        if len(entries) < 2:
            return 0.0
        spread = entries[-1][0] - entries[0][0]
        return len(entries) / spread if spread > 0 else 0.0

    def snapshot(self, now: float | None = None) -> dict[str, float]:
        """All views at once (one prune pass)."""
        entries = self._current(now)
        values = [value for _, value in entries]
        return {
            "count": float(len(values)),
            "mean": sum(values) / len(values) if values else 0.0,
            "p50": quantile_inclusive(values, 0.5),
            "p95": quantile_inclusive(values, 0.95),
            "p99": quantile_inclusive(values, 0.99),
            "rate": self.rate(now),
        }

    # -- SLO breach probing ---------------------------------------------
    def breached(
        self,
        threshold: float,
        quantile: float = 0.99,
        min_count: int = 1,
        now: float | None = None,
    ) -> bool:
        """True when the windowed ``quantile`` exceeds ``threshold``.

        The admission-control primitive: an SLO of "p99 under 250 ms"
        is ``breached(0.25, quantile=0.99)``.  ``min_count`` guards the
        cold start — with fewer in-window observations than that the
        window has no statistical opinion and reports no breach, so a
        freshly started server never sheds its first requests.
        """
        values = [value for _, value in self._current(now)]
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

    # -- merging / pickling ---------------------------------------------
    def merge(self, other: "SlidingWindow") -> "SlidingWindow":
        """Fold another window's entries into this one (timestamp order).

        The merged ring holds the newest ``capacity`` entries of the
        union — exactly what one shared window observing both streams
        would retain.  Used to combine per-child windows shipped back
        from a forked batch.
        """
        with other._lock:
            theirs = list(other._entries)
            their_total = other._total
        with self._lock:
            merged = sorted(list(self._entries) + theirs)
            self._entries = deque(merged[-self.capacity:], maxlen=self.capacity)
            self._total += their_total
        return self

    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "window_seconds": self.window_seconds,
                "entries": list(self._entries),
                "total": self._total,
            }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.capacity = state["capacity"]
        self.window_seconds = state["window_seconds"]
        self._clock = time.monotonic
        self._entries = deque(state["entries"], maxlen=self.capacity)
        self._total = state["total"]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlidingWindow(capacity={self.capacity}, "
            f"window_seconds={self.window_seconds}, len={len(self)})"
        )
