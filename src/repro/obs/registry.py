"""Named counters, gauges and histograms with pluggable export.

A :class:`MetricsRegistry` is the process-wide (or system-wide) home
of the quantities the paper's evaluation charts: candidate
counts, false positives filtered, bytes on the wire, intermediate
result peaks.  Metrics support optional label sets (e.g.
``network_bytes_total{direction="answer"}``), are thread-safe, and are
updated only at phase granularity — never inside matching inner loops
— so the serving hot path stays flat.

Pull-style *callbacks* cover values a component already tracks itself
(the audit's live false-positive ratio, the gateway's sliding window):
the callable is evaluated at snapshot/export time and costs nothing in
between.

:class:`NullRegistry` is the no-op twin used by
``Observability.disabled()``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets: exponential, spanning microseconds to
#: minutes for timings and 1..1M for sizes.
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1000.0,
    10000.0,
    100000.0,
    1000000.0,
)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: name, help text, per-label children, one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "help": self.help}


class Counter(_Metric):
    """Monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def present(self, **labels: Any) -> bool:
        """True once the labeled series has been incremented at least once."""
        with self._lock:
            return _label_key(labels) in self._values

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def items(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """A point-in-time value; ``set_max`` tracks peaks (e.g. |join| peak)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def set_max(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            current = self._values.get(key)
            if current is None or value > current:
                self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        """The gauge's value; ``0.0`` when never set.

        Unified with :meth:`Counter.value` (which has always defaulted
        to ``0.0``): callers that must distinguish "never set" from "set
        to zero" ask :meth:`present` explicitly instead of sniffing for
        ``None``.
        """
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def present(self, **labels: Any) -> bool:
        """True once the labeled series has been set at least once."""
        with self._lock:
            return _label_key(labels) in self._values

    def remove(self, **labels: Any) -> bool:
        """Drop one labeled series; True if it existed.

        Gauges with unbounded label values (per-query ids) must evict
        old series or the exposition grows without bound — see the
        privacy audit's cardinality cap.
        """
        with self._lock:
            return self._values.pop(_label_key(labels), None) is not None

    def items(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * len(self.buckets)
                self._counts[key] = counts
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def snapshot_one(self, key: LabelKey) -> dict[str, Any]:
        with self._lock:
            return {
                "buckets": dict(
                    zip([str(b) for b in self.buckets], self._counts.get(key, []))
                ),
                "sum": self._sums.get(key, 0.0),
                "count": self._totals.get(key, 0),
            }

    def keys(self) -> list[LabelKey]:
        with self._lock:
            return sorted(self._counts)

    def count(self, **labels: Any) -> int:
        with self._lock:
            return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: Any) -> float:
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)


class NullMetric:
    """Accepts every update and stores nothing."""

    __slots__ = ()
    name = ""
    help = ""
    kind = "null"
    buckets = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        return None

    def set(self, value: float, **labels: Any) -> None:
        return None

    def set_max(self, value: float, **labels: Any) -> None:
        return None

    def observe(self, value: float, **labels: Any) -> None:
        return None

    def value(self, **labels: Any) -> float:
        return 0.0

    def present(self, **labels: Any) -> bool:
        return False

    def remove(self, **labels: Any) -> bool:
        return False

    @property
    def total(self) -> float:
        return 0.0

    def items(self) -> list:
        return []


NULL_METRIC = NullMetric()


class MetricsRegistry:
    """Get-or-create home for named metrics + pull-style callbacks."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}  #: guarded by _lock
        self._callbacks: dict[str, tuple[Callable[[], float], str]] = {}  #: guarded by _lock
        self._lock = threading.Lock()

    # -- creation -------------------------------------------------------
    def _get_or_create(
        self, name: str, cls: type, factory: Callable[[], _Metric]
    ) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, buckets)
        )

    def register_callback(
        self, name: str, fn: Callable[[], float], help: str = ""
    ) -> None:
        """Register a pull-style gauge evaluated at snapshot time."""
        with self._lock:
            self._callbacks[name] = (fn, help)

    # -- introspection --------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._metrics) | set(self._callbacks))

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def callbacks(self) -> list[tuple[str, float, str]]:
        """Evaluate every callback: ``(name, value, help)`` triples."""
        with self._lock:
            items = list(self._callbacks.items())
        out = []
        for name, (fn, help) in sorted(items):
            try:
                out.append((name, float(fn()), help))
            except Exception:  # pragma: no cover - callback died with owner
                continue
        return out

    def snapshot(self) -> dict[str, Any]:
        """Everything, as a JSON-able dict (used by the JSON exporter)."""
        out: dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": metric.kind,
                    "series": [
                        {"labels": dict(key), **metric.snapshot_one(key)}
                        for key in metric.keys()
                    ],
                }
            else:
                out[metric.name] = {
                    "kind": metric.kind,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in metric.items()
                    ],
                }
        for name, value, _help in self.callbacks():
            out[name] = {
                "kind": "gauge",
                "series": [{"labels": {}, "value": value}],
            }
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._callbacks.clear()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every handle is the shared null metric."""

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "") -> NullMetric:  # type: ignore[override]
        return NULL_METRIC

    def gauge(self, name: str, help: str = "") -> NullMetric:  # type: ignore[override]
        return NULL_METRIC

    def histogram(  # type: ignore[override]
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> NullMetric:
        return NULL_METRIC

    def register_callback(
        self, name: str, fn: Callable[[], float], help: str = ""
    ) -> None:
        return None


NULL_REGISTRY = NullRegistry()
