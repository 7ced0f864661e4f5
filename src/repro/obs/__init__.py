"""repro.obs — the unified observability layer.

One coherent surface for everything the paper's evaluation (Section 6)
measures: where the time and the bytes go.  The pieces:

* :class:`~repro.obs.tracing.Tracer` — nested spans (context-manager
  API, thread-safe, fork-aware) around every pipeline phase;
* :class:`~repro.obs.registry.MetricsRegistry` — named counters /
  gauges / histograms (candidates, wire bytes, peaks);
* exporters — JSON trace files, Prometheus text format, human tables;
* :class:`~repro.obs.serve.TraceRing` — the one record of a finished
  query: the trace document ``/traces`` serves and ``repro serve
  --events`` logs;
* :mod:`~repro.obs.views` — :func:`layers`, the one span-name to
  seconds mapping, and the records derived from a trace:
  ``QueryMetrics`` (also the EXPLAIN report), ``PublishMetrics`` and
  their batch aggregates;
* :class:`Observability` — the facade components carry around.

Cost model: the default ``Observability()`` records spans at *phase*
granularity only (a dozen per query).  ``Observability.disabled()`` is
a true no-op — the hot path sees a shared null span and a null
registry, nothing else.  Spans are the only clock: every phase time
the package reports is a span duration.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs import names
from repro.obs.exporters import (
    chrome_trace_dict,
    export_chrome_trace,
    export_dict,
    export_json,
    format_summary,
    prometheus_text,
    write_prometheus,
)
from repro.obs.profiling import SpanProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Trace,
    Tracer,
    new_query_id,
)
from repro.obs.serve import TelemetryServer, TraceRing
from repro.obs.views import (
    AggregatedMetrics,
    BatchMetrics,
    PublishMetrics,
    QueryMetrics,
    layers,
)
from repro.obs.windows import SlidingWindow, quantile_inclusive


class Observability:
    """Tracer + metrics registry, bundled for threading through the stack.

    Parameters
    ----------
    profile:
        ``True`` profiles every top-level span with :mod:`cProfile`;
        an iterable of span names profiles just those.
    """

    def __init__(
        self,
        *,
        profile: bool | Iterable[str] | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        max_spans: int = 100_000,
    ) -> None:
        if profile is True:
            self.profiler: SpanProfiler | None = SpanProfiler()
        elif profile:
            self.profiler = SpanProfiler(profile)
        else:
            self.profiler = None
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.max_spans = max_spans
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(max_spans=max_spans, profiler=self.profiler)
        )

    @property
    def enabled(self) -> bool:
        """False only for the null (fully disabled) instance."""
        return True

    @property
    def query_id(self) -> str:
        """The query id of a per-query scope ("" on a base scope)."""
        return self.tracer.query_id

    def for_query(self, query_id: str | None = None) -> "Observability":
        """A fresh per-query scope: its own tracer, the shared registry.

        Per-query tracers keep concurrent batch queries from
        interleaving spans in one buffer and make ``QueryOutcome.trace``
        self-contained (and picklable, for a forked batch).  Each
        scope carries a ``query_id`` (allocated here unless supplied)
        stamped onto every span it records.
        """
        return Observability(
            registry=self.metrics,
            tracer=Tracer(
                max_spans=self.max_spans,
                profiler=self.profiler,
                query_id=query_id or new_query_id(),
            ),
            profile=None,
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared no-op instance: null tracer, null registry."""
        return NULL_OBS


class _NullObservability(Observability):
    """Fully disabled: shared null tracer + null registry, no per-query forks."""

    def __init__(self) -> None:
        super().__init__(registry=NULL_REGISTRY, tracer=NULL_TRACER)

    @property
    def enabled(self) -> bool:
        return False

    def for_query(self, query_id: str | None = None) -> "Observability":
        return self


NULL_OBS = _NullObservability()


__all__ = [
    "Observability",
    "NULL_OBS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Trace",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanProfiler",
    "new_query_id",
    "SlidingWindow",
    "quantile_inclusive",
    "TelemetryServer",
    "TraceRing",
    "names",
    "chrome_trace_dict",
    "export_chrome_trace",
    "export_dict",
    "export_json",
    "format_summary",
    "prometheus_text",
    "write_prometheus",
    "PublishMetrics",
    "QueryMetrics",
    "BatchMetrics",
    "AggregatedMetrics",
    "layers",
]
