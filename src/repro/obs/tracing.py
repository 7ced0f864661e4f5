"""Nested spans: the timing substrate of the observability layer.

Spans are the only clock: a phase's seconds exist as a span duration,
and a caller who wants a time passes a recording scope and reads
:func:`repro.obs.layers` of its trace.  Two tracer grades:

* :class:`Tracer` — full tracing: spans carry ids, parent links,
  depths and thread attribution, and are retained in an in-order
  buffer that :meth:`Tracer.trace` snapshots.  This is what
  ``PrivacyPreservingSystem.query`` uses per query (one fresh tracer
  per query, so concurrent batch queries never interleave spans).
* :class:`NullTracer` — a true no-op: ``span()`` hands back a shared
  :class:`NullSpan` context manager.  Zero allocations, zero clock
  reads; the hot path stays flat (``Observability.disabled()``).

Thread-safety: each thread nests spans on its own ``threading.local``
stack; the completed-span buffer is appended under a lock.  A span may
be parented explicitly (``tracer.span(name, parent=span)``) which is
how per-shard spans attach to the ``cloud.star_matching`` span.

Fork-awareness (forked batches and shard scatters): a tracer detects that
it is running in a forked child (pid change) and resets its buffer and
stacks before recording, so the child starts from a clean trace
instead of appending to a copy of the parent's.  Traces produced in
children are plain picklable dataclasses and travel back to the parent
inside each ``QueryOutcome``.
"""

from __future__ import annotations

import copy
import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Iterator


def new_query_id() -> str:
    """A fresh, process-unique query identifier (``"q-" + 12 hex``)."""
    return "q-" + uuid.uuid4().hex[:12]


#: Attribute value types :meth:`Span.to_dict` passes through uncopied.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@dataclass
class Span:
    """One timed phase.  Picklable; ``attributes`` hold JSON-able scalars."""

    name: str
    span_id: int = 0
    parent_id: int | None = None
    depth: int = 0
    started_at: float = 0.0  # seconds since the tracer's epoch
    duration: float = 0.0  # wall seconds (perf_counter)
    thread: str = ""
    pid: int = 0
    query_id: str = ""  # the owning query's id ("" outside a query scope)
    attributes: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; chainable inside a ``with`` block."""
        self.attributes.update(attrs)
        return self

    def cede(self, seconds: float, to: "Span | NullSpan") -> None:
        """Hand the last ``seconds`` of this closed span to ``to``.

        For two phases that interleave inside one timed block: ``to``
        must be the closed span that started where this one ended, so
        the pair still tiles the same wall interval afterwards.
        """
        self.duration -= seconds
        if isinstance(to, Span):
            to.started_at -= seconds
            to.duration += seconds

    def to_dict(self) -> dict[str, Any]:
        """The ``dataclasses.asdict`` document, built field by field.

        Every traced request is serialized (trace ring, ``/traces``,
        returned and shipped traces), and ``asdict``'s generic
        recursion costs an order of magnitude more; only ``attributes``
        can hold containers, so only it is deep-copied.
        """
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "started_at": self.started_at,
            "duration": self.duration,
            "thread": self.thread,
            "pid": self.pid,
            "query_id": self.query_id,
            "attributes": {
                key: value if type(value) in _SCALARS else copy.deepcopy(value)
                for key, value in self.attributes.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(**data)


class NullSpan:
    """The span handed out by :class:`NullTracer`: immutable, zero cost."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    depth = 0
    started_at = 0.0
    duration = 0.0
    thread = ""
    pid = 0
    query_id = ""
    attributes: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def cede(self, seconds: float, to: "Span | NullSpan") -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = NullSpan()


@dataclass
class Trace:
    """A completed (or snapshotted) collection of spans.

    Spans appear in *completion* order; ``started_at`` restores the
    start order and ``parent_id``/``depth`` restore the nesting.
    """

    spans: list[Span] = field(default_factory=list)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def first(self, name: str) -> Span | None:
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def children(self, parent: Span) -> list[Span]:
        kids = [s for s in self.spans if s.parent_id == parent.span_id]
        kids.sort(key=lambda s: s.started_at)
        return kids

    @property
    def total_seconds(self) -> float:
        """Wall seconds covered by the root spans (nesting not double-counted)."""
        return sum(span.duration for span in self.roots())

    def extend(self, other: "Trace") -> "Trace":
        self.spans.extend(other.spans)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {"spans": [span.to_dict() for span in self.spans]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        return cls(spans=[Span.from_dict(entry) for entry in data["spans"]])


class _SpanContext:
    """Context manager that opens/closes one :class:`Span`."""

    __slots__ = ("_tracer", "span", "_profile")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._profile = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self.span
        tracer._open(span)
        if tracer._profiler is not None:
            self._profile = tracer._profiler.enter(span)
        span.started_at = time.perf_counter() - tracer._epoch
        return span

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        span = self.span
        span.duration = time.perf_counter() - tracer._epoch - span.started_at
        if self._profile is not None:
            tracer._profiler.exit(span, self._profile)
        tracer._close(span)


class NullTracer:
    """The no-op tracer: every ``span()`` is the shared :class:`NullSpan`."""

    enabled = False
    query_id = ""

    def span(
        self, name: str, parent: "Span | NullSpan | None" = None, **attrs: Any
    ) -> "NullSpan | _SpanContext":
        return NULL_SPAN

    def trace(self) -> Trace:
        return Trace()

    def take_trace(self) -> Trace:
        return Trace()

    def reset(self) -> None:
        return None

    def snapshot(self, span: Span) -> Span:
        return span

    def absorb(self, trace: Trace, parent: Span | None = None) -> list[Span]:
        return []


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Produces and retains nested spans (the recording grade).

    Parameters
    ----------
    max_spans:
        Retention cap; the oldest spans are dropped past it so a
        long-lived tracer cannot grow without bound.
    profiler:
        Optional :class:`repro.obs.profiling.SpanProfiler`; profiled
        spans carry a ``profile`` attribute with their hottest frames.
    query_id:
        Identifier stamped onto every recorded span — set by
        ``Observability.for_query`` so one query's spans are
        correlatable across traces, the ``/traces`` endpoint and the
        ``serve --events`` log.
    """

    enabled = True

    def __init__(
        self,
        *,
        max_spans: int = 100_000,
        profiler: "Any | None" = None,
        query_id: str = "",
    ) -> None:
        self._max_spans = max_spans
        self._profiler = profiler
        self.query_id = query_id
        self._spans: list[Span] = []  #: guarded by _lock
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._epoch = time.perf_counter()

    # -- public surface -------------------------------------------------
    def span(
        self, name: str, parent: "Span | NullSpan | None" = None, **attrs: Any
    ) -> _SpanContext:
        """Open a span; use as ``with tracer.span("phase") as sp:``.

        ``parent`` overrides the implicit (thread-local) parent — pass
        the enclosing span when the body runs on a worker thread.
        """
        if os.getpid() != self._pid:
            self._reset_for_fork()
        span = Span(
            name,
            pid=self._pid,
            thread=threading.current_thread().name,
            query_id=self.query_id,
        )
        if attrs:
            span.attributes.update(attrs)
        if parent is not None and parent.span_id:
            span.parent_id = parent.span_id
            span.depth = parent.depth + 1
        return _SpanContext(self, span)

    def trace(self) -> Trace:
        """A snapshot of the spans completed so far (completion order)."""
        with self._lock:
            return Trace(spans=list(self._spans))

    def take_trace(self) -> Trace:
        """Like :meth:`trace` but clears the buffer (one-shot export)."""
        with self._lock:
            spans, self._spans = self._spans, []
        return Trace(spans=spans)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()

    def snapshot(self, span: Span) -> Span:
        """A copy of a still-open span with its duration as of now.

        The gateway encodes its answer while its request root span is
        still open; the returned trace carries this synthesized
        snapshot so the client sees the (near-final) root duration.
        """
        return replace(
            span,
            duration=time.perf_counter() - self._epoch - span.started_at,
            attributes=dict(span.attributes),
        )

    def absorb(self, trace: Trace, parent: Span | None = None) -> list[Span]:
        """Merge a remote/fork-child trace into this tracer's buffer.

        Every absorbed span receives a fresh id from this tracer's own
        counter (so future local spans can never collide with it),
        internal ``parent_id`` links are rewritten through the id
        mapping, and the remote roots are re-parented under ``parent``
        when given.  Returns the grafted copies; the input trace is not
        mutated.
        """
        parent_id = (
            parent.span_id if parent is not None and parent.span_id else None
        )
        base_depth = parent.depth + 1 if parent_id is not None else 0
        mapping = {span.span_id: next(self._ids) for span in trace.spans}
        grafted: list[Span] = []
        for span in trace.spans:
            new_parent = (
                mapping.get(span.parent_id)
                if span.parent_id is not None
                else None
            )
            if new_parent is None:
                new_parent = parent_id
            grafted.append(
                replace(
                    span,
                    span_id=mapping[span.span_id],
                    parent_id=new_parent,
                    depth=span.depth + base_depth,
                    attributes=dict(span.attributes),
                )
            )
        with self._lock:
            self._spans.extend(grafted)
            if len(self._spans) > self._max_spans:
                del self._spans[: len(self._spans) - self._max_spans]
        return grafted

    # -- internals ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _open(self, span: Span) -> None:
        span.span_id = next(self._ids)
        stack = self._stack()
        if span.parent_id is None and stack:
            top = stack[-1]
            span.parent_id = top.span_id
            span.depth = top.depth + 1
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive (mismatched exits)
            stack.remove(span)
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self._max_spans:
                del self._spans[: len(self._spans) - self._max_spans]

    def _reset_for_fork(self) -> None:
        """First span in a forked child: start from a clean buffer."""
        with self._lock:
            self._pid = os.getpid()
            self._spans = []
            self._stacks = threading.local()
