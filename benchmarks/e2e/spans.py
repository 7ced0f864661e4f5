"""The benchmark's own span recorder.

Every layer is timed from outside, around the call into its public
function: ``with recorder.span("cloud.join"): join_star_tables(...)``.
A span is ``(name, start, end, parent)``; spans of one request share a
``request`` id.  Spans stay in memory and are written once, when the
run ends (``--spans-out``).  A layer's *self time* is its span's
duration minus the part its child spans cover, so a parent that only
groups children (``stepped.query``) reports the glue between them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    request: int
    parent: int  # index into Recorder.spans, -1 for a root
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list with an implicit parent stack (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = 0

    def begin_request(self) -> int:
        """Start a new request; returns the index its spans start at."""
        self._request += 1
        return len(self.spans)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._request, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, first: int) -> dict[str, float]:
        """``{name: self seconds}`` over ``spans[first:]`` (one request).

        Same-name spans (one ``cloud.star_match`` per star) are summed.
        """
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= first:
                covered[span.parent - first] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span, child_time in zip(spans, covered):
            out[span.name] += span.duration - child_time
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    [s.name, s.request, s.parent, s.start, s.end]
                    for s in self.spans
                ],
                handle,
            )
