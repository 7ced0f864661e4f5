"""Exporters: JSON trace files, Prometheus text format, human tables.

Three formats cover the consumers named in the evaluation plan:

* :func:`export_json` — everything (spans + metrics snapshot) in one
  JSON document, for offline analysis and the CLI ``--trace`` flag;
* :func:`prometheus_text` — the metrics registry in the Prometheus
  text exposition format (one parseable line per sample), for
  scraping a long-running serving process;
* :func:`format_summary` — a fixed-width per-phase table (count,
  total, mean, share of wall time), for terminals and the
  ``python -m repro demo --profile`` command;
* :func:`export_chrome_trace` — the Chrome/Perfetto trace-event JSON
  (``chrome://tracing``, https://ui.perfetto.dev) with one lane per
  (process, thread), so a stitched cross-process trace renders as
  client, gateway, coordinator and fork-child swimlanes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Any, Mapping

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracing import Trace
from repro.obs.views import layers

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
PROM_PREFIX = "repro"

#: One Prometheus text-format line: comment or ``name{labels} value``.
PROM_LINE_RE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+(\s[0-9]+)?)$"
)


def prom_name(name: str) -> str:
    """``cloud.star_matches_total`` -> ``repro_cloud_star_matches_total``."""
    return f"{PROM_PREFIX}_{_NAME_RE.sub('_', name)}"


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    def escape(value: str) -> str:
        # The Prometheus text format requires escaping backslash, the
        # double quote *and* the line feed inside label values — an
        # unescaped newline would split one sample across two
        # unparseable lines (PROM_LINE_RE is line-anchored).
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    inner = ",".join(
        f'{key}="{escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        name = prom_name(metric.name)
        lines.append(f"# HELP {name} {metric.help or metric.name}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key in metric.keys():
                labels = dict(key)
                snap = metric.snapshot_one(key)
                for bound, count in snap["buckets"].items():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = bound
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} {count}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_labels_text(inf_labels)} {snap['count']}"
                )
                lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(snap['sum'])}")
                lines.append(f"{name}_count{_labels_text(labels)} {snap['count']}")
        else:
            items = metric.items() or [((), 0.0)]
            for key, value in items:
                lines.append(f"{name}{_labels_text(dict(key))} {_fmt(value)}")
    for cb_name, value, help in registry.callbacks():
        name = prom_name(cb_name)
        lines.append(f"# HELP {name} {help or cb_name}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    # same courtesy as export_json: create missing parent directories
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(registry), encoding="utf-8")
    return path


def export_dict(
    trace: Trace | None = None,
    registry: MetricsRegistry | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The combined JSON document (also the ``--trace`` file layout)."""
    doc: dict[str, Any] = {"version": 1}
    if extra:
        doc.update(extra)
    if trace is not None:
        doc["trace"] = trace.to_dict()
        doc["trace"]["total_seconds"] = trace.total_seconds
    if registry is not None:
        doc["metrics"] = registry.snapshot()
    return doc


def export_json(
    path: str | Path,
    trace: Trace | None = None,
    registry: MetricsRegistry | None = None,
    extra: Mapping[str, Any] | None = None,
) -> Path:
    path = Path(path)
    # --trace out/dir/t.json must work on a fresh checkout: create the
    # parent directories instead of crashing with FileNotFoundError.
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(export_dict(trace, registry, extra), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return path


def chrome_trace_dict(trace: Trace) -> dict[str, Any]:
    """The trace as a Chrome/Perfetto trace-event document.

    Every span becomes one complete ("X") event on a (pid, tid) lane;
    timestamps are microseconds relative to the earliest span, so the
    viewer's timeline starts at zero.  Span ids, parent links and the
    query id ride along in ``args`` for drill-down.  Metadata ("M")
    events name each process and thread lane.
    """
    spans = list(trace)
    origin = min((span.started_at for span in spans), default=0.0)
    # The trace-event format wants integer thread ids; span.thread is a
    # name, so assign stable small tids per (pid, thread name) pair.
    tids: dict[tuple[int, str], int] = {}
    events: list[dict[str, Any]] = []
    for span in spans:
        lane = (span.pid, span.thread)
        if lane not in tids:
            tids[lane] = len(tids) + 1
        args: dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
        }
        if span.query_id:
            args["query_id"] = span.query_id
        args.update(span.attributes)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.started_at - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": tids[lane],
                "args": args,
            }
        )
    # Perfetto sorts events itself, but a started_at ordering keeps the
    # raw JSON readable and diffs deterministic.
    events.sort(key=lambda event: (event["pid"], event["tid"], event["ts"]))
    for (pid, thread), tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"{PROM_PREFIX} pid {pid}"},
            }
        )
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread or f"thread {tid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(path: str | Path, trace: Trace) -> Path:
    """Write :func:`chrome_trace_dict` JSON (load in Perfetto/Chrome)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace_dict(trace), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return path


def format_summary(
    trace: Trace,
    registry: MetricsRegistry | None = None,
    title: str = "span summary",
) -> str:
    """A fixed-width per-phase table, grouped by span name."""
    wall = trace.total_seconds
    counts = Counter(span.name for span in trace)

    headers = ["span", "count", "total ms", "mean ms", "% wall"]
    rows = []
    for name, total in layers(trace).items():
        share = (100.0 * total / wall) if wall > 0 else 0.0
        rows.append(
            [
                name,
                str(counts[name]),
                f"{total * 1000:.3f}",
                f"{total * 1000 / counts[name]:.3f}",
                f"{share:5.1f}",
            ]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append(f"wall (root spans): {wall * 1000:.3f} ms")

    if registry is not None:
        lines.append("")
        lines.append("metrics")
        lines.append("-------")
        for metric in registry.metrics():
            if isinstance(metric, Histogram):
                for key in metric.keys():
                    snap = metric.snapshot_one(key)
                    labels = _labels_text(dict(key))
                    lines.append(
                        f"{metric.name}{labels}: count={snap['count']} "
                        f"sum={snap['sum']:.6f}"
                    )
            else:
                for key, value in metric.items():
                    lines.append(
                        f"{metric.name}{_labels_text(dict(key))}: {_fmt(value)}"
                    )
        for cb_name, value, _help in registry.callbacks():
            lines.append(f"{cb_name}: {_fmt(value)}")
    return "\n".join(lines)
