"""End-to-end orchestration: owner, cloud, client, protocol, metrics.

The observability layer itself lives in :mod:`repro.obs`; the pieces a
deployment typically touches — :class:`~repro.obs.Observability`, the
metric views, :func:`~repro.obs.exporters.format_percent` — are
re-exported here (and from the top-level ``repro`` package) so
``from repro import Tracer, MetricsRegistry`` works.
"""

from repro.core.config import (
    DEFAULT_THETA,
    METHOD_NAMES,
    MethodConfig,
    SystemConfig,
)
from repro.core.data_owner import DataOwner, PublishedData
from repro.obs import (
    MetricsRegistry,
    Observability,
    Trace,
    Tracer,
)
from repro.obs.views import (
    AggregatedMetrics,
    BatchMetrics,
    PublishMetrics,
    QueryMetrics,
    format_percent,
)
from repro.core.protocol import (
    NetworkChannel,
    TransferRecord,
    decode_answer_table,
    decode_query,
    decode_upload,
    encode_answer_table,
    encode_query,
    encode_upload,
)
from repro.core.options import DEFAULT_OPTIONS, QueryOptions
from repro.core.query_client import ClientOutcome, QueryClient
from repro.core.system import BatchOutcome, PrivacyPreservingSystem, QueryOutcome

__all__ = [
    "SystemConfig",
    "MethodConfig",
    "METHOD_NAMES",
    "DEFAULT_THETA",
    "QueryOptions",
    "DEFAULT_OPTIONS",
    "DataOwner",
    "PublishedData",
    "QueryClient",
    "ClientOutcome",
    "PrivacyPreservingSystem",
    "QueryOutcome",
    "BatchOutcome",
    "PublishMetrics",
    "QueryMetrics",
    "AggregatedMetrics",
    "BatchMetrics",
    "format_percent",
    "Observability",
    "Tracer",
    "Trace",
    "MetricsRegistry",
    "NetworkChannel",
    "TransferRecord",
    "encode_upload",
    "decode_upload",
    "encode_query",
    "decode_query",
    "encode_answer_table",
    "decode_answer_table",
]
