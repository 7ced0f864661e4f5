"""Serving gateway: the paper's cloud as an actual network service.

The deployment story of the paper (and of the follow-up cloud-service
systems in PAPERS.md) is many clients issuing anonymized queries
against one outsourced graph.  This package provides that front end:

- :class:`QueryGateway` — an asyncio server speaking the
  length-prefixed frames of :mod:`repro.core.protocol`, dispatching
  into a deployed :class:`~repro.cloud.server.CloudServer` (single or
  sharded) through a bounded worker pool, with an optional shared
  auth token, admission control, SLO-driven load shedding and
  duplicate-query coalescing (a request's record is its trace
  document on the :class:`~repro.obs.TraceRing`).
- :class:`GatewayClient` / :class:`SyncGatewayClient` — the matching
  clients; answers decode to the same columnar
  :class:`~repro.matching.table.MatchTable` frames the in-process
  pipeline produces, byte-identical end to end.
"""

from repro.gateway.admission import (
    AdmissionController,
    QueryCoalescer,
    coalesce_key,
    query_signature,
)
from repro.gateway.client import GatewayClient, SyncGatewayClient, TracedSubmit
from repro.gateway.server import SHED_CODES, QueryGateway

__all__ = [
    "QueryGateway",
    "GatewayClient",
    "SyncGatewayClient",
    "TracedSubmit",
    "AdmissionController",
    "QueryCoalescer",
    "coalesce_key",
    "query_signature",
    "SHED_CODES",
]
