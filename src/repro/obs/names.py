"""Canonical span and metric names of the observability taxonomy.

Every pipeline phase the paper's evaluation (Section 6) accounts for
emits exactly one span with one of these names; the legacy metric
views (:mod:`repro.obs.views`) and the exporters key off them.  Use
the constants instead of string literals so a renamed phase fails at
import time rather than silently producing an empty metric.

Span tree (one ``query``, client expansion site)::

    query
    ├── client.anonymize          Q -> Qo through the private LCT
    ├── protocol.encode_query     bytes=|payload|
    ├── network.query             simulated_seconds, bytes
    ├── protocol.decode_query
    ├── cloud.answer              rs_size, rin_size
    │   ├── cloud.decompose       stars
    │   ├── cloud.star_matching   rs_size, cache_hits, cache_misses
    │   │   └── cloud.star_match  (one per star the cache lacks;
    │   │                          center, results)
    │   └── cloud.join            rin_size, intermediate_peak
    ├── cloud.expand              (expansion_site="cloud" only)
    ├── protocol.encode_answer    bytes=|payload|
    ├── network.answer            simulated_seconds, bytes
    ├── protocol.decode_answer
    ├── client.expand             rin -> R(Qo, Gk) through the AVT
    └── client.filter             candidates, results, dropped

and one setup/publish trace (the owner's ``publish`` root, followed by
the upload + index-build roots ``PrivacyPreservingSystem.setup``
appends)::

    publish                       method, k, theta, original sizes
    ├── publish.lct               LCT construction + verification
    │   └── anonymize.grouping    the grouping strategy (labels, groups)
    ├── publish.kauto             label generalization + Gk transform
    │   ├── kauto.partition
    │   ├── kauto.alignment
    │   └── kauto.edge_copy
    └── publish.outsource         Gk -> Go extraction (or Gk passthrough)
    protocol.encode_upload        bytes=|payload|
    network.upload                simulated_seconds, bytes
    cloud.index_build             index_bytes, build_seconds

``batch`` wraps one ``query_batch`` run (backend, workers, queries).
"""

from __future__ import annotations

# -- roots --------------------------------------------------------------
QUERY = "query"
PUBLISH = "publish"
BATCH = "batch"

# -- owner/publish phases ----------------------------------------------
ANON_GROUPING = "anonymize.grouping"
PUBLISH_LCT = "publish.lct"
PUBLISH_KAUTO = "publish.kauto"
PUBLISH_OUTSOURCE = "publish.outsource"
KAUTO_PARTITION = "kauto.partition"
KAUTO_ALIGNMENT = "kauto.alignment"
KAUTO_EDGE_COPY = "kauto.edge_copy"
CLOUD_INDEX_BUILD = "cloud.index_build"

# -- client phases ------------------------------------------------------
CLIENT_ANONYMIZE = "client.anonymize"
CLIENT_EXPAND = "client.expand"
CLIENT_FILTER = "client.filter"
# Root span a GatewayClient opens around one submit() round trip; the
# gateway's remote trace (when requested) is stitched under it.
CLIENT_SUBMIT = "client.submit"

# -- cloud phases -------------------------------------------------------
CLOUD_ANSWER = "cloud.answer"
CLOUD_DECOMPOSE = "cloud.decompose"
CLOUD_STAR_MATCHING = "cloud.star_matching"
CLOUD_STAR_MATCH = "cloud.star_match"
CLOUD_JOIN = "cloud.join"
CLOUD_EXPAND = "cloud.expand"

# -- sharded cloud phases (repro.cloud.sharding) ------------------------
# Under ``cloud.star_matching`` (which then also carries ``shards``), a
# sharded deployment replaces the per-star loop over the cache's misses
# with per-shard match -> gather; a plan the cache holds in full
# scatters nothing:
#   cloud.shard_match  one per shard; shard, results
#   cloud.gather       rs_size, shard_results
CLOUD_SHARD_MATCH = "cloud.shard_match"
CLOUD_GATHER = "cloud.gather"

# -- protocol / wire ----------------------------------------------------
ENCODE_QUERY = "protocol.encode_query"
DECODE_QUERY = "protocol.decode_query"
ENCODE_ANSWER = "protocol.encode_answer"
DECODE_ANSWER = "protocol.decode_answer"
ENCODE_UPLOAD = "protocol.encode_upload"
NETWORK_QUERY = "network.query"
NETWORK_ANSWER = "network.answer"
NETWORK_UPLOAD = "network.upload"
NETWORK_GATEWAY_QUERY = "network.gateway_query"
NETWORK_GATEWAY_ANSWER = "network.gateway_answer"

# -- gateway serving path (repro.gateway) -------------------------------
# One ``gateway.request`` root per request frame a gateway connection
# handles (client_id, queries, status); ``gateway.dispatch`` wraps the
# bounded-pool cloud computation under it (coalesced followers skip
# the dispatch span — they await the leader's result).
GATEWAY_REQUEST = "gateway.request"
GATEWAY_DISPATCH = "gateway.dispatch"

#: Wire direction -> canonical network span name, for call sites that
#: receive the direction as data (:meth:`NetworkChannel.transmit`).
NETWORK_SPANS = {
    "upload": NETWORK_UPLOAD,
    "query": NETWORK_QUERY,
    "answer": NETWORK_ANSWER,
    "gateway_query": NETWORK_GATEWAY_QUERY,
    "gateway_answer": NETWORK_GATEWAY_ANSWER,
}

#: Every span name above, for validation and documentation tests.
ALL_SPANS = tuple(
    value
    for key, value in sorted(globals().items())
    if key.isupper() and isinstance(value, str) and key != "ALL_SPANS"
)

# -- registry metric names ---------------------------------------------
M_QUERIES = "queries_total"
M_MATCHES = "matches_total"
M_CANDIDATES = "candidates_total"
M_FALSE_POSITIVES = "false_positives_filtered_total"
M_STAR_MATCHES = "star_matches_total"
M_SHARD_MATCHES = "shard_star_matches_total"
M_CACHE_HITS = "star_cache_hits_total"
M_CACHE_MISSES = "star_cache_misses_total"
M_NETWORK_BYTES = "network_bytes_total"
M_INTERMEDIATE_PEAK = "join_intermediate_peak"
M_QUERY_SECONDS = "query_seconds"
M_CLOUD_SECONDS = "cloud_seconds"
M_CLIENT_SECONDS = "client_seconds"

# -- gateway serving metrics (repro.gateway) ----------------------------
M_GATEWAY_REQUESTS = "gateway_requests_total"
M_GATEWAY_SHED = "gateway_shed_total"
M_GATEWAY_COALESCED = "gateway_coalesced_total"
#: Serialized trace bytes shipped back on gateway answer frames.
M_TRACE_BYTES = "trace_bytes_total"

# -- sliding-window SLO view prefixes (repro.obs.windows) ---------------
# Each expands into pull gauges `<prefix>_{p50,p95,p99,rate,count}`.
W_QUERY_WINDOW = "query_seconds_window"
W_CLOUD_WINDOW = "cloud_seconds_window"
W_GATEWAY_WINDOW = "gateway_seconds_window"
