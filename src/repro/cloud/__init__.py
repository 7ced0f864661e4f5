"""Cloud-side query engine (Section 4.2.1)."""

from repro.cloud.cache import StarMatchCache, star_signature
from repro.cloud.decomposition import decompose_query, estimate_all_stars
from repro.cloud.index import CloudIndex
from repro.cloud.parallel import BACKENDS, fork_available, map_batch
from repro.cloud.result_join import (
    JoinStats,
    expand_star_table,
    join_star_tables,
)
from repro.cloud.server import CloudAnswer, CloudServer
from repro.cloud.sharding import (
    CloudShard,
    ShardedCloud,
    build_cloud,
    build_shards,
    merge_star_tables,
)
from repro.cloud.star_matching import StarMatchStats, match_star_table
from repro.cloud.vertex_cover import (
    cover_cost,
    greedy_weighted_vertex_cover,
    is_vertex_cover,
    minimum_weighted_vertex_cover,
)

__all__ = [
    "StarMatchCache",
    "star_signature",
    "CloudIndex",
    "BACKENDS",
    "fork_available",
    "map_batch",
    "CloudServer",
    "CloudAnswer",
    "ShardedCloud",
    "CloudShard",
    "build_cloud",
    "build_shards",
    "merge_star_tables",
    "decompose_query",
    "estimate_all_stars",
    "match_star_table",
    "StarMatchStats",
    "join_star_tables",
    "expand_star_table",
    "JoinStats",
    "minimum_weighted_vertex_cover",
    "greedy_weighted_vertex_cover",
    "is_vertex_cover",
    "cover_cost",
]
