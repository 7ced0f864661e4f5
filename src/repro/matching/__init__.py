"""Subgraph matching substrate: VF2-style matcher, stars, match records."""

from repro.matching import vec
from repro.matching.bitset import BitsetMatcher, find_subgraph_matches_bitset
from repro.matching.isomorphism import (
    are_isomorphic,
    count_matches,
    find_subgraph_matches,
    has_subgraph_match,
    iter_subgraph_matches,
)
from repro.matching.match import (
    Match,
    apply_mapping,
    dedupe_matches,
    is_injective,
    match_key,
    matches_to_rows,
    rows_to_matches,
)
from repro.matching.star import Decomposition, Star, star_as_graph, star_of
from repro.matching.table import (
    MatchTable,
    Row,
    dedupe_rows,
    row_getter,
)

__all__ = [
    "Match",
    "match_key",
    "dedupe_matches",
    "is_injective",
    "apply_mapping",
    "matches_to_rows",
    "rows_to_matches",
    "MatchTable",
    "Row",
    "dedupe_rows",
    "row_getter",
    "iter_subgraph_matches",
    "find_subgraph_matches",
    "BitsetMatcher",
    "find_subgraph_matches_bitset",
    "has_subgraph_match",
    "count_matches",
    "are_isomorphic",
    "Star",
    "star_of",
    "star_as_graph",
    "Decomposition",
    "vec",
]
