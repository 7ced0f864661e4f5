"""Star-match result caching for the cloud server.

Different queries frequently share stars: the star of a query vertex is
determined (up to renaming) by its type, its label groups, and the
multiset of its leaves' (type, label groups) constraints.  A cloud
server answering a workload can therefore reuse ``R(S, Go)`` across
queries.  This module provides the canonical star signature and a
small LRU cache keyed by it; :class:`repro.cloud.server.CloudServer`
uses it when constructed with ``star_cache_size > 0``.

Cached entries store matches in *role form* (center, then leaves in
signature order) so they can be re-labeled to any query's vertex ids on
a hit.

The cache is safe to share between concurrent callers of one server
(the gateway's dispatch threads):
every operation holds an internal lock, and entries are defensively
copied on both :meth:`StarMatchCache.put` and
:meth:`StarMatchCache.get`, so no caller ever holds a reference to the
live stored list — mutating a hit (or a list later ``put``) cannot
corrupt what other queries observe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.markers import hot_path
from repro.graph.attributed import AttributedGraph, VertexData
from repro.matching.match import Match
from repro.matching.star import Star
from repro.matching.table import MatchTable, Row, row_getter

# a vertex constraint: (type, ((attr, (group, ...)), ...))
Constraint = tuple


def vertex_constraint(vertex: VertexData) -> Constraint:
    """Canonical form of one query vertex's matching constraint."""
    labels = tuple(
        (attr, tuple(sorted(values))) for attr, values in sorted(vertex.labels.items())
    )
    return (vertex.vertex_type, labels)


def star_signature(query: AttributedGraph, star: Star) -> tuple:
    """Canonical signature of a star: center + sorted leaf constraints.

    Two stars with equal signatures have identical match sets up to the
    renaming of their query vertices; leaves with identical constraints
    are interchangeable (the match set is closed under permuting them).
    """
    center = vertex_constraint(query.vertex(star.center))
    leaves = tuple(
        sorted(vertex_constraint(query.vertex(leaf)) for leaf in star.leaves)
    )
    return (center, leaves)


def leaf_role_order(query: AttributedGraph, star: Star) -> list[int]:
    """Leaves ordered consistently with the signature's sorted leaves."""
    return sorted(
        star.leaves, key=lambda leaf: (vertex_constraint(query.vertex(leaf)), leaf)
    )


@hot_path
def matches_to_roles(
    matches: list[Match], star: Star, role_order: list[int]
) -> list[tuple[int, ...]]:
    """Store matches positionally: (center image, leaf images...)."""
    return [
        (match[star.center], *(match[leaf] for leaf in role_order))
        for match in matches
    ]


@hot_path
def roles_to_matches(
    roles: list[tuple[int, ...]], star: Star, role_order: list[int]
) -> list[Match]:
    """Re-label positional matches onto this query's vertex ids."""
    out: list[Match] = []
    for row in roles:
        match: Match = {star.center: row[0]}
        for leaf, value in zip(role_order, row[1:]):
            match[leaf] = value
        out.append(match)
    return out


@hot_path
def table_to_roles(
    table: MatchTable, star: Star, role_order: list[int]
) -> list[Row]:
    """Columnar :func:`matches_to_roles`: a column re-order, no dicts.

    Produces exactly the tuples ``matches_to_roles`` would produce for
    ``table.to_matches()`` — the cache wire format is unchanged, so
    dict-path and columnar-path servers can share cache entries.
    """
    getter = row_getter(
        [table.column_of(q) for q in (star.center, *role_order)]
    )
    return [getter(row) for row in table.rows]


@hot_path
def roles_to_table(
    roles: list[Row], star: Star, role_order: list[int]
) -> MatchTable:
    """Columnar :func:`roles_to_matches`: re-label onto a star table.

    The output schema is the star's canonical column order
    ``(center, *leaves)`` — the same schema
    :func:`~repro.cloud.star_matching.match_star_table` emits, so cache
    hits are indistinguishable from fresh computations.
    """
    schema = (star.center, *star.leaves)
    role_schema = (star.center, *role_order)
    column = {q: i for i, q in enumerate(role_schema)}
    getter = row_getter([column[q] for q in schema])
    return MatchTable(schema, [getter(row) for row in roles])


@dataclass
class StarMatchCache:
    """A bounded, thread-safe LRU cache of role-form star match sets.

    Correctness notes (regression-tested in ``tests/test_cloud_cache.py``):

    * **No aliasing.**  ``get`` returns a fresh list and ``put`` stores a
      fresh list of (immutable) tuples.  Historically both handed out the
      live internal list, so a caller mutating a hit — or two concurrent
      queries sharing one — silently corrupted every later hit for that
      signature.
    * **Locked.**  All bookkeeping (LRU order, eviction, hit/miss
      counters) happens under one lock so concurrent queries of a batch
      can share a single cache.
    """

    capacity: int
    _entries: OrderedDict = field(default_factory=OrderedDict)  #: guarded by _lock
    hits: int = 0  #: guarded by _lock
    misses: int = 0  #: guarded by _lock
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def get(self, signature: tuple) -> list[tuple[int, ...]] | None:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
                self.hits += 1
                # copy-on-read: rows are immutable tuples, so a shallow
                # list copy fully detaches the caller from the cache
                return list(entry)
            self.misses += 1
            return None

    def put(self, signature: tuple, roles: list[tuple[int, ...]]) -> None:
        if self.capacity <= 0:
            return
        # copy-on-write: normalize rows to tuples so the stored entry
        # shares no mutable structure with the caller's list
        stored = [tuple(row) for row in roles]
        with self._lock:
            self._entries[signature] = stored
            self._entries.move_to_end(signature)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def counters(self) -> tuple[int, int]:
        """A consistent ``(hits, misses)`` snapshot."""
        with self._lock:
            return self.hits, self.misses

    @property
    def hit_rate(self) -> float:
        hits, misses = self.counters()
        total = hits + misses
        return hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
