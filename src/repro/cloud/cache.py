"""Star-match result caching for the cloud server.

Different queries frequently share stars: the star of a query vertex is
determined (up to renaming) by its type, its label groups, and the
multiset of its leaves' (type, label groups) constraints.  A cloud
server answering a workload can therefore reuse ``R(S, Go)`` across
queries.  This module provides the canonical star signature, the leaf
order Algorithm 1 nests in, and a small LRU cache keyed by the
signature; :class:`repro.cloud.server.CloudServer` puts one in front of
its topology when constructed with ``star_cache_size > 0``.

Cached entries store matches in *role form* (center, then leaves in
signature order) so they can be re-labeled to any query's vertex ids on
a hit; the re-labeled rows are then put in the order the hitting star's
own cold run emits (:func:`in_cold_order`), so a hit is that cold run,
rows and order.

The cache is safe to share between concurrent callers of one server
(threads a caller runs over it; the gateway itself answers on one
event loop): every operation holds an internal lock, and entries are defensively
copied on both :meth:`StarMatchCache.put` and
:meth:`StarMatchCache.get`, so no caller ever holds a reference to the
live stored list — mutating a hit (or a list later ``put``) cannot
corrupt what other queries observe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from repro.analysis.markers import hot_path
from repro.graph.attributed import AttributedGraph, VertexData
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


def leaf_order(query: AttributedGraph, star: Star) -> list[int]:
    """The order Algorithm 1 nests a star's leaves in.

    Most-constrained leaves first (more label groups), ties by lower
    query id.  The kernel pays for it on every star, so it reads label
    counts only: breaking ties by constraint instead cost 9 µs (+12 %)
    of a ``selective`` query's star matching (2 cores, Python 3.11).
    The id tie-break is not a function of the signature, which is why a
    cache hit is re-sorted (:func:`in_cold_order`).
    """
    return sorted(
        star.leaves,
        key=lambda leaf: (
            -sum(len(v) for v in query.vertex(leaf).labels.values()),
            leaf,
        ),
    )


def leaf_role_order(query: AttributedGraph, star: Star) -> list[int]:
    """The cache's role order: leaves by constraint, ties by query id.

    Role ``i`` carries the same constraint in every star of one
    signature, so a cached row re-labels onto any of them as a match.
    """
    return sorted(
        star.leaves, key=lambda leaf: (vertex_constraint(query.vertex(leaf)), leaf)
    )


@hot_path
def table_to_roles(
    table: MatchTable, star: Star, role_order: list[int]
) -> list[Row]:
    """Store a star table positionally: (center image, leaf images...).

    A column re-order of the table's rows into ``role_order``, no dicts.
    """
    getter = row_getter(
        [table.column_of(q) for q in (star.center, *role_order)]
    )
    return [getter(row) for row in table.rows]


@hot_path
def roles_to_table(
    roles: list[Row], star: Star, role_order: list[int]
) -> MatchTable:
    """Re-label positional rows onto this star's vertex ids.

    The output schema is the star's canonical column order
    ``(center, *leaves)`` — the same schema
    :func:`~repro.cloud.star_matching.match_star_table` emits; the rows
    keep the order of the run they were stored from.
    """
    schema = (star.center, *star.leaves)
    role_schema = (star.center, *role_order)
    column = {q: i for i, q in enumerate(role_schema)}
    getter = row_getter([column[q] for q in schema])
    return MatchTable(schema, [getter(row) for row in roles])


@hot_path
def in_cold_order(table: MatchTable, order: list[int]) -> MatchTable:
    """``table``'s rows in the order a cold run nesting ``order`` emits.

    Algorithm 1 emits a center's rows together, centers in index order,
    and takes each leaf's candidates in ascending id, so within a center
    the rows ascend in their leaf values read in ``order``.  A
    re-labeled hit keeps its source's center blocks; only rows inside a
    block move.
    """
    key = row_getter([table.column_of(leaf) for leaf in order])
    source = table.rows
    rows: list[Row] = []
    for _, block in groupby(source, key=itemgetter(0)):
        rows.extend(sorted(block, key=key))
    return MatchTable(table.schema, rows)


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

    def plan_tables(
        self,
        query: AttributedGraph,
        stars: Sequence[Star],
        match: Callable[[list[Star]], dict[int, MatchTable]],
    ) -> tuple[dict[int, MatchTable], int]:
        """The star tables of one plan, with ``match`` run on the misses only.

        Stars are grouped by signature and each group is looked up
        once.  Of a group the cache lacks, only the first star goes to
        ``match`` (one call for the whole plan) and its table is
        stored; every other star is re-labeled from a stored entry and
        put in its own cold-run order.  Every star counts once, as a hit or as the miss that matched
        its group.  Returns the tables by star center and the hit count.
        A disabled cache (capacity 0) hands ``match`` every star and
        counts nothing.
        """
        if self.capacity <= 0:
            return match(list(stars)), 0
        groups: dict[tuple, list[Star]] = {}
        for star in stars:
            groups.setdefault(star_signature(query, star), []).append(star)
        found = {signature: self.get(signature) for signature in groups}
        with self._lock:
            # the rest of a group is served by its first star's entry
            self.hits += len(stars) - len(groups)
        misses = [groups[s][0] for s, roles in found.items() if roles is None]
        tables = match(misses) if misses else {}
        for signature, group in groups.items():
            roles = found[signature]
            if roles is None:
                first = group[0]
                roles = table_to_roles(
                    tables[first.center], first, leaf_role_order(query, first)
                )
                self.put(signature, roles)
            for star in group:
                if star.center not in tables:
                    relabeled = roles_to_table(
                        roles, star, leaf_role_order(query, star)
                    )
                    tables[star.center] = in_cold_order(
                        relabeled, leaf_order(query, star)
                    )
        return tables, len(stars) - len(misses)

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
