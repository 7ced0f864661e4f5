"""The attributed graph model (Definition 1 of the paper).

An :class:`AttributedGraph` is an undirected graph whose vertices carry
a *vertex type* and, per attribute, a set of *vertex labels* (attribute
values).  The same class models

* the original data graph ``G`` (raw labels),
* the anonymized/published graphs ``Gk`` and ``Go`` (label-group ids in
  place of raw labels), and
* query graphs ``Q`` / ``Qo``.

The label-containment semantics of subgraph matching (Definition 2:
``L(q) ⊆ L(g(q))`` plus equal vertex type) is provided by
:meth:`VertexData.matches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, KeysView, Mapping

from repro.exceptions import GraphError

LabelMap = Mapping[str, Iterable[str]]


def _freeze_labels(labels: LabelMap | None) -> dict[str, frozenset[str]]:
    if not labels:
        return {}
    frozen = {}
    for attr, values in labels.items():
        value_set = frozenset(values)
        if value_set:
            frozen[attr] = value_set
    return frozen


@dataclass(frozen=True)
class VertexData:
    """Payload of one vertex: its type and per-attribute label sets."""

    vertex_id: int
    vertex_type: str
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def matches(self, data_vertex: "VertexData") -> bool:
        """Return True if ``self`` (a query vertex) can map to ``data_vertex``.

        Implements condition (1) of Definition 2: same vertex type and,
        for every attribute the query vertex constrains, the query
        labels are a subset of the data vertex's labels.
        """
        if self.vertex_type != data_vertex.vertex_type:
            return False
        for attr, wanted in self.labels.items():
            have = data_vertex.labels.get(attr)
            if have is None or not wanted <= have:
                return False
        return True

    def label_items(self) -> Iterator[tuple[str, str]]:
        """Yield every (attribute, label) pair on this vertex."""
        for attr, values in self.labels.items():
            for value in values:
                yield attr, value

    def with_labels(self, labels: LabelMap) -> "VertexData":
        """Return a copy of this vertex carrying ``labels`` instead."""
        return VertexData(self.vertex_id, self.vertex_type, _freeze_labels(labels))


class AttributedGraph:
    """An undirected vertex-attributed graph with O(1) adjacency tests.

    Vertices are integer ids.  Edges are unordered pairs without self
    loops or parallel edges.  The class is deliberately small and
    dictionary-backed: every published artifact in the pipeline (``G``,
    ``Gk``, ``Go``, queries) reuses it.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._vertices: dict[int, VertexData] = {}
        self._adj: dict[int, set[int]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        vertex_id: int,
        vertex_type: str,
        labels: LabelMap | None = None,
    ) -> VertexData:
        """Add a vertex; re-adding an existing id is an error."""
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id} already exists")
        data = VertexData(vertex_id, vertex_type, _freeze_labels(labels))
        self._vertices[vertex_id] = data
        self._adj[vertex_id] = set()
        return data

    def add_vertex_like(self, vertex_id: int, like: VertexData) -> None:
        """Add a vertex with ``like``'s type, sharing its frozen label map."""
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id} already exists")
        self._vertices[vertex_id] = VertexData(vertex_id, like.vertex_type, like.labels)
        self._adj[vertex_id] = set()

    def set_vertex_labels(self, vertex_id: int, labels: LabelMap) -> None:
        """Replace the label sets of an existing vertex."""
        old = self.vertex(vertex_id)
        self._vertices[vertex_id] = old.with_labels(labels)

    def set_shared_labels(self, vertex_ids: Iterable[int], labels: LabelMap) -> None:
        """:meth:`set_vertex_labels` for several vertices, which share the frozen map."""
        frozen = _freeze_labels(labels)
        for vid in vertex_ids:
            self._vertices[vid] = VertexData(vid, self.vertex(vid).vertex_type, frozen)

    def add_edge(self, u: int, v: int) -> bool:
        """Add undirected edge (u, v); returns False if it already existed."""
        if u == v:
            raise GraphError(f"self loop on vertex {u} is not allowed")
        if u not in self._vertices or v not in self._vertices:
            raise GraphError(f"edge ({u}, {v}) references a missing vertex")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_count += 1
        return True

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """:meth:`add_edge` over ``pairs``; returns the edges that were
        new, as ``(min, max)``, in the order given.  A bad pair raises
        with the pairs before it applied, as the loop would leave them.
        """
        adj = self._adj
        added: list[tuple[int, int]] = []
        try:
            for u, v in pairs:
                if u == v:
                    raise GraphError(f"self loop on vertex {u} is not allowed")
                try:
                    nbrs_u, nbrs_v = adj[u], adj[v]
                except KeyError:
                    raise GraphError(f"edge ({u}, {v}) references a missing vertex") from None
                if v not in nbrs_u:
                    nbrs_u.add(v)
                    nbrs_v.add(u)
                    added.append((u, v) if u < v else (v, u))
        finally:
            self._edge_count += len(added)
        return added

    def remove_edge(self, u: int, v: int) -> None:
        if v not in self._adj.get(u, ()):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def vertex(self, vertex_id: int) -> VertexData:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex_id}") from None

    def vertices(self) -> Iterator[VertexData]:
        return iter(self._vertices.values())

    def vertex_ids(self) -> Iterator[int]:
        return iter(self._vertices)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, vertex_id: int) -> set[int]:
        try:
            return self._adj[vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex_id}") from None

    def degree(self, vertex_id: int) -> int:
        return len(self.neighbors(vertex_id))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge exactly once as (min, max)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def average_degree(self) -> float:
        if not self._vertices:
            return 0.0
        return 2.0 * self._edge_count / len(self._vertices)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def vertex_id_set(self) -> set[int]:
        return set(self._vertices)

    def vertex_id_view(self) -> KeysView[int]:
        """A live, read-only view of the vertex ids: O(1) to take, and
        ``v in view`` is a C-level dict probe (``v in graph`` pays a
        Python-level call per test, which shows in per-cell loops)."""
        return self._vertices.keys()

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """BFS connectivity check (empty graph counts as connected)."""
        if not self._vertices:
            return True
        start = next(iter(self._vertices))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == len(self._vertices)

    def connected_components(self) -> list[set[int]]:
        components: list[set[int]] = []
        unseen = set(self._vertices)
        while unseen:
            start = unseen.pop()
            comp = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if v in unseen:
                            unseen.discard(v)
                            comp.add(v)
                            nxt.append(v)
                frontier = nxt
            components.append(comp)
        return components

    def induced_subgraph(self, vertex_ids: Iterable[int], name: str = "") -> "AttributedGraph":
        """Subgraph on ``vertex_ids`` with every edge between them."""
        keep = set(vertex_ids)
        sub = AttributedGraph(name or f"{self.name}[induced]")
        for vid in keep:
            data = self.vertex(vid)
            sub._vertices[vid] = data
            sub._adj[vid] = set()
        for vid in keep:
            for nbr in self._adj[vid] & keep:
                if nbr > vid:
                    sub.add_edge(vid, nbr)
        return sub

    def incident_subgraph(self, core: Iterable[int], name: str = "") -> "AttributedGraph":
        """``core``, its one-hop neighbours and every edge with an end in
        ``core`` (none between two neighbours).  Vertices come in
        ``core``'s order, then the neighbours ascending; payloads are shared.
        """
        core = list(core)
        inside = set(core)
        fringe = sorted(set().union(*map(self.neighbors, core)) - inside)
        sub = AttributedGraph(name or f"{self.name}[incident]")
        for vid in core:
            sub._adj[vid] = set(self._adj[vid])
        for vid in fringe:
            sub._adj[vid] = self._adj[vid] & inside
        sub._vertices = {vid: self._vertices[vid] for vid in sub._adj}
        # an edge inside ``core`` sits in two of these sets, a
        # core-to-neighbour edge in one on each side
        sub._edge_count = sum(map(len, sub._adj.values())) // 2
        return sub

    def copy(self, name: str = "") -> "AttributedGraph":
        clone = AttributedGraph(name or self.name)
        clone._vertices = dict(self._vertices)
        clone._adj = {vid: set(nbrs) for vid, nbrs in self._adj.items()}
        clone._edge_count = self._edge_count
        return clone

    def relabeled(self, mapping: Mapping[int, int], name: str = "") -> "AttributedGraph":
        """Return an isomorphic copy with vertex ids mapped through ``mapping``."""
        clone = AttributedGraph(name or f"{self.name}[relabeled]")
        for vid, data in self._vertices.items():
            new_id = mapping[vid]
            clone.add_vertex(new_id, data.vertex_type, data.labels)
        for u, v in self.edges():
            clone.add_edge(mapping[u], mapping[v])
        return clone

    # ------------------------------------------------------------------
    # equality / hashing aids
    # ------------------------------------------------------------------
    def structure_equal(self, other: "AttributedGraph") -> bool:
        """Same vertex ids, types, labels and edges (ignores names)."""
        if self.vertex_id_set() != other.vertex_id_set():
            return False
        for vid, data in self._vertices.items():
            other_data = other.vertex(vid)
            if data.vertex_type != other_data.vertex_type:
                return False
            if data.labels != other_data.labels:
                return False
        return self.edge_set() == other.edge_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttributedGraph(name={self.name!r}, |V|={self.vertex_count}, "
            f"|E|={self.edge_count})"
        )
