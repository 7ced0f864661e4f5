"""The cloud's bit-vector index (Figure 7): VBV and LBV tables.

Built offline over the published graph:

* **VBV** (Vertex Bit Vector) — one bit vector per *label group*; bit
  ``p`` is set iff the ``p``-th indexed vertex carries that group.
  A companion per-*vertex-type* bit vector plays the same role for
  types (the paper checks types alongside label groups).
* **LBV** (Neighbor Label Bit Vector) — Figure 7's |indexed| ×
  |groups| bit matrix, stored by group (``nbv``): bit ``p`` of
  ``nbv[group]`` is set iff the ``p``-th indexed vertex has a
  neighbour carrying that group.  Line 6 of Algorithm 1 is then an AND
  over the leaves' groups beside line 4's AND over the center's.
* **Vertex masks** — one integer per stored vertex: its own label-group
  bits plus a one-hot type bit above them, so "may a leaf land here"
  (:meth:`~repro.graph.attributed.VertexData.matches`) is one AND.

Bit vectors are Python integers (arbitrary-precision bitsets), so the
bitwise AND of Algorithm 1 is a single machine-assisted operation.

The *indexed vertices* are the candidate star centers: block ``B1``
for the optimized method (centers of ``Rin`` matches live in ``B1``),
or all of ``Gk`` for the BAS baseline.

:class:`GraphCSR` is the client's flat companion to its own ``G``
(Algorithm 3); the cloud does not build one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.markers import hot_path
from repro.graph.attributed import AttributedGraph, VertexData
from repro.matching import vec

# a label-group coordinate as it appears on vertices: (attribute, group id)
GroupBitKey = tuple[str, str]
# vertex id -> its mask: a list over dense non-negative ids, else a dict
VertexBits = list[int] | dict[int, int]


@dataclass
class GraphCSR:
    """Flat vertex, edge and label indexes of one graph.

    The client's companion to its own ``G`` (Algorithm 3): a dense
    vertex-existence mask, packed sorted edge keys for bulk
    edge-membership tests, and sorted vertex-id arrays per vertex type
    and per ``(attribute, group)`` label so a query vertex's full
    candidate set is a chain of sorted intersections instead of
    per-vertex ``matches`` calls.

    Only built when numpy is available and the id space is dense
    enough for the existence mask and small enough for 63-bit packed
    edge keys (:meth:`build` returns ``None`` otherwise) — every
    consumer treats a missing CSR as "use the tuple kernels".
    """

    source: AttributedGraph
    exists: Any  # dense id -> is a vertex (bounds-guarded reads)
    edge_keys: Any  # sorted packed min*stride+max keys
    stride: int
    type_ids: dict[str, Any]
    label_ids: dict[GroupBitKey, Any]

    @classmethod
    def build(cls, graph: AttributedGraph) -> "GraphCSR | None":
        """The CSR of ``graph``, or ``None`` when ineligible.

        Eligibility: numpy importable, all vertex ids non-negative and
        below both :data:`repro.matching.vec.PACKED_ID_LIMIT` (packed
        edge keys stay within int64) and
        :data:`repro.matching.vec.DENSE_LUT_LIMIT` (the dense existence
        mask stays small).
        """
        if not vec.HAVE_NUMPY:
            return None
        np = vec.np
        ids = sorted(graph.vertex_ids())
        if ids and (
            ids[0] < 0
            or ids[-1] >= min(vec.PACKED_ID_LIMIT, vec.DENSE_LUT_LIMIT)
        ):
            return None
        stride = ids[-1] + 1 if ids else 1
        exists = np.zeros(ids[-1] + 1 if ids else 0, dtype=bool)
        exists[ids] = True
        # edges() yields each edge once as (min, max)
        edge_keys = np.fromiter(
            (u * stride + v for u, v in graph.edges()),
            dtype=np.int64,
            count=graph.edge_count,
        )
        edge_keys.sort()

        # ids are walked in ascending order, so every inverted list
        # comes out sorted and unique
        type_lists: dict[str, list[int]] = {}
        label_lists: dict[GroupBitKey, list[int]] = {}
        for vid in ids:
            data = graph.vertex(vid)
            type_lists.setdefault(data.vertex_type, []).append(vid)
            for attr, groups in data.labels.items():
                for group in groups:
                    label_lists.setdefault((attr, group), []).append(vid)
        return cls(
            source=graph,
            exists=exists,
            edge_keys=edge_keys,
            stride=stride,
            type_ids={
                t: np.asarray(lst, dtype=np.int64)
                for t, lst in type_lists.items()
            },
            label_ids={
                k: np.asarray(lst, dtype=np.int64)
                for k, lst in label_lists.items()
            },
        )

    @hot_path
    def candidate_array(self, query_vertex: VertexData) -> Any:
        """Sorted data-vertex ids that ``query_vertex`` can map to.

        Exactly the set ``{v : query_vertex.matches(graph.vertex(v))}``:
        the type's id list intersected with the id list of every
        ``(attribute, group)`` the query vertex requires.
        """
        np = vec.np
        empty = np.empty(0, dtype=np.int64)
        out = self.type_ids.get(query_vertex.vertex_type)
        if out is None:
            return empty
        for attr, groups in query_vertex.labels.items():
            for group in groups:
                have = self.label_ids.get((attr, group))
                if have is None:
                    return empty
                out = vec.intersect_sorted(out, have)
                if len(out) == 0:
                    return out
        return out

    @hot_path
    def edge_flags(self, u_col: Any, v_col: Any) -> Any:
        """Bulk ``has_edge``: a boolean mask over aligned id columns.

        Every id must be a vertex of the graph (callers test
        :attr:`exists` first): the packed keys are formed unguarded.
        """
        np = vec.np
        keys = np.minimum(u_col, v_col)
        keys *= self.stride
        keys += np.maximum(u_col, v_col)
        return vec.isin_sorted(keys, self.edge_keys)


def _bit_vector(positions: Iterable[int], size: int) -> int:
    """The ``size``-bit integer with exactly ``positions`` set."""
    raw = bytearray((size + 7) // 8)
    for p in positions:
        raw[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(raw, "little")


def _vertex_masks(
    graph: AttributedGraph, group_bit: dict[GroupBitKey, int]
) -> tuple[VertexBits, dict[GroupBitKey | str, int]]:
    """:attr:`CloudIndex.vertex_bits` and :attr:`CloudIndex.mask_bit`.

    One mask per label map (the upload shares one map per profile):
    its groups' bits, numbered as ``group_bit`` and then in first-seen
    order; each vertex then ORs in the one-hot bit of its type, placed
    above every group bit.
    """
    mask_bit: dict[GroupBitKey | str, int] = dict(group_bit)
    maps: dict[int, Mapping[str, frozenset[str]]] = {}
    types: dict[str, int] = {}
    for data in graph.vertices():
        maps[id(data.labels)] = data.labels
        types[data.vertex_type] = 0
    map_bits: dict[int, int] = {}
    for key, labels in maps.items():
        mask = 0
        for attr, groups in labels.items():
            for group in groups:
                mask |= 1 << mask_bit.setdefault((attr, group), len(mask_bit))
        map_bits[key] = mask
    for vertex_type in types:
        mask_bit[vertex_type] = len(mask_bit)
        types[vertex_type] = 1 << mask_bit[vertex_type]
    # dense ids: a list read is cheaper than a dict probe, and a leaf
    # test is one read per neighbour (one 10 k-center, 270 k-neighbour
    # star: 288 -> 224 ms); an absent id reads 0, which holds no need
    # (every need has a type bit)
    ids = graph.vertex_id_view()
    vertex_bits: VertexBits = {}
    if ids and min(ids) >= 0 and max(ids) < vec.DENSE_LUT_LIMIT:
        vertex_bits = [0] * (max(ids) + 1)
    for data in graph.vertices():
        vertex_bits[data.vertex_id] = map_bits[id(data.labels)] | types[data.vertex_type]
    return vertex_bits, mask_bit


@dataclass
class CloudIndex:
    """VBV/LBV tables over the indexed (candidate-center) vertices, and
    a label mask for every vertex of the stored graph."""

    indexed_vertices: list[int]
    position: dict[int, int]
    type_bits: dict[str, int]
    vbv: dict[GroupBitKey, int]
    group_bit: dict[GroupBitKey, int]
    nbv: dict[GroupBitKey, int]
    #: per stored vertex id: its groups' :attr:`mask_bit` bits | its type's
    vertex_bits: VertexBits
    #: a bit per label group (``group_bit``'s numbering first, then
    #: groups no indexed vertex or neighbour carries) and, above them,
    #: one per vertex type
    mask_bit: dict[GroupBitKey | str, int]
    build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: AttributedGraph,
        indexed_vertices: Sequence[int],
    ) -> "CloudIndex":
        """Build the index over ``indexed_vertices`` of ``graph``.

        Neighbour information (LBV) is drawn from ``graph`` — for the
        optimized method that is ``Go``, which contains every ``Gk``
        edge incident to ``B1``, so LBVs are complete.
        """
        started = time.perf_counter()
        vertices = list(indexed_vertices)
        size = len(vertices)
        position = {vid: p for p, vid in enumerate(vertices)}
        vertex = graph.vertex

        # collect bit positions first and build each vector once: OR-ing
        # a |indexed|-bit integer per vertex per group is quadratic
        type_at: dict[str, list[int]] = {}
        group_at: dict[GroupBitKey, list[int]] = {}
        for p, vid in enumerate(vertices):
            data = vertex(vid)
            type_at.setdefault(data.vertex_type, []).append(p)
            for attr, groups in data.labels.items():
                for group in groups:
                    group_at.setdefault((attr, group), []).append(p)
        type_bits = {t: _bit_vector(at, size) for t, at in type_at.items()}
        vbv = {key: _bit_vector(at, size) for key, at in group_at.items()}
        group_bit = {key: bit for bit, key in enumerate(group_at)}

        # LBV by group: the indexed neighbours of each vertex, then their
        # positions per label map (the upload shares one map per
        # profile), then per group.  Maps are met in the order the
        # (indexed vertex, neighbour) walk first reaches them, so groups
        # seen only on neighbours get the later bits in that order.
        near: dict[int, list[int]] = {}
        for p, vid in enumerate(vertices):
            for nbr in graph.neighbors(vid):
                at = near.get(nbr)
                if at is None:
                    near[nbr] = [p]
                else:
                    at.append(p)
        map_at: dict[int, list[int]] = {}
        maps: list[Mapping[str, frozenset[str]]] = []
        for nbr, at in near.items():
            labels = vertex(nbr).labels
            seen = map_at.get(id(labels))
            if seen is None:
                map_at[id(labels)] = at
                maps.append(labels)
            else:
                seen.extend(at)
        nbv = dict.fromkeys(group_bit, 0)
        for labels in maps:
            row = _bit_vector(map_at[id(labels)], size)
            for attr, groups in labels.items():
                for group in groups:
                    key = (attr, group)
                    group_bit.setdefault(key, len(group_bit))
                    nbv[key] = nbv.get(key, 0) | row

        vertex_bits, mask_bit = _vertex_masks(graph, group_bit)
        index = cls(
            indexed_vertices=vertices,
            position=position,
            type_bits=type_bits,
            vbv=vbv,
            group_bit=group_bit,
            nbv=nbv,
            vertex_bits=vertex_bits,
            mask_bit=mask_bit,
        )
        index.build_seconds = time.perf_counter() - started
        return index

    # ------------------------------------------------------------------
    # Algorithm 1 primitives
    # ------------------------------------------------------------------
    def candidate_center_mask(self, query_vertex: VertexData) -> int:
        """Line 4 of Algorithm 1: AND of the VBVs of the center's groups.

        Returns 0 as soon as any constraint has no support (unknown
        type or group), which simply means "no candidates".
        """
        mask = self.type_bits.get(query_vertex.vertex_type, 0)
        for attr, groups in query_vertex.labels.items():
            for group in groups:
                mask &= self.vbv.get((attr, group), 0)
                if not mask:
                    return 0
        return mask

    def candidates_from_mask(self, mask: int) -> Iterable[int]:
        """Vertex ids of the set bits of ``mask``."""
        vertices = self.indexed_vertices
        while mask:
            low = mask & -mask
            yield vertices[low.bit_length() - 1]
            mask ^= low

    def neighborhood_mask(self, leaf_vertices: Iterable[VertexData]) -> int:
        """Line 6 of Algorithm 1 for every indexed vertex at once.

        Bit ``p`` is set iff the ``p``-th indexed vertex has, for every
        group on the leaves, a neighbour carrying it: the AND of their
        :attr:`nbv` rows — ``-1`` (every bit) when the leaves carry no
        group, 0 as soon as one is carried by no neighbour.
        """
        mask = -1
        for leaf in leaf_vertices:
            for attr, groups in leaf.labels.items():
                for group in groups:
                    mask &= self.nbv.get((attr, group), 0)
                    if not mask:
                        return 0
        return mask

    def need_mask(self, query_vertex: VertexData) -> int | None:
        """The :attr:`vertex_bits` a data vertex needs to match ``query_vertex``.

        ``vertex_bits[v] & need == need`` iff ``query_vertex.matches``
        vertex ``v``; ``None`` when no stored vertex carries its type or
        one of its groups.
        """
        bit = self.mask_bit.get(query_vertex.vertex_type)
        if bit is None:
            return None
        need = 1 << bit
        for attr, groups in query_vertex.labels.items():
            for group in groups:
                bit = self.mask_bit.get((attr, group))
                if bit is None:
                    return None
                need |= 1 << bit
        return need

    # ------------------------------------------------------------------
    # accounting (Figure 13)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Approximate in-memory size: both bit tables, in bytes.

        VBV: one |indexed|-bit vector per label group (+ per type);
        LBV: the |indexed| × |groups| bit matrix.  This mirrors
        the paper's index-size accounting, which scales with |V(Go)|.
        """
        rows = len(self.vbv) + len(self.type_bits)
        vbv_bits = rows * max(len(self.indexed_vertices), 1)
        lbv_bits = len(self.indexed_vertices) * max(len(self.group_bit), 1)
        return (vbv_bits + lbv_bits + 7) // 8
