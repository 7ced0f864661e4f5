"""Label Correspondence Table (LCT).

The LCT records how raw vertex labels are generalized into *label
groups* (Section 3, Figure 2).  Groups are formed within a single
``(vertex type, attribute)`` label universe — e.g. group ``A`` of the
running example only contains COMPANY TYPE values — and every group
holds at least ``theta`` distinct labels, the user-specified privacy
parameter.

The LCT is private: the data owner keeps it to anonymize query graphs;
the cloud only ever sees group ids.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.exceptions import AnonymizationError
from repro.graph.attributed import AttributedGraph

GroupKey = tuple[str, str, str]  # (vertex type, attribute, label)


def group_id(vertex_type: str, attribute: str, index: int) -> str:
    """Deterministic, collision-free group identifier."""
    return f"{vertex_type}.{attribute}#{index}"


class LabelCorrespondenceTable:
    """Bidirectional mapping between raw labels and label groups."""

    def __init__(self, theta: int, strategy: str | None = None):
        if theta < 1:
            raise AnonymizationError("theta must be >= 1")
        self.theta = theta
        #: name of the grouping strategy that formed the groups (EFF, RAN,
        #: FSIM); ``None`` for a table assembled by hand.  Saved with the
        #: table, so a reloaded deployment can say which method it runs.
        self.strategy = strategy
        self._group_of: dict[GroupKey, str] = {}
        self._members: dict[str, tuple[GroupKey, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_group(
        self,
        vertex_type: str,
        attribute: str,
        labels: Iterable[str],
        gid: str | None = None,
    ) -> str:
        """Register one label group; returns its group id."""
        label_list = sorted(set(labels))
        if not label_list:
            raise AnonymizationError("a label group cannot be empty")
        if gid is None:
            gid = group_id(vertex_type, attribute, self._next_index(vertex_type, attribute))
        if gid in self._members:
            raise AnonymizationError(f"duplicate group id {gid!r}")
        keys = []
        for label in label_list:
            key = (vertex_type, attribute, label)
            if key in self._group_of:
                raise AnonymizationError(
                    f"label {label!r} of {vertex_type}.{attribute} already grouped"
                )
            self._group_of[key] = gid
            keys.append(key)
        self._members[gid] = tuple(keys)
        return gid

    def _next_index(self, vertex_type: str, attribute: str) -> int:
        prefix = f"{vertex_type}.{attribute}#"
        return sum(1 for gid in self._members if gid.startswith(prefix))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def group_of(self, vertex_type: str, attribute: str, label: str) -> str:
        try:
            return self._group_of[(vertex_type, attribute, label)]
        except KeyError:
            raise AnonymizationError(
                f"label {label!r} of {vertex_type}.{attribute} is not in the LCT"
            ) from None

    def members(self, gid: str) -> list[str]:
        """Raw labels inside group ``gid``."""
        try:
            return [label for (_, _, label) in self._members[gid]]
        except KeyError:
            raise AnonymizationError(f"unknown group id {gid!r}") from None

    def group_ids(self) -> list[str]:
        return sorted(self._members)

    def group_count(self) -> int:
        return len(self._members)

    def groups_for(self, vertex_type: str, attribute: str) -> list[str]:
        prefix = f"{vertex_type}.{attribute}#"
        return sorted(gid for gid in self._members if gid.startswith(prefix))

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def generalize_label_map(
        self,
        vertex_type: str,
        labels: Mapping[str, frozenset[str]],
    ) -> dict[str, set[str]]:
        """Replace each raw label by its group id, per attribute."""
        generalized: dict[str, set[str]] = {}
        for attr, values in labels.items():
            generalized[attr] = {
                self.group_of(vertex_type, attr, label) for label in values
            }
        return generalized

    def apply_to_graph(self, graph: AttributedGraph, name: str = "") -> AttributedGraph:
        """A copy of ``graph`` whose labels are group ids (``G'``/``Qo``)."""
        out = AttributedGraph(name or f"{graph.name}-generalized")
        for data in graph.vertices():
            out.add_vertex(
                data.vertex_id,
                data.vertex_type,
                self.generalize_label_map(data.vertex_type, data.labels),
            )
        for u, v in graph.edges():
            out.add_edge(u, v)
        return out

    # ------------------------------------------------------------------
    # verification & serialization
    # ------------------------------------------------------------------
    def verify(self, allow_small_groups: bool = False) -> None:
        """Check the theta guarantee: every group has >= theta labels.

        ``allow_small_groups`` permits a universe smaller than theta to
        form a single undersized group (privacy is then bounded by the
        universe size, which the caller opted into).
        """
        for gid, keys in self._members.items():
            if len(keys) < self.theta and not allow_small_groups:
                raise AnonymizationError(
                    f"group {gid!r} has {len(keys)} labels, below theta={self.theta}"
                )
            pairs = {(t, a) for (t, a, _) in keys}
            if len(pairs) != 1:
                raise AnonymizationError(
                    f"group {gid!r} mixes attributes {sorted(pairs)}"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "theta": self.theta,
            "strategy": self.strategy,
            "groups": {
                gid: [list(key) for key in keys]
                for gid, keys in sorted(self._members.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LabelCorrespondenceTable":
        lct = cls(data["theta"], data.get("strategy"))
        for gid, keys in data["groups"].items():
            if not keys:
                raise AnonymizationError(f"group {gid!r} is empty")
            vertex_type, attribute = keys[0][0], keys[0][1]
            lct.add_group(vertex_type, attribute, [k[2] for k in keys], gid=gid)
        return lct

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelCorrespondenceTable(theta={self.theta}, groups={len(self._members)})"
