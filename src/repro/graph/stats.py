"""Label/type frequency statistics over attributed graphs.

These statistics feed the paper's cost model (Section 5, Equation 1):

* ``F(j)``        — probability that a vertex has vertex type ``j``;
* ``F^l(j, i)``   — probability that a type-``j`` vertex carries the
  ``i``-th raw label of that type;
* ``F^g(j, i)``   — same, for label *groups* after generalization.

The same machinery is applied to the data graph ``Gk``, to a single
star query ``S``, and (averaged) to a workload of star queries
``S_avg`` — see :class:`repro.anonymize.cost_model.WorkloadStatistics`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.graph.attributed import AttributedGraph, VertexData

# A label coordinate is (vertex_type, attribute, label).  Raw labels and
# group ids share this shape, so one statistics class serves both.
LabelKey = tuple[str, str, str]


@dataclass
class GraphStatistics:
    """Frequency profile of one attributed graph.

    All frequencies follow Equation 1 of the paper:

    * :attr:`type_frequency`  maps type -> |V(G, j)| / |V(G)|
    * :attr:`label_frequency` maps (type, attr, label) ->
      |V^l(G, (j, i))| / |V(G, j)|
    """

    vertex_count: int
    average_degree: float
    type_counts: dict[str, int] = field(default_factory=dict)
    label_counts: dict[LabelKey, int] = field(default_factory=dict)

    @property
    def type_frequency(self) -> dict[str, float]:
        if self.vertex_count == 0:
            return {}
        return {t: c / self.vertex_count for t, c in self.type_counts.items()}

    def frequency_of_type(self, vertex_type: str) -> float:
        if self.vertex_count == 0:
            return 0.0
        return self.type_counts.get(vertex_type, 0) / self.vertex_count

    def frequency_of_label(self, vertex_type: str, attribute: str, label: str) -> float:
        type_total = self.type_counts.get(vertex_type, 0)
        if type_total == 0:
            return 0.0
        return self.label_counts.get((vertex_type, attribute, label), 0) / type_total

    def labels_of(self, vertex_type: str, attribute: str) -> list[str]:
        """All labels observed on (type, attribute), sorted."""
        return sorted(
            label
            for (t, a, label) in self.label_counts
            if t == vertex_type and a == attribute
        )

    def attribute_pairs(self) -> list[tuple[str, str]]:
        """All (type, attribute) pairs observed in the graph, sorted."""
        return sorted({(t, a) for (t, a, _) in self.label_counts})


def compute_statistics(graph: AttributedGraph) -> GraphStatistics:
    """One pass over ``graph`` computing type and label counts."""
    return vertex_statistics(graph.vertices(), graph.edge_count)


def vertex_statistics(vertices: Iterable[VertexData], edge_count: int) -> GraphStatistics:
    """The same for a graph given as its vertices and its edge count."""
    type_counts: Counter[str] = Counter()
    label_counts: Counter[LabelKey] = Counter()
    for data in vertices:
        type_counts[data.vertex_type] += 1
        for attr, label in data.label_items():
            label_counts[(data.vertex_type, attr, label)] += 1
    count = sum(type_counts.values())
    return GraphStatistics(
        vertex_count=count,
        average_degree=2.0 * edge_count / count if count else 0.0,
        type_counts=dict(type_counts),
        label_counts=dict(label_counts),
    )


def merge_statistics(parts: Iterable[GraphStatistics]) -> GraphStatistics:
    """Average the frequency profiles of several graphs.

    Used to build the workload-average statistics ``F_Savg`` of
    Section 5.2: each part contributes its *frequencies* with equal
    weight (the paper averages per-query frequencies, not raw counts).
    The merged object re-expresses the averaged frequencies as counts
    over a nominal population so the :class:`GraphStatistics` accessors
    keep working.
    """
    parts = list(parts)
    if not parts:
        return GraphStatistics(vertex_count=0, average_degree=0.0)

    scale = 10**9  # nominal population, large enough to avoid rounding loss
    type_freq: defaultdict[str, float] = defaultdict(float)
    # label frequency is conditioned on the type, so average the
    # conditional frequencies and also track the averaged type mass.
    label_freq: defaultdict[LabelKey, float] = defaultdict(float)
    avg_degree = 0.0
    n = len(parts)
    for part in parts:
        avg_degree += part.average_degree / n
        for t, c in part.type_counts.items():
            if part.vertex_count:
                type_freq[t] += (c / part.vertex_count) / n
        for key, c in part.label_counts.items():
            type_total = part.type_counts.get(key[0], 0)
            if type_total:
                label_freq[key] += (c / type_total) / n

    type_counts = {t: int(round(f * scale)) for t, f in type_freq.items()}
    label_counts = {
        key: int(round(f * type_counts.get(key[0], 0)))
        for key, f in label_freq.items()
    }
    return GraphStatistics(
        vertex_count=scale,
        average_degree=avg_degree,
        type_counts=type_counts,
        label_counts=label_counts,
    )


def degree_histogram(graph: AttributedGraph) -> dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    hist: Counter[int] = Counter()
    for vid in graph.vertex_ids():
        hist[graph.degree(vid)] += 1
    return dict(hist)


def estimate_zipf_skew(frequencies: Iterable[float]) -> float:
    """Least-squares Zipf exponent of a frequency distribution.

    The paper observes that label frequencies on all three evaluation
    graphs "(roughly) obey Zipf's law of different skewness"; this
    estimator recovers that skew so the synthetic analogues can be
    validated against it.  Fits ``log f_r = -s · log r + c`` over the
    positive frequencies sorted descending (rank r starting at 1) and
    returns ``s``.
    """
    values = sorted((f for f in frequencies if f > 0), reverse=True)
    if len(values) < 2:
        return 0.0
    import math

    xs = [math.log(rank + 1) for rank in range(len(values))]
    ys = [math.log(value) for value in values]
    n = len(values)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    return -cov / var


def label_frequency_spectrum(
    stats: GraphStatistics,
    vertex_type: str,
    attribute: str,
) -> list[float]:
    """Frequencies of every label of (type, attribute), descending."""
    return sorted(
        (
            stats.frequency_of_label(vertex_type, attribute, label)
            for label in stats.labels_of(vertex_type, attribute)
        ),
        reverse=True,
    )
