"""The cost model of Section 5.

Two estimators live here:

* :func:`label_combination_cost` — Definition 7: the component of the
  average-case star search space (Expression 5/6) that depends on how
  raw labels are combined into groups.  Minimized by the EFF strategy.
* :class:`StarCardinalityEstimator` — Expression 4 specialized to one
  concrete star query: estimates ``|R(S)|``, the number of star matches
  over the outsourced graph.  Used by the cloud's query decomposition
  (Definition 6) and by the result-join ordering (Algorithm 2).

The estimator runs cloud-side and therefore works purely in *group*
space: the statistics it consumes come from the anonymized block ``B1``
(which, by the symmetry of ``Gk``, has the same label distribution as
``Gk`` — the observation the paper uses to justify estimating over the
first block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graph.attributed import AttributedGraph
from repro.graph.stats import GraphStatistics


def label_combination_cost(
    groups: Sequence[Sequence[str]],
    graph_frequency: Mapping[str, float],
    workload_frequency: Mapping[str, float],
) -> float:
    """Definition 7: ``cost(P) = Σ_groups (Σ F^l_G)(Σ F^l_Savg)``.

    ``groups`` partitions the labels of one (vertex type, attribute)
    universe; the two frequency maps give ``F^l_G(j, i)`` on the
    original graph and ``F^l_Savg(j, i)`` on the average star query.
    """
    total = 0.0
    for group in groups:
        g_mass = sum(graph_frequency.get(label, 0.0) for label in group)
        s_mass = sum(workload_frequency.get(label, 0.0) for label in group)
        total += g_mass * s_mass
    return total


def average_star_search_space(
    per_attribute_costs: Mapping[tuple[str, str], float],
    type_frequency_product: float,
    vertex_count: int,
    average_degree: float,
    average_center_degree: float,
    k: int,
) -> float:
    """Expression 5: the average-case bound on ``|R(S_avg)|``.

    ``per_attribute_costs`` are Definition-7 costs per (type, attr);
    the remaining arguments supply the structural factors
    ``|V(Gk)| * D(Gk)^{Dc}/k`` and the type-match probability.  Only
    used for reporting/ablation — the decomposition uses the concrete
    per-star estimator below.
    """
    label_term = sum(per_attribute_costs.values()) * type_frequency_product
    structural = vertex_count * (average_degree ** average_center_degree) / max(k, 1)
    return (label_term ** (average_center_degree + 1)) * structural


@dataclass
class StarCardinalityEstimator:
    """Estimate ``|R(S)|`` for a concrete star over the outsourced graph.

    Parameters
    ----------
    block_stats:
        Frequency profile of the published block ``B1`` (group space).
    gk_vertex_count:
        ``|V(Gk)| = k * |B1|``.
    average_degree:
        ``D(Gk)``: average degree of ``B1`` vertices inside ``Go``
        (every ``Gk`` edge incident to ``B1`` is present in ``Go``, so
        this equals their true ``Gk`` degree).
    k:
        The privacy parameter.
    """

    block_stats: GraphStatistics
    gk_vertex_count: int
    average_degree: float
    k: int

    def vertex_match_probability(self, vertex) -> float:
        """P(a random Gk vertex matches query vertex ``vertex``).

        Type probability times the product of its label-group
        frequencies (independence assumption, as in the paper).
        """
        p = self.block_stats.frequency_of_type(vertex.vertex_type)
        for attr, groups in vertex.labels.items():
            for group in groups:
                p *= self.block_stats.frequency_of_label(
                    vertex.vertex_type, attr, group
                )
        return p

    def estimate(self, star_graph: AttributedGraph, center: int) -> float:
        """Expression 4 for a star rooted at ``center``."""
        probability = self.vertex_match_probability
        return self.star_size(
            probability(star_graph.vertex(center)),
            [probability(star_graph.vertex(v)) for v in star_graph.neighbors(center)],
        )

    def star_size(self, center_probability: float, leaf_probabilities) -> float:
        """Expression 4 from the match probabilities of a star's vertices.

        First factor: expected number of candidate centers inside
        ``B1`` — ``(|V(Gk)|/k) * P(center matches)``.
        Second factor: the neighbour search space —
        ``Π_leaves D(Gk) * P(leaf matches)``, multiplied in the order given.
        """
        candidates = (self.gk_vertex_count / self.k) * center_probability
        neighbour_space = 1.0
        for probability in leaf_probabilities:
            neighbour_space *= self.average_degree * probability
        return candidates * neighbour_space


def measure_delta_k(
    original_stats: GraphStatistics,
    gk_stats: GraphStatistics,
    lct,
    aggregate: str = "max",
) -> float:
    """The paper's δ(k) (Section 5.1), measured on actual artifacts.

    The cost-model bound uses ``F^g_Gk(j,i) <= (1+δ(k)) · Σ_m
    F^l_G(j, p_m)``: the group frequency on the *published* graph can
    exceed the summed raw-label frequencies on the *original* graph
    only because the symmetric row-union copies groups onto (up to k-1)
    extra vertices.

    ``aggregate="max"`` is the literal constant of the paper's bound
    (worst group).  On any graph with rare groups it approaches its
    ceiling ``k-1`` — a rare group's carriers rarely coincide with
    their own twins — so the paper's empirical claim that δ(k) stays
    "far less than 1 when k is small" is better read against the
    *typical* inflation, ``aggregate="mean"``.  Groups with zero raw
    mass on the original graph are skipped (the bound is vacuous
    there).
    """
    if aggregate not in ("max", "mean"):
        raise ValueError("aggregate must be 'max' or 'mean'")
    inflations: list[float] = []
    for gid in lct.group_ids():
        keys = lct._members[gid]  # [(type, attr, label), ...]
        vertex_type, attribute = keys[0][0], keys[0][1]
        raw_mass = sum(
            original_stats.frequency_of_label(vertex_type, attribute, label)
            for (_, _, label) in keys
        )
        if raw_mass <= 0.0:
            continue
        group_mass = gk_stats.frequency_of_label(vertex_type, attribute, gid)
        inflations.append(max(0.0, group_mass / raw_mass - 1.0))
    if not inflations:
        return 0.0
    if aggregate == "max":
        return max(inflations)
    return sum(inflations) / len(inflations)


def estimator_from_outsourced(
    block_vertices: Sequence[int],
    outsourced_graph: AttributedGraph,
    k: int,
) -> StarCardinalityEstimator:
    """Build the estimator the cloud uses, from ``Go`` and ``B1``.

    Statistics are those of the ``B1``-induced part of ``Go``, counted
    in place; degrees are taken from ``Go`` (complete for ``B1`` vertices).
    """
    from repro.graph.stats import vertex_statistics

    inside = set(block_vertices)
    stats = vertex_statistics(
        map(outsourced_graph.vertex, inside),
        sum(len(outsourced_graph.neighbors(v) & inside) for v in inside) // 2,
    )
    members = list(block_vertices)
    if members:
        avg_degree = sum(outsourced_graph.degree(v) for v in members) / len(members)
    else:
        avg_degree = 0.0
    return StarCardinalityEstimator(
        block_stats=stats,
        gk_vertex_count=k * len(members),
        average_degree=avg_degree,
        k=k,
    )
