"""Query decomposition into stars (Section 4.2.1).

The cloud decomposes the outsourced query ``Qo`` into stars whose
roots form a minimum-cost vertex cover, where the cost of a root is
the *estimated* number of star matches ``|R(S(v))|`` from the cost
model.  Fewer/smaller intermediate star results mean a cheaper join.
"""

from __future__ import annotations

from repro.anonymize.cost_model import StarCardinalityEstimator
from repro.cloud.vertex_cover import (
    greedy_weighted_vertex_cover,
    minimum_weighted_vertex_cover,
)
from repro.exceptions import QueryError
from repro.graph.attributed import AttributedGraph
from repro.matching.star import Decomposition, star_of


def estimate_all_stars(
    query: AttributedGraph,
    estimator: StarCardinalityEstimator,
) -> dict[int, float]:
    """Estimated ``|R(S(v))|`` for a star rooted at every query vertex.

    Each ``estimator.estimate(star_as_graph(query, star_of(query, v)), v)``
    to the last bit, without the star graphs: a vertex's match
    probability is computed once, and a star's leaf factors are
    multiplied in the order that graph's neighbour set iterates them
    (a set the leaves entered in ascending order).
    """
    probability = {
        v: estimator.vertex_match_probability(query.vertex(v))
        for v in query.vertex_ids()
    }
    estimates: dict[int, float] = {}
    for center in query.vertex_ids():
        if query.degree(center) == 0:
            continue
        leaves: set[int] = set()
        for leaf in sorted(query.neighbors(center)):
            leaves.add(leaf)
        estimates[center] = estimator.star_size(
            probability[center], [probability[leaf] for leaf in leaves]
        )
    return estimates


def decompose_query(
    query: AttributedGraph,
    estimator: StarCardinalityEstimator,
    strategy: str = "optimal",
) -> Decomposition:
    """Star decomposition of ``query`` under the cost model.

    ``strategy="optimal"`` (the paper's ILP, solved exactly by branch
    and bound) or ``"greedy"`` (coverage-per-weight heuristic for query
    graphs too large for exact search; the result is still a valid
    cover, just possibly costlier).  A single-vertex query decomposes
    into one degenerate star.
    """
    if strategy not in ("optimal", "greedy"):
        raise QueryError(f"unknown decomposition strategy {strategy!r}")
    if query.vertex_count == 0:
        raise QueryError("cannot decompose an empty query")
    if query.edge_count == 0:
        if query.vertex_count > 1:
            raise QueryError("query with multiple isolated vertices")
        center = next(iter(query.vertex_ids()))
        return Decomposition(stars=[star_of(query, center)], estimated_sizes={center: 1.0})

    estimates = estimate_all_stars(query, estimator)
    solver = (
        minimum_weighted_vertex_cover
        if strategy == "optimal"
        else greedy_weighted_vertex_cover
    )
    cover = solver(list(query.edges()), estimates)
    stars = [star_of(query, center) for center in sorted(cover)]
    decomposition = Decomposition(stars=stars, estimated_sizes=estimates)
    if not decomposition.covers(query):
        raise QueryError("internal error: decomposition does not cover the query")
    return decomposition
