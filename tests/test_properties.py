"""Property-based tests (hypothesis) on the core invariants.

The heaviest invariant — end-to-end exactness of the whole pipeline
against the VF2 oracle — is exercised over randomly generated graphs,
queries, privacy parameters and strategies.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MethodConfig, PrivacyPreservingSystem, SystemConfig
from repro.anonymize import label_combination_cost
from repro.anonymize.eff import cost_based_grouping
from repro.anonymize.strategies import StrategyContext, group_sizes
from repro.cloud import cover_cost, is_vertex_cover, minimum_weighted_vertex_cover
from repro.graph import AttributedGraph, make_schema, random_attributed_graph
from repro.kauto import (
    build_k_automorphic_graph,
    partition_graph,
    validate_partition,
    verify_k_automorphism,
)
from repro.matching import find_subgraph_matches, match_key
from repro.outsource import build_outsourced_graph, recover_gk
from repro.workloads import random_walk_query

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def small_random_graph(seed: int, n: int) -> AttributedGraph:
    schema = make_schema(2, 1, 4)
    return random_attributed_graph(schema, n, edges_per_vertex=2, seed=seed), schema


class TestEndToEndExactness:
    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 60),
        k=st.integers(2, 4),
        edges=st.integers(1, 4),
        method=st.sampled_from(["EFF", "RAN", "FSIM", "BAS"]),
    )
    def test_pipeline_equals_oracle(self, seed, n, k, edges, method):
        graph, schema = small_random_graph(seed, n)
        query = random_walk_query(graph, edges, seed=seed + 1)
        system = PrivacyPreservingSystem.setup(
            graph,
            schema,
            SystemConfig(k=k, method=MethodConfig.from_name(method), seed=seed),
        )
        outcome = system.query(query)
        oracle = {match_key(m) for m in find_subgraph_matches(query, graph)}
        assert {match_key(m) for m in outcome.matches} == oracle


class TestKAutomorphismProperties:
    @SLOW
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 80), k=st.integers(2, 5))
    def test_transform_invariants(self, seed, n, k):
        graph, _ = small_random_graph(seed, n)
        result = build_k_automorphic_graph(graph, k, seed=seed)
        # 1. verified k-automorphic
        verify_k_automorphism(result.gk, result.avt)
        # 2. id-preserving supergraph
        assert graph.vertex_id_set() <= result.gk.vertex_id_set()
        assert all(result.gk.has_edge(u, v) for u, v in graph.edges())
        # 3. block sizes are equal and multiply out to |V(Gk)|
        assert result.gk.vertex_count == k * result.avt.row_count
        # 4. Go recovery is exact
        outsourced = build_outsourced_graph(result.gk, result.avt)
        assert recover_gk(outsourced, result.avt).structure_equal(result.gk)

    @SLOW
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 80), k=st.integers(2, 5))
    def test_partition_is_valid(self, seed, n, k):
        graph, _ = small_random_graph(seed, n)
        blocks = partition_graph(graph, k, seed=seed)
        validate_partition(graph, blocks, k)


class TestGroupingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30),
        theta=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    def test_grouping_partitions_and_respects_theta(self, n, theta, seed):
        import random

        labels = [f"l{i}" for i in range(n)]
        rng = random.Random(seed)
        g = {label: rng.random() for label in labels}
        s = {label: rng.random() for label in labels}
        groups = cost_based_grouping(
            labels, theta, StrategyContext("t", "a", g, s, random.Random(seed))
        )
        flat = sorted(label for grp in groups for label in grp)
        assert flat == sorted(labels)
        if n >= theta:
            assert all(len(grp) >= theta for grp in groups)
        sizes = group_sizes(n, theta)
        assert sorted(len(grp) for grp in groups) == sorted(sizes)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 50))
    def test_eff_is_locally_optimal_under_swaps(self, n, seed):
        """No single cross-group swap can improve EFF's final grouping."""
        import random

        labels = [f"l{i}" for i in range(2 * n)]
        rng = random.Random(seed)
        g = {label: rng.random() for label in labels}
        s = {label: rng.random() for label in labels}
        groups = cost_based_grouping(
            labels, 2, StrategyContext("t", "a", g, s, random.Random(seed))
        )
        base = label_combination_cost(groups, g, s)
        for gi, gj in itertools.combinations(range(len(groups)), 2):
            for a in range(len(groups[gi])):
                for b in range(len(groups[gj])):
                    swapped = [list(grp) for grp in groups]
                    swapped[gi][a], swapped[gj][b] = swapped[gj][b], swapped[gi][a]
                    assert label_combination_cost(swapped, g, s) >= base - 1e-9


class TestVertexCoverProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        density=st.floats(0.2, 0.9),
        seed=st.integers(0, 1000),
    )
    def test_exact_cover_optimality(self, n, density, seed):
        import random

        rng = random.Random(seed)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        if not edges:
            edges = [(0, 1)]
        weights = {v: rng.uniform(0.1, 5.0) for v in range(n)}
        cover = minimum_weighted_vertex_cover(edges, weights)
        assert is_vertex_cover(edges, cover)
        # brute force optimum
        vertices = sorted({v for e in edges for v in e})
        best = min(
            cover_cost(set(combo), weights)
            for r in range(len(vertices) + 1)
            for combo in itertools.combinations(vertices, r)
            if is_vertex_cover(edges, set(combo))
        )
        assert cover_cost(cover, weights) <= best + 1e-9


class TestStarMatchingEquivalence:
    @SLOW
    @given(seed=st.integers(0, 5_000), n=st.integers(15, 50), k=st.integers(2, 3))
    def test_algorithm1_equals_restricted_vf2(self, seed, n, k):
        """Algorithm 1 == VF2 with the center anchored in B1, on
        randomized published graphs and stars."""
        from repro.anonymize import anonymize_query, build_lct, cost_based_grouping
        from repro.cloud import CloudIndex
        from repro.cloud.star_matching import match_star_table
        from repro.graph import compute_statistics
        from repro.matching import star_as_graph, star_of
        from repro.outsource import build_outsourced_graph

        graph, schema = small_random_graph(seed, n)
        query = random_walk_query(graph, 3, seed=seed + 3)
        lct = build_lct(
            schema,
            2,
            cost_based_grouping,
            graph_stats=compute_statistics(graph),
            seed=seed,
        )
        transform = build_k_automorphic_graph(lct.apply_to_graph(graph), k, seed=seed)
        outsourced = build_outsourced_graph(transform.gk, transform.avt)
        index = CloudIndex.build(outsourced.graph, outsourced.block_vertices)
        anonymized = anonymize_query(query, lct)
        block = set(outsourced.block_vertices)

        for center in anonymized.vertex_ids():
            star = star_of(anonymized, center)
            got = {
                match_key(m)
                for m in match_star_table(
                    anonymized, star, index, outsourced.graph
                ).to_matches()
            }
            want = {
                match_key(m)
                for m in find_subgraph_matches(
                    star_as_graph(anonymized, star),
                    outsourced.graph,
                    candidate_filter=lambda q, v, c=center: q != c or v in block,
                )
            }
            assert got == want


class TestMatcherProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 40))
    def test_extracted_query_always_matches(self, seed, n):
        graph, _ = small_random_graph(seed, n)
        query = random_walk_query(graph, 3, seed=seed)
        matches = find_subgraph_matches(query, graph)
        assert matches
        for match in matches:
            assert len(set(match.values())) == len(match)
            for u, v in query.edges():
                assert graph.has_edge(match[u], match[v])
