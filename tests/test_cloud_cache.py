"""Tests for star-match caching in the cloud server."""

import pytest

from repro import MethodConfig, PrivacyPreservingSystem, SystemConfig
from repro.cloud.cache import (
    StarMatchCache,
    in_cold_order,
    leaf_order,
    leaf_role_order,
    roles_to_table,
    star_signature,
    table_to_roles,
)
from repro.graph import AttributedGraph, example_social_network
from repro.matching import MatchTable, Star, find_subgraph_matches, match_key
from repro.workloads import generate_workload, load_dataset


class TestSignature:
    def query_with_two_equivalent_stars(self):
        query = AttributedGraph()
        # star at 0 and star at 3 have identical shapes
        for vid, vertex_type in ((0, "a"), (1, "b"), (2, "b"), (3, "a"), (4, "b"), (5, "b")):
            query.add_vertex(vid, vertex_type)
        query.add_edge(0, 1)
        query.add_edge(0, 2)
        query.add_edge(3, 4)
        query.add_edge(3, 5)
        return query

    def test_equivalent_stars_share_signature(self):
        query = self.query_with_two_equivalent_stars()
        sig_a = star_signature(query, Star(center=0, leaves=(1, 2)))
        sig_b = star_signature(query, Star(center=3, leaves=(4, 5)))
        assert sig_a == sig_b

    def test_different_constraints_differ(self):
        query = self.query_with_two_equivalent_stars()
        query.set_vertex_labels(4, {"x": ["v"]})
        sig_a = star_signature(query, Star(center=0, leaves=(1, 2)))
        sig_b = star_signature(query, Star(center=3, leaves=(4, 5)))
        assert sig_a != sig_b

    def test_role_round_trip(self):
        query = self.query_with_two_equivalent_stars()
        star = Star(center=0, leaves=(1, 2))
        order = leaf_role_order(query, star)
        table = MatchTable((0, 1, 2), [(10, 11, 12), (20, 21, 22)])
        roles = table_to_roles(table, star, order)
        assert roles_to_table(roles, star, order) == table

    def test_a_hit_is_put_in_its_own_cold_order(self):
        """Equal signatures, different nesting: star 0 nests its ``b``
        leaf first, star 3 its ``c`` leaf (both unlabelled, so ids
        decide)."""
        query = AttributedGraph()
        for vid, vertex_type in ((0, "a"), (1, "b"), (2, "c"), (3, "a"), (4, "c"), (5, "b")):
            query.add_vertex(vid, vertex_type)
        for center, leaf in ((0, 1), (0, 2), (3, 4), (3, 5)):
            query.add_edge(center, leaf)
        cold, hit = Star(center=0, leaves=(1, 2)), Star(center=3, leaves=(4, 5))
        assert star_signature(query, cold) == star_signature(query, hit)
        assert leaf_order(query, hit) == [4, 5]  # the c leaf first
        # a cold run: centers in index order (30 before 10), and within
        # a center ascending in (b image, c image)
        table = MatchTable((0, 1, 2), [(30, 11, 22), (30, 12, 21), (10, 13, 23)])
        roles = table_to_roles(table, cold, leaf_role_order(query, cold))
        relabeled = roles_to_table(roles, hit, leaf_role_order(query, hit))
        assert relabeled.rows == [(30, 22, 11), (30, 21, 12), (10, 23, 13)]
        assert in_cold_order(relabeled, leaf_order(query, hit)).rows == [
            (30, 21, 12),
            (30, 22, 11),
            (10, 23, 13),
        ]


class TestLru:
    def test_hit_and_miss_counting(self):
        cache = StarMatchCache(capacity=2)
        assert cache.get(("a",)) is None
        cache.put(("a",), [(1,)])
        assert cache.get(("a",)) == [(1,)]
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_order(self):
        cache = StarMatchCache(capacity=2)
        cache.put(("a",), [])
        cache.put(("b",), [])
        cache.get(("a",))  # a is now most recent
        cache.put(("c",), [])  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert len(cache) == 2

    def test_zero_capacity_stores_nothing(self):
        cache = StarMatchCache(capacity=0)
        cache.put(("a",), [(1,)])
        assert len(cache) == 0

    def test_clear(self):
        cache = StarMatchCache(capacity=2)
        cache.put(("a",), [])
        cache.get(("a",))
        cache.clear()
        assert len(cache) == 0
        assert cache.hit_rate == 0.0


class TestAliasing:
    """Regression: get/put used to hand out the live internal list."""

    def test_mutating_a_hit_does_not_corrupt_later_hits(self):
        cache = StarMatchCache(capacity=4)
        cache.put(("sig",), [(1, 2), (3, 4)])
        first = cache.get(("sig",))
        assert first == [(1, 2), (3, 4)]
        # a buggy caller (or another query's thread) scribbles on it
        first.append((99, 99))
        first[0] = (0, 0)
        second = cache.get(("sig",))
        assert second == [(1, 2), (3, 4)]

    def test_mutating_the_put_list_does_not_corrupt_the_entry(self):
        cache = StarMatchCache(capacity=4)
        roles = [(1, 2)]
        cache.put(("sig",), roles)
        roles.append((7, 8))  # caller keeps (and mutates) its list
        assert cache.get(("sig",)) == [(1, 2)]

    def test_hits_are_independent_copies(self):
        cache = StarMatchCache(capacity=4)
        cache.put(("sig",), [(1, 2)])
        a = cache.get(("sig",))
        b = cache.get(("sig",))
        assert a == b
        assert a is not b

    def test_server_results_survive_caller_mutation(self):
        """End to end: mutating one answer must not change a re-query."""
        graph, schema = example_social_network()
        from repro.graph import example_query

        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2, star_cache_size=32)
        )
        query = example_query()
        first = system.query(query).matches
        baseline = sorted(match_key(m) for m in first)
        # a rogue caller mutates the returned matches in place
        for match in first:
            for key in list(match):
                match[key] = -1
        again = system.query(query).matches
        assert sorted(match_key(m) for m in again) == baseline


class TestThreadSafety:
    def test_concurrent_get_put_is_consistent(self):
        import threading

        cache = StarMatchCache(capacity=16)
        signatures = [(f"s{i}",) for i in range(8)]
        errors: list[AssertionError] = []
        barrier = threading.Barrier(4)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for round_ in range(200):
                    signature = signatures[(seed + round_) % len(signatures)]
                    expected = [(signature[0], 1), (signature[0], 2)]
                    hit = cache.get(signature)
                    if hit is not None:
                        assert hit == expected, f"corrupted entry for {signature}"
                        hit.append(("junk", 0))  # must never leak back
                    else:
                        cache.put(signature, expected)
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        hits, misses = cache.counters()
        assert hits + misses == 4 * 200
        assert len(cache) <= 16


class TestCachedServerCorrectness:
    @pytest.mark.parametrize("method", ["EFF", "BAS"])
    def test_results_identical_with_and_without_cache(self, method):
        dataset = load_dataset("DBpedia", scale=0.1)
        workload = generate_workload(dataset.graph, 4, 6, seed=3)
        plain = PrivacyPreservingSystem.setup(
            dataset.graph,
            dataset.schema,
            SystemConfig(k=2, method=MethodConfig.from_name(method)),
            sample_workload=workload,
        )
        cached = PrivacyPreservingSystem.setup(
            dataset.graph,
            dataset.schema,
            SystemConfig(
                k=2, method=MethodConfig.from_name(method), star_cache_size=64
            ),
            sample_workload=workload,
        )
        for query in workload + workload:  # repeat to force hits
            a = {match_key(m) for m in plain.query(query).matches}
            b = {match_key(m) for m in cached.query(query).matches}
            assert a == b

    def test_cache_gets_hits_on_repeated_workload(self):
        graph, schema = example_social_network()
        from repro.graph import example_query

        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=2, star_cache_size=32)
        )
        query = example_query()
        system.query(query)
        # equivalent stars inside one query may already hit
        hits_after_first = system.cloud.star_cache.hits
        system.query(query)
        assert system.cloud.star_cache.hits > hits_after_first
        oracle = find_subgraph_matches(query, graph)
        assert len(system.query(query).matches) == len(oracle)
