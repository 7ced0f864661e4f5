"""Unit tests for cost-model-driven query decomposition."""

import pytest

from repro.anonymize import estimator_from_outsourced
from repro.cloud import decompose_query, estimate_all_stars
from repro.exceptions import QueryError
from repro.graph import AttributedGraph


@pytest.fixture
def estimator(figure1_pipeline):
    pipe = figure1_pipeline
    return estimator_from_outsourced(
        pipe.outsourced.block_vertices, pipe.outsourced.graph, pipe.transform.k
    )


class TestDecomposeQuery:
    def test_covers_every_edge(self, figure1_pipeline, estimator):
        decomposition = decompose_query(figure1_pipeline.qo, estimator)
        assert decomposition.covers(figure1_pipeline.qo)

    def test_star_roots_form_a_vertex_cover(self, figure1_pipeline, estimator):
        decomposition = decompose_query(figure1_pipeline.qo, estimator)
        roots = {star.center for star in decomposition.stars}
        for u, v in figure1_pipeline.qo.edges():
            assert u in roots or v in roots

    def test_figure6_shape(self, figure1_pipeline, estimator):
        """The paper decomposes Qo into the two person-rooted stars."""
        decomposition = decompose_query(figure1_pipeline.qo, estimator)
        # 2 stars suffice for the 4-edge path query; the optimum never
        # needs more than 2 roots here
        assert len(decomposition.stars) <= 3
        assert decomposition.covers(figure1_pipeline.qo)

    def test_estimates_attached(self, figure1_pipeline, estimator):
        decomposition = decompose_query(figure1_pipeline.qo, estimator)
        for star in decomposition.stars:
            assert star.center in decomposition.estimated_sizes

    def test_single_vertex_query(self, estimator):
        query = AttributedGraph()
        query.add_vertex(0, "person")
        decomposition = decompose_query(query, estimator)
        assert len(decomposition.stars) == 1
        assert decomposition.stars[0].center == 0
        assert decomposition.stars[0].leaves == ()

    def test_empty_query_rejected(self, estimator):
        with pytest.raises(QueryError):
            decompose_query(AttributedGraph(), estimator)

    def test_multiple_isolated_vertices_rejected(self, estimator):
        query = AttributedGraph()
        query.add_vertex(0, "person")
        query.add_vertex(1, "person")
        with pytest.raises(QueryError):
            decompose_query(query, estimator)


class TestEstimateAllStars:
    def test_every_non_isolated_vertex_estimated(self, figure1_pipeline, estimator):
        estimates = estimate_all_stars(figure1_pipeline.qo, estimator)
        assert set(estimates) == set(figure1_pipeline.qo.vertex_ids())
        assert all(value >= 0 for value in estimates.values())

    def test_equals_the_per_star_graph_estimates_bit_for_bit(self):
        """Every estimate is ``==`` (not approx) what ``estimate`` returns
        for the materialized star graph, in the same key order: EXPLAIN
        and the cover's tie-breaks read both."""
        from repro import PrivacyPreservingSystem, SystemConfig
        from repro.matching import star_as_graph, star_of
        from repro.workloads import generate_workload, load_dataset

        data = load_dataset("DBpedia", scale=0.2, seed=3)
        system = PrivacyPreservingSystem.setup(
            data.graph, data.schema, SystemConfig(k=3, seed=3)
        )
        estimator = system.cloud.estimator
        checked = 0
        for edges in (4, 6, 8):
            for query in generate_workload(data.graph, edges, 10, seed=edges):
                qo = system.client.prepare_query(query)
                reference = {
                    v: estimator.estimate(star_as_graph(qo, star_of(qo, v)), v)
                    for v in qo.vertex_ids()
                    if qo.degree(v)
                }
                estimates = estimate_all_stars(qo, estimator)
                assert list(estimates.items()) == list(reference.items())
                checked += len(estimates)
        assert checked > 100
