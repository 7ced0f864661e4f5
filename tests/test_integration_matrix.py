"""Integration matrix: exactness across datasets × methods × k.

One systematic sweep through the deployment space the benchmarks
exercise, at a small scale, asserting the end-to-end contract (exact
results, sane metrics) in every cell.
"""

import pytest

from repro import MethodConfig, PrivacyPreservingSystem, QueryOptions, SystemConfig
from repro.matching import find_subgraph_matches, match_key
from repro.workloads import generate_workload, load_dataset

DATASETS = ["Web-NotreDame", "DBpedia", "UK-2002"]
METHODS = ["EFF", "RAN", "FSIM", "BAS"]


@pytest.fixture(scope="module")
def corpus():
    """Datasets and workloads shared across the matrix."""
    out = {}
    for name in DATASETS:
        dataset = load_dataset(name, scale=0.08)
        workload = generate_workload(dataset.graph, 4, 3, seed=31)
        oracles = [
            {match_key(m) for m in find_subgraph_matches(q, dataset.graph)}
            for q in workload
        ]
        out[name] = (dataset, workload, oracles)
    return out


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [2, 4])
def test_cell_exactness(corpus, dataset_name, method, k):
    dataset, workload, oracles = corpus[dataset_name]
    system = PrivacyPreservingSystem.setup(
        dataset.graph,
        dataset.schema,
        SystemConfig(k=k, method=MethodConfig.from_name(method)),
        sample_workload=workload,
    )
    for query, oracle in zip(workload, oracles):
        outcome = system.query(query)
        assert {match_key(m) for m in outcome.matches} == oracle
        metrics = outcome.metrics
        assert metrics.method == method
        assert metrics.k == k
        assert metrics.candidate_count >= metrics.result_count
        assert metrics.answer_bytes > 0


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_cell_with_all_extensions_on(corpus, dataset_name):
    """Every optional engine feature enabled at once stays exact."""
    dataset, workload, oracles = corpus[dataset_name]
    system = PrivacyPreservingSystem.setup(
        dataset.graph,
        dataset.schema,
        SystemConfig(
            k=3,
            label_aware_alignment=True,
            max_intermediate_results=500_000,
        ),
        sample_workload=workload,
    )
    for query, oracle in zip(workload + workload, oracles + oracles):
        outcome = system.query(query)
        assert {match_key(m) for m in outcome.matches} == oracle


class TestMultiAttributeTypes:
    """The paper's DBpedia has ~101 attributes over 86 types; exercise
    multi-attribute schemas end to end."""

    def test_three_attributes_per_type(self):
        from repro.graph import make_schema, random_attributed_graph
        from repro.workloads import generate_workload

        schema = make_schema(3, 3, 8)
        graph = random_attributed_graph(
            schema, 90, edges_per_vertex=2, labels_per_vertex=1, seed=17
        )
        workload = generate_workload(graph, 3, 3, seed=5)
        system = PrivacyPreservingSystem.setup(
            graph, schema, SystemConfig(k=3), sample_workload=workload
        )
        for query in workload:
            outcome = system.query(query)
            oracle = {match_key(m) for m in find_subgraph_matches(query, graph)}
            assert {match_key(m) for m in outcome.matches} == oracle

    def test_lct_groups_per_attribute(self):
        from repro.graph import make_schema, random_attributed_graph

        schema = make_schema(2, 3, 6)
        graph = random_attributed_graph(schema, 40, seed=1)
        system = PrivacyPreservingSystem.setup(graph, schema, SystemConfig(k=2))
        lct = system.published.lct
        # every (type, attribute) universe got its own groups: 6 labels
        # at theta=2 -> 3 groups x 3 attributes x 2 types
        assert lct.group_count() == 18


class TestResultLimit:
    def test_limit_returns_subset(self, corpus):
        dataset, workload, oracles = corpus["DBpedia"]
        system = PrivacyPreservingSystem.setup(
            dataset.graph, dataset.schema, SystemConfig(k=2), sample_workload=workload
        )
        query, oracle = workload[0], oracles[0]
        limited = system.query(query, options=QueryOptions(max_results=1))
        assert len(limited.matches) == min(1, len(oracle))
        assert {match_key(m) for m in limited.matches} <= oracle

    def test_limit_larger_than_results_is_harmless(self, corpus):
        dataset, workload, oracles = corpus["DBpedia"]
        system = PrivacyPreservingSystem.setup(
            dataset.graph, dataset.schema, SystemConfig(k=2), sample_workload=workload
        )
        outcome = system.query(workload[0], options=QueryOptions(max_results=10_000))
        assert {match_key(m) for m in outcome.matches} == oracles[0]
