"""Soak test: one moderately large end-to-end deployment.

Slower than the unit tests (~10-20 s) but still CI-friendly; exercises
the pipeline at several times the scale of the other integration tests
to catch scale-dependent bugs (id handling, mask widths, recursion).
"""

import pytest

from repro import PrivacyPreservingSystem, SystemConfig
from repro.kauto import verify_k_automorphism
from repro.matching import find_subgraph_matches, match_key
from repro.workloads import generate_workload, load_dataset


@pytest.mark.parametrize("dataset_name", ["Web-NotreDame"])
def test_moderate_scale_deployment(dataset_name):
    dataset = load_dataset(dataset_name, scale=0.5)  # ~750 vertices
    assert dataset.graph.vertex_count >= 700

    workload = generate_workload(dataset.graph, 6, 5, seed=41)
    system = PrivacyPreservingSystem.setup(
        dataset.graph,
        dataset.schema,
        SystemConfig(k=4, max_intermediate_results=500_000),
        sample_workload=workload,
    )

    transform = system.published.transform
    verify_k_automorphism(transform.gk, transform.avt)
    assert transform.gk.vertex_count >= 4 * (dataset.graph.vertex_count // 4)

    for query in workload:
        outcome = system.query(query)
        oracle = {match_key(m) for m in find_subgraph_matches(query, dataset.graph)}
        assert {match_key(m) for m in outcome.matches} == oracle
        # the wire really carried everything
        assert outcome.metrics.answer_bytes > 0

    # deep id space: the bitset index handled ~800-bit masks
    assert system.cloud.index.size_bytes() > 0
