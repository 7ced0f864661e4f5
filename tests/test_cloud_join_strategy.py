"""Rin vs the straightforward full expansion it replaces.

The server only ever returns ``Rin``; the "full" strategy is its
expansion through the AVT (``benchmarks/bench_ablation_rin.py`` times
the two against each other).
"""

import pytest

from repro.cloud import CloudServer, expand_star_table
from repro.matching import find_subgraph_matches, match_key


@pytest.fixture
def rin(figure1_pipeline):
    pipe = figure1_pipeline
    server = CloudServer(
        pipe.outsourced.graph,
        pipe.transform.avt,
        pipe.outsourced.block_vertices,
    )
    answer = server.answer(pipe.qo)
    assert not answer.expanded
    return pipe, answer


class TestFullJoinStrategy:
    def test_full_returns_expanded_candidates(self, rin):
        pipe, rin_answer = rin
        direct = {
            match_key(m) for m in find_subgraph_matches(pipe.qo, pipe.transform.gk)
        }
        # Rin expanded through the AVT is all of R(Qo, Gk)
        expanded_rin = {
            match_key(m)
            for m in expand_star_table(
                rin_answer.table, pipe.transform.avt
            ).to_matches()
        }
        assert expanded_rin == direct

    def test_full_join_produces_k_times_more_tuples(self, rin):
        pipe, rin_answer = rin
        full = expand_star_table(rin_answer.table, pipe.transform.avt)
        # the whole point of Rin: the cloud materializes a 1/k slice
        assert len(full) == pipe.transform.k * len(rin_answer.table)
