"""Stateful property testing of DynamicRelease (hypothesis state machine).

Random interleavings of edge insertions, edge deletions and vertex
insertions must preserve, at every step:

* the k-automorphism invariant of the published graph;
* the id-preserving supergraph property (``G ⊆ Gk``);
* end-to-end exactness of a probe query (checked at teardown).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.anonymize import build_lct, cost_based_grouping
from repro.graph import compute_statistics, make_schema, random_attributed_graph
from repro.graph.validation import assert_supergraph
from repro.kauto import build_k_automorphic_graph, verify_k_automorphism
from repro.kauto.dynamic import DynamicRelease


class DynamicReleaseMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 50))
    def setup(self, seed):
        self.schema = make_schema(2, 1, 4)
        graph = random_attributed_graph(
            self.schema, 16, edges_per_vertex=2, seed=seed
        )
        self.lct = build_lct(
            self.schema,
            2,
            cost_based_grouping,
            graph_stats=compute_statistics(graph),
            seed=seed,
        )
        transform = build_k_automorphic_graph(
            self.lct.apply_to_graph(graph), 2, seed=seed
        )
        self.release = DynamicRelease(graph.copy(), transform, self.lct)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def insert_edge(self, data):
        vertices = sorted(self.release.original.vertex_ids())
        u = data.draw(st.sampled_from(vertices), label="u")
        v = data.draw(st.sampled_from(vertices), label="v")
        if u == v:
            return
        self.release.insert_edge(u, v)

    @rule(data=st.data())
    def delete_edge(self, data):
        edges = sorted(self.release.original.edges())
        if not edges:
            return
        u, v = data.draw(st.sampled_from(edges), label="edge")
        self.release.delete_edge(u, v)

    @precondition(lambda self: self.release.original.vertex_count < 40)
    @rule(type_index=st.integers(0, 1), with_label=st.booleans())
    def insert_vertex(self, type_index, with_label):
        vertex_type = f"t{type_index}"
        labels = None
        if with_label:
            attr = self.schema.attributes_of(vertex_type)[0]
            label = sorted(self.schema.labels_of(vertex_type, attr))[0]
            labels = {attr: [label]}
        self.release.insert_vertex(
            self.release.allocate_vertex_id(), vertex_type, labels
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def gk_is_k_automorphic(self):
        verify_k_automorphism(self.release.gk, self.release.avt)

    @invariant()
    def g_is_subgraph_of_gk(self):
        assert_supergraph(self.release.original, self.release.gk)

    @invariant()
    def noise_never_negative(self):
        assert self.release.noise_edge_count() >= 0

    def teardown(self):
        # end-to-end probe: the pipeline on the final state stays exact
        if not hasattr(self, "release"):
            return
        from repro.anonymize import anonymize_query
        from repro.client import ClientFilter, expand_rin_table
        from repro.cloud import CloudServer
        from repro.matching import find_subgraph_matches, match_key
        from repro.workloads import random_walk_query

        original = self.release.original
        if original.edge_count == 0:
            return
        query = random_walk_query(original, 1, seed=1)
        outsourced = self.release.refresh_outsourced()
        cloud = CloudServer(
            outsourced.graph, self.release.avt, outsourced.block_vertices
        )
        answer = cloud.answer(anonymize_query(query, self.lct))
        candidates = expand_rin_table(answer.table, self.release.avt).table
        exact = ClientFilter(original, query).filter_table(candidates).table
        got = {match_key(m) for m in exact.to_matches()}
        oracle = {match_key(m) for m in find_subgraph_matches(query, original)}
        assert got == oracle


DynamicReleaseMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestDynamicRelease = DynamicReleaseMachine.TestCase
