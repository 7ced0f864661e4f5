"""Unit tests for the Alignment Vertex Table and automorphic functions."""

import pytest

from repro.exceptions import VerificationError
from repro.kauto import AlignmentVertexTable


@pytest.fixture
def avt3() -> AlignmentVertexTable:
    """Two rows, k=3: rows (0,1,2) and (10,11,12)."""
    return AlignmentVertexTable([[0, 1, 2], [10, 11, 12]])


class TestConstruction:
    def test_shape(self, avt3):
        assert avt3.k == 3
        assert avt3.row_count == 2
        assert avt3.block(0) == [0, 10]
        assert avt3.block(2) == [2, 12]
        assert avt3.first_block() == [0, 10]

    def test_ragged_rows_rejected(self):
        with pytest.raises(VerificationError):
            AlignmentVertexTable([[0, 1], [2]])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(VerificationError):
            AlignmentVertexTable([[0, 1], [1, 2]])

    def test_empty_table_rejected(self):
        with pytest.raises(VerificationError):
            AlignmentVertexTable([])

    def test_block_index_out_of_range(self, avt3):
        with pytest.raises(VerificationError):
            avt3.block(3)


class TestAutomorphicFunctions:
    def test_f0_is_identity(self, avt3):
        for vid in avt3.vertex_ids():
            assert avt3.apply(vid, 0) == vid

    def test_f_shifts_blocks_circularly(self, avt3):
        assert avt3.apply(0, 1) == 1
        assert avt3.apply(2, 1) == 0  # wraps around
        assert avt3.apply(10, 2) == 12

    def test_fk_is_identity(self, avt3):
        for vid in avt3.vertex_ids():
            assert avt3.apply(vid, 3) == vid

    def test_fm_equals_f1_iterated(self, avt3):
        f1 = avt3.function(1)
        for vid in avt3.vertex_ids():
            assert avt3.apply(vid, 2) == f1(f1(vid))

    def test_no_fixed_points_for_nonzero_m(self, avt3):
        for m in (1, 2):
            for vid in avt3.vertex_ids():
                assert avt3.apply(vid, m) != vid

    def test_unknown_vertex_raises(self, avt3):
        with pytest.raises(VerificationError):
            avt3.apply(999, 1)

    def test_symmetric_group(self, avt3):
        assert avt3.symmetric_group(11) == (10, 11, 12)

    def test_to_block_anchor(self, avt3):
        m, anchor = avt3.to_block_anchor(12)
        assert anchor == 10
        assert avt3.apply(anchor, m) == 12


class TestMatchMapping:
    def test_apply_to_match(self, avt3):
        match = {0: 0, 1: 11}
        assert avt3.apply_to_match(match, 1) == {0: 1, 1: 12}

    def test_expand_matches_covers_all_shifts(self, avt3):
        expanded = avt3.expand_rows([(0,)])
        assert {row[0] for row in expanded} == {0, 1, 2}
        assert len(expanded) == 3


class TestSerialization:
    def test_round_trip(self, avt3):
        restored = AlignmentVertexTable.from_dict(avt3.to_dict())
        assert restored.k == avt3.k
        assert list(restored.rows()) == list(avt3.rows())

    def test_k_mismatch_rejected(self, avt3):
        data = avt3.to_dict()
        data["k"] = 5
        with pytest.raises(VerificationError):
            AlignmentVertexTable.from_dict(data)
