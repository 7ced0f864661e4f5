"""Unit tests for the columnar MatchTable representation and codecs."""

import pytest

from repro.core.protocol import decode_answer_table, encode_answer_table
from repro.exceptions import ProtocolError
from repro.matching import (
    MatchTable,
    dedupe_rows,
    row_getter,
    vec,
)
from tests.oracle import decode_answer, encode_answer

needs_numpy = pytest.mark.skipif(
    not vec.HAVE_NUMPY, reason="column storage is int64 ndarrays"
)


class TestRowGetter:
    def test_multi_column(self):
        getter = row_getter([2, 0])
        assert getter((10, 11, 12)) == (12, 10)

    def test_single_column_returns_tuple(self):
        getter = row_getter([1])
        assert getter((10, 11, 12)) == (11,)

    def test_zero_columns(self):
        getter = row_getter([])
        assert getter((10, 11)) == ()


class TestMatchTable:
    def test_from_matches_round_trip(self):
        matches = [{1: 10, 2: 20}, {2: 21, 1: 11}]
        table = MatchTable.from_matches(matches, (1, 2))
        assert table.rows == [(10, 20), (11, 21)]
        assert table.to_matches() == matches

    def test_from_rows_validates_width(self):
        with pytest.raises(ValueError):
            MatchTable.from_rows((1, 2), [(10, 20), (30,)])

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            MatchTable((1, 1))

    def test_column_lookup(self):
        table = MatchTable((3, 1, 2))
        assert table.column_of(1) == 1
        assert table.has_column(2)
        assert not table.has_column(9)

    def test_project_rows_reorders(self):
        table = MatchTable((1, 2, 3), [(10, 20, 30), (11, 21, 31)])
        assert table.project_rows([3, 1]) == [(30, 10), (31, 11)]
        # identical order short-circuits to a copy
        copy = table.project_rows((1, 2, 3))
        assert copy == table.rows and copy is not table.rows

    def test_projected_and_eq(self):
        table = MatchTable((1, 2), [(10, 20)])
        assert table.projected((2, 1)) == MatchTable((2, 1), [(20, 10)])
        assert table != MatchTable((1, 2), [(10, 21)])

    def test_deduped_first_seen_order(self):
        table = MatchTable((1,), [(3,), (1,), (3,), (2,), (1,)])
        assert table.deduped().rows == [(3,), (1,), (2,)]

    def test_dedupe_rows_keeps_first(self):
        assert dedupe_rows([(1, 2), (1, 2), (2, 1)]) == [(1, 2), (2, 1)]

    def test_iter_and_len(self):
        table = MatchTable((1, 2), [(10, 20), (11, 21)])
        assert len(table) == 2
        assert list(table) == [(10, 20), (11, 21)]


def int64_columns(rows):
    return [vec.np.array(col, dtype=vec.np.int64) for col in zip(*rows)]


class TestFlatColumnStorage:
    """The flat-column physical layout behind the same MatchTable API."""

    def _columnar(self):
        cols = int64_columns([(10, 20), (11, 21), (12, 22)])
        return MatchTable.from_columns((1, 2), cols, 3)

    @needs_numpy
    def test_from_columns_is_columnar_until_rows_read(self):
        table = self._columnar()
        assert table.is_columnar()
        assert len(table) == 3
        # materializing .rows yields Python-int tuples and drops the
        # column vectors for good (mutation through .rows stays safe)
        rows = table.rows
        assert rows == [(10, 20), (11, 21), (12, 22)]
        assert all(type(v) is int for row in rows for v in row)
        assert not table.is_columnar()
        assert table.columns() is None

    def test_from_columns_width_zero_stays_rows_backed(self):
        table = MatchTable.from_columns((), [], 4)
        assert not table.is_columnar()
        assert table.rows == [(), (), (), ()]

    @needs_numpy
    def test_as_columns_converts_without_caching(self):
        table = MatchTable((1, 2), [(10, 20), (11, 21)])
        cols = table.as_columns()
        assert cols is not None
        assert [vec.ints(col) for col in cols] == [[10, 11], [20, 21]]
        assert not table.is_columnar()  # conversion never caches
        # later row mutations therefore cannot go stale
        table.rows.append((12, 22))
        cols2 = table.as_columns()
        assert cols2 is not None
        assert [vec.ints(col) for col in cols2] == [[10, 11, 12], [20, 21, 22]]

    def test_as_columns_none_for_non_int64_rows(self):
        table = MatchTable((1,), [(1 << 70,)])
        assert table.as_columns() is None
        table = MatchTable((1,), [("nope",)])  # untrusted decoded value
        assert table.as_columns() is None

    def test_as_columns_none_on_the_tuple_arm(self):
        """No numpy, or numpy pinned off: "stay on the tuple path"."""
        with vec.override("rows"):
            assert MatchTable((1, 2), [(10, 20)]).as_columns() is None
            assert vec.backend() == "rows"

    def test_unknown_mode_rejected(self):
        for name in ("flat", "columns", ""):  # "flat" was retired
            with pytest.raises(ValueError, match="unknown vec mode"):
                with vec.override(name):
                    pass
        assert vec.mode() == "auto"

    @needs_numpy
    def test_projected_preserves_columnar_layout(self):
        table = self._columnar()
        swapped = table.projected((2, 1))
        assert swapped.is_columnar()
        assert swapped.rows == [(20, 10), (21, 11), (22, 12)]

    @needs_numpy
    def test_project_rows_from_columns(self):
        table = self._columnar()
        assert table.project_rows([2]) == [(20,), (21,), (22,)]

    @needs_numpy
    def test_deduped_matches_row_kernel(self):
        rows = [(3, 1), (1, 2), (3, 1), (2, 2), (1, 2)]
        reference = MatchTable((1, 2), list(rows)).deduped().rows
        table = MatchTable.from_columns((1, 2), int64_columns(rows), len(rows))
        with vec.override("numpy"):
            assert table.deduped().rows == reference

    @needs_numpy
    def test_to_matches_from_columns(self):
        assert self._columnar().to_matches() == [
            {1: 10, 2: 20},
            {1: 11, 2: 21},
            {1: 12, 2: 22},
        ]


class TestProtocolTableFraming:
    def test_bytes_identical_to_dict_encoder(self):
        matches = [{1: 10, 2: 20}, {1: 11, 2: 21}]
        order = [1, 2]
        table = MatchTable.from_matches(matches, order)
        for expanded in (False, True):
            assert encode_answer_table(table, order, expanded) == encode_answer(
                matches, order, expanded
            )

    def test_round_trip(self):
        table = MatchTable((2, 1), [(20, 10), (21, 11)])
        payload = encode_answer_table(table, [1, 2], True)
        decoded, expanded = decode_answer_table(payload)
        assert expanded is True
        assert decoded.schema == (1, 2)
        assert decoded.rows == [(10, 20), (11, 21)]
        # and the dict decoder reads the same message
        dict_decoded, _ = decode_answer(payload)
        assert dict_decoded == decoded.to_matches()

    def test_empty_table(self):
        table = MatchTable((1, 2))
        decoded, expanded = decode_answer_table(
            encode_answer_table(table, [1, 2], False)
        )
        assert decoded.rows == [] and expanded is False

    def test_malformed_rows_rejected(self):
        with pytest.raises(ProtocolError):
            decode_answer_table(b'{"order":[1,2],"rows":[[1]],"expanded":false}')
        with pytest.raises(ProtocolError):
            decode_answer_table(b"not json")
        with pytest.raises(ProtocolError):
            decode_answer_table(b'{"rows":[],"expanded":false}')
