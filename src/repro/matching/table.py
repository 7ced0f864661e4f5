"""Columnar match tables — the hot-path result representation.

Every result set between Algorithm 1's star matching and Algorithm 3's
client filter is a :class:`MatchTable`; the dict-based
:data:`~repro.matching.match.Match` form exists only at the system
boundary (``QueryOutcome.matches``, ``CloudAnswer.matches``).  The
per-query inner loops touch millions of candidate matches, and one
``dict[int, int]`` per candidate would make allocation, hashing and
``match_key`` re-sorting the dominant cost of the pipeline.

A :class:`MatchTable` stores a result set *columnar*: a fixed
``schema`` (the query vertex ids, in a canonical order) shared by every
row, plus flat tuple rows holding only the data vertex ids.  That buys

* **one schema per table** instead of one key set per match — a row is
  ``len(schema)`` machine ints, not a hash table;
* **O(1) canonical keys** — with a fixed column order the row tuple
  *is* the canonical key, so dedupe never re-sorts
  (:func:`~repro.matching.match.match_key` sorted every match);
* **positional kernels** — joins extract keys by column index, the AVT
  expansion remaps ids column-wise, and the client filter checks
  precomputed column pairs, all without dict lookups or merges;
* **structural sharing** — rows are immutable tuples, so tables can be
  sliced, cached and shipped across threads without defensive copies
  (the parallel batched engine's read-only contract holds for free).

Conversion to and from the dict form lives at the boundary
(:meth:`MatchTable.from_matches` / :meth:`MatchTable.to_matches`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.markers import hot_path
from repro.matching import vec
from repro.matching.match import Match

#: One match in tabular form: the data vertex ids, in schema order.
Row = tuple[int, ...]


def row_getter(indices: Sequence[int]) -> Callable[[Row], Row]:
    """A fast column extractor: ``getter(row) == tuple(row[i] for i in indices)``.

    Wraps :func:`operator.itemgetter`, papering over its scalar return
    for a single index and supporting the zero-column projection (which
    joins on fully shared schemas need).
    """
    if len(indices) == 1:
        index = indices[0]

        def single(row: Row) -> Row:
            return (row[index],)

        return single
    if not indices:

        def empty(row: Row) -> Row:
            return ()

        return empty
    # itemgetter already returns a tuple for two or more indices and is
    # the fastest projection primitive CPython offers (C-level).
    getter: Callable[[Row], Row] = itemgetter(*indices)
    return getter


@hot_path
def dedupe_rows(rows: Iterable[Row]) -> list[Row]:
    """Drop duplicate rows, preserving first-seen order.

    The columnar replacement for
    :func:`~repro.matching.match.dedupe_matches`: under a fixed schema
    the row tuple is already the canonical (sorted-column) key, so no
    per-match sort is ever performed.
    """
    seen: set[Row] = set()
    add = seen.add
    out: list[Row] = []
    append = out.append
    for row in rows:
        if row not in seen:
            add(row)
            append(row)
    return out


class MatchTable:
    """A result set ``R(·)`` in columnar form.

    ``schema`` is the tuple of query vertex ids defining the column
    order.  A table holds its matches in one of two physical layouts:

    * **tuple rows** — a list of equally wide tuples of data vertex
      ids (the reference layout every consumer understands), or
    * **flat columns** — one int64 ndarray per column
      (:mod:`repro.matching.vec`), which is what the vectorized kernels
      produce and consume; without numpy every table is rows-backed.

    The two are interchangeable: reading :attr:`rows` on a
    flat-column table materializes the tuple rows (as Python ints, so
    hashing and the cache codecs are bit-identical to the tuple
    pipeline) and the table stays rows-backed from then on.
    The constructor **trusts** its arguments on the hot path — rows
    must already be tuples of the schema's width (use
    :meth:`from_rows` for validated construction from untrusted data).

    Tables returned by the pipeline kernels are always freshly
    allocated and their rows are immutable, so sharing a table across
    threads (or caching it) needs no defensive copying.
    """

    __slots__ = ("schema", "_column", "_rows", "_cols", "_length")

    def __init__(
        self, schema: Iterable[int], rows: list[Row] | None = None
    ) -> None:
        self.schema: tuple[int, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError("duplicate query vertex in MatchTable schema")
        # the column-index map is built on first lookup: the star
        # matching kernel constructs one table per star call and many
        # of them are never probed by name
        self._column: dict[int, int] | None = None
        self._rows: list[Row] | None = rows if rows is not None else []
        self._cols: list[vec.Flat] | None = None
        self._length: int = len(self._rows) if self._rows is not None else 0

    # ------------------------------------------------------------------
    # physical layout
    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[Row]:
        """The matches as tuple rows (materialized from columns lazily).

        The returned list is the table's own storage — callers that
        mutate it (the shard merge does) leave the table consistently
        rows-backed, because materialization drops the column vectors.
        """
        if self._rows is None:
            cols = self._cols
            assert cols is not None
            self._rows = vec.rows_from_columns(cols, self._length)
            self._cols = None
        return self._rows

    @rows.setter
    def rows(self, rows: list[Row]) -> None:
        self._rows = rows
        self._cols = None
        self._length = len(rows)

    def is_columnar(self) -> bool:
        """Whether the table currently holds flat column vectors."""
        return self._cols is not None

    def columns(self) -> list[vec.Flat] | None:
        """The flat column vectors, or ``None`` when rows-backed.

        The vectors are the table's storage — treat them as read-only.
        """
        return self._cols

    def as_columns(self) -> list[vec.Flat] | None:
        """Flat column vectors of this table, converting if needed.

        Rows-backed tables are converted (without caching, so a later
        ``rows.extend`` cannot go stale); ``None`` — numpy absent or
        pinned off, or rows not representable as int64 (untrusted
        decoded values) — means the caller must stay on the tuple path.
        """
        if self._cols is not None:
            return self._cols
        rows = self._rows
        assert rows is not None
        return vec.columns_from_rows(rows, len(self.schema))

    # ------------------------------------------------------------------
    # construction / boundary adapters
    # ------------------------------------------------------------------
    @classmethod
    def from_matches(
        cls, matches: Iterable[Mapping[int, int]], schema: Iterable[int]
    ) -> "MatchTable":
        """Tabulate dict matches (each must cover every schema vertex)."""
        table = cls(schema)
        order = table.schema
        table.rows = [tuple(match[q] for q in order) for match in matches]
        return table

    @classmethod
    def from_rows(
        cls, schema: Iterable[int], rows: Iterable[Sequence[int]]
    ) -> "MatchTable":
        """Validated construction from untrusted (decoded) data.

        Rows are re-tupled and width-checked, and every cell must be
        exactly an ``int`` — ``bool``/``float``/``str``/nested-list
        cells would otherwise flow into the client filter as vertex
        ids (or crash it unhashable).  Raises ``ValueError``.  (Wire
        frames carry packed column bytes and are validated by the
        protocol decoders instead.)
        """
        table = cls(schema)
        width = len(table.schema)
        out: list[Row] = []
        append = out.append
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise ValueError(
                    f"row width {len(tup)} does not match schema width {width}"
                )
            for value in tup:
                if type(value) is not int:
                    raise ValueError(
                        f"{type(value).__name__} cell is not an integer "
                        "vertex id"
                    )
            append(tup)
        table.rows = out
        return table

    @classmethod
    def from_columns(
        cls, schema: Iterable[int], cols: list[vec.Flat], length: int
    ) -> "MatchTable":
        """A flat-column table over per-column int64 vectors (trusted)."""
        table = cls(schema)
        if not cols:
            # width-0 tables stay rows-backed: there is no vector to
            # carry the row count, only the count itself.
            table.rows = [() for _ in range(length)]
            return table
        table._rows = None
        table._cols = cols
        table._length = length
        return table

    @hot_path
    def to_matches(self) -> list[Match]:
        """The boundary adapter back to dict-form matches."""
        schema = self.schema
        return [dict(zip(schema, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    def _column_map(self) -> dict[int, int]:
        column = self._column
        if column is None:
            column = self._column = {
                q: i for i, q in enumerate(self.schema)
            }
        return column

    def column_of(self, q: int) -> int:
        """Column index of query vertex ``q`` (raises ``KeyError``)."""
        return self._column_map()[q]

    def has_column(self, q: int) -> bool:
        return q in self._column_map()

    def __len__(self) -> int:
        rows = self._rows
        if rows is not None:
            return len(rows)
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchTable):
            return NotImplemented
        return self.schema == other.schema and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchTable(schema={self.schema}, rows={len(self)})"

    # ------------------------------------------------------------------
    # columnar kernels
    # ------------------------------------------------------------------
    @hot_path
    def project_rows(self, order: Sequence[int]) -> list[Row]:
        """Rows with columns re-ordered to ``order`` (a schema subset)."""
        if tuple(order) == self.schema:
            return list(self.rows)
        column = self._column_map()
        indices = [column[q] for q in order]
        cols = self._cols
        if cols is not None:
            return vec.rows_from_columns(
                [cols[i] for i in indices], self._length
            )
        getter = row_getter(indices)
        return [getter(row) for row in self.rows]

    def projected(self, order: Sequence[int]) -> "MatchTable":
        """A new table over the same matches with columns in ``order``."""
        order_t = tuple(order)
        cols = self._cols
        if cols is not None:
            column = self._column_map()
            return MatchTable.from_columns(
                order_t, [cols[column[q]] for q in order_t], self._length
            )
        return MatchTable(order_t, self.project_rows(order_t))

    def deduped(self) -> "MatchTable":
        """A new table with duplicate rows dropped (first-seen order)."""
        cols = self._cols
        if cols is not None and vec.vectorize(self._length):
            keep = vec.first_seen_row_indices(cols)
            return MatchTable.from_columns(
                self.schema, [col[keep] for col in cols], len(keep)
            )
        return MatchTable(self.schema, dedupe_rows(self.rows))
