"""Alignment Vertex Table (AVT) and the automorphic functions ``F_m``.

Definition 4 of the paper: each row of the AVT is an *alignment vertex
instance* (AVI) — ``k`` mutually symmetric vertices, one per block.
The automorphic function ``F_m`` maps each vertex ``m`` steps along its
row's circular list, i.e. from block ``b`` to block ``(b + m) mod k``.

The AVT is published to the cloud together with ``Go`` — it contains
only vertex-id pairings, which by construction are symmetric in ``Gk``
and therefore reveal nothing beyond what ``Gk`` itself would.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.markers import hot_path
from repro.exceptions import VerificationError
from repro.matching import vec
from repro.matching.match import Match
from repro.matching.table import MatchTable, Row, dedupe_rows


class AlignmentVertexTable:
    """The AVT: ``rows[i][b]`` is the vertex of row ``i`` in block ``b``."""

    def __init__(self, rows: Iterable[Iterable[int]]):
        self._rows: list[tuple[int, ...]] = [tuple(row) for row in rows]
        if not self._rows:
            raise VerificationError("AVT must have at least one row")
        k = len(self._rows[0])
        if k < 1:
            raise VerificationError("AVT rows must be non-empty")
        self._k = k
        self._position: dict[int, tuple[int, int]] = {}
        for i, row in enumerate(self._rows):
            if len(row) != k:
                raise VerificationError(
                    f"AVT row {i} has {len(row)} entries, expected {k}"
                )
            for b, vid in enumerate(row):
                if vid in self._position:
                    raise VerificationError(f"vertex {vid} appears twice in AVT")
                self._position[vid] = (i, b)
        # Per-shift id-remap lookup tables (``_luts[m][vid] == F_m(vid)``)
        # built lazily on first columnar expansion.  The AVT is immutable
        # after construction, so a duplicated lazy build under a race is
        # benign (both threads compute identical tables; the final
        # assignment is atomic under the GIL).
        self._luts: list[dict[int, int]] | None = None
        # Dense per-shift int64 gather LUTs (``_vluts[0][m][vid]`` ==
        # ``F_m(vid)``, -1 = unknown) plus two flag arrays, membership
        # in the AVT and membership in block ``B1``; the vectorized
        # expansion applies ``F_m`` to a whole column as one
        # fancy-indexing gather.  ``False`` = ineligible (no numpy, or
        # the id space is negative/too sparse); ``None`` = not built yet.
        self._vluts: tuple[list[Any], Any, Any] | None | bool = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def row(self, index: int) -> tuple[int, ...]:
        return self._rows[index]

    def block(self, b: int) -> list[int]:
        """All vertices of block ``b`` (column ``b`` of the table)."""
        if not 0 <= b < self._k:
            raise VerificationError(f"block index {b} out of range for k={self._k}")
        return [row[b] for row in self._rows]

    def first_block(self) -> list[int]:
        """Block ``B1`` — the block shipped to the cloud inside ``Go``."""
        return self.block(0)

    def vertex_ids(self) -> Iterator[int]:
        return iter(self._position)

    def __contains__(self, vid: int) -> bool:
        return vid in self._position

    def positions(self) -> Mapping[int, tuple[int, int]]:
        """``vid -> (row, block)``, read-only: :meth:`position` for per-edge loops."""
        return self._position

    def position(self, vid: int) -> tuple[int, int]:
        """(row, block) of ``vid``."""
        try:
            return self._position[vid]
        except KeyError:
            raise VerificationError(f"vertex {vid} not in AVT") from None

    def block_of(self, vid: int) -> int:
        return self.position(vid)[1]

    def symmetric_group(self, vid: int) -> tuple[int, ...]:
        """The AVI (row) containing ``vid``: all its symmetric vertices."""
        return self._rows[self.position(vid)[0]]

    # ------------------------------------------------------------------
    # automorphic functions
    # ------------------------------------------------------------------
    def apply(self, vid: int, m: int) -> int:
        """``F_m(vid)``: shift ``m`` blocks along the row, circularly."""
        row, block = self.position(vid)
        return self._rows[row][(block + m) % self._k]

    def function(self, m: int) -> Callable[[int], int]:
        """``F_m`` as a callable; ``function(0)`` is the identity."""
        shift = m % self._k

        def f_m(vid: int) -> int:
            row, block = self.position(vid)
            return self._rows[row][(block + shift) % self._k]

        return f_m

    def apply_to_match(self, match: Match, m: int) -> Match:
        """Map a match through ``F_m`` (Definition 4's mapping graph)."""
        shift = m % self._k
        rows = self._rows
        position = self._position
        out: Match = {}
        for q, vid in match.items():
            row, block = position[vid]
            out[q] = rows[row][(block + shift) % self._k]
        return out

    # ------------------------------------------------------------------
    # columnar (row) kernels
    # ------------------------------------------------------------------
    def _remap_luts(self) -> list[dict[int, int]]:
        """``luts[m][vid] == F_m(vid)``: one flat lookup per shift.

        Built once per AVT (lazily) so the columnar expansion applies
        ``F_m`` to a row with a single lookup per value instead of a
        position fetch, two tuple indexings and a per-match dict build.
        """
        luts = self._luts
        if luts is None:
            k = self._k
            rows = self._rows
            luts = [dict() for _ in range(k)]
            for vid, (i, b) in self._position.items():
                row = rows[i]
                for m in range(k):
                    luts[m][vid] = row[(b + m) % k]
            self._luts = luts
        return luts

    @hot_path
    def remap_rows(self, rows: Sequence[Row], m: int) -> list[Row]:
        """``F_m`` applied to every row, column-wise.

        Raises ``KeyError`` for any vertex id unknown to the AVT —
        exactly like :meth:`apply_to_match`.  Callers on the client
        path prefilter with :meth:`known_rows` first.
        """
        shift = m % self._k
        if shift == 0:
            return list(rows)
        remap = self._remap_luts()[shift].__getitem__
        return [tuple(map(remap, row)) for row in rows]

    @hot_path
    def expand_rows(self, rows: Sequence[Row]) -> list[Row]:
        """``rows ∪ F_1(rows) ∪ ... ∪ F_{k-1}(rows)`` (duplicates kept).

        Output order: all of ``F_0``, then all of ``F_1``, ...
        """
        out: list[Row] = list(rows)
        luts = self._remap_luts()
        for lut in luts[1:]:
            remap = lut.__getitem__
            out.extend(tuple(map(remap, row)) for row in rows)
        return out

    @hot_path
    def known_rows(self, rows: Iterable[Row]) -> list[Row]:
        """Rows whose every vertex id is in the AVT (order preserved)."""
        position = self._position
        return [row for row in rows if all(v in position for v in row)]

    # ------------------------------------------------------------------
    # vectorized (flat-column) kernels
    # ------------------------------------------------------------------
    def _vector_luts(self) -> tuple[list[Any], Any, Any] | None:
        """Dense LUTs ``(luts, in_avt, in_b1)``, or ``None`` if ineligible.

        ``luts[m]`` is an int64 array with ``luts[m][vid] == F_m(vid)``
        and -1 for ids not in the AVT; ``in_avt`` and ``in_b1`` are the
        matching boolean membership arrays of the AVT and of its first
        block.  Built once (the AVT is immutable); ineligible when
        numpy is absent or the id space is negative or too sparse for
        a dense array.
        """
        cached = self._vluts
        if cached is False:
            return None
        if isinstance(cached, tuple):
            return cached
        if not vec.HAVE_NUMPY:
            self._vluts = False
            return None
        max_id = max(self._position)
        if min(self._position) < 0 or max_id >= vec.DENSE_LUT_LIMIT:
            self._vluts = False
            return None
        size = max_id + 1
        luts = [
            vec.dense_lut(lut.items(), size, -1) for lut in self._remap_luts()
        ]
        flags = vec.membership_flags(self._position, size)
        built = (luts, flags, vec.membership_flags(self.first_block(), size))
        self._vluts = built
        return built

    @hot_path
    def expand_table(self, table: MatchTable) -> MatchTable | None:
        """:meth:`expand_rows` as per-shift column gathers, or ``None``.

        Returns a flat-column table with the same rows (duplicates
        kept, ``F_0`` block first) — or ``None`` when the vector LUTs
        are unavailable or some id is unknown to the AVT, in which case
        the caller must run :meth:`expand_rows` (whose ``KeyError``
        semantics are part of the contract).
        """
        built = self._vector_luts()
        if built is None or not table.schema:
            return None
        cols = table.as_columns()
        if cols is None:
            return None
        np = vec.np
        luts = built[0]
        out_cols: list[Any] = []
        for col in cols:
            parts = [col]
            for m in range(1, self._k):
                mapped = vec.bounded_lookup(luts[m], col, -1)
                if len(mapped) and bool((mapped == -1).any()):
                    return None
                parts.append(mapped)
            out_cols.append(np.concatenate(parts) if parts else col)
        return MatchTable.from_columns(
            table.schema, out_cols, len(table) * self._k
        )

    @hot_path
    def anchored_rin(self, table: MatchTable) -> tuple[MatchTable, bool]:
        """The known, distinct rows of ``table`` and whether they are anchored.

        The part of Algorithm 3's expansion that only needs ``|Rin|``
        rows: drop rows with an id unknown to the AVT, drop repeated
        rows (first occurrence kept), then test whether some column
        lies wholly in block ``B1``.  If one does, ``F_m`` maps that
        column wholly into block ``m`` and, being a bijection, keeps
        distinct rows distinct — so the ``k`` images of the result are
        pairwise disjoint and duplicate-free (Theorem 3's argument)
        and their concatenation needs no dedupe.  Every honest ``Rin``
        is anchored; one that is not is corrupt or hostile.

        Vectorized (a flat-column result over ndarrays) when the vec
        mode and the LUTs allow, else the result is rows-backed.
        """
        if table.schema and vec.vectorize(len(table)):
            built = self._vector_luts()
            kept = table.as_columns() if built is not None else None
            if built is not None and kept is not None:
                _, flags, in_b1 = built
                known = vec.bounded_flags(flags, kept[0])
                for col in kept[1:]:
                    known &= vec.bounded_flags(flags, col)
                if not known.all():
                    kept = [col[known] for col in kept]
                first = vec.first_seen_row_indices(kept)
                if len(first) < len(kept[0]):
                    kept = [col[first] for col in kept]
                anchored = any(bool(in_b1[col].all()) for col in kept)
                return (
                    MatchTable.from_columns(table.schema, kept, len(first)),
                    anchored,
                )
        rows = dedupe_rows(self.known_rows(table.rows))
        position = self._position
        for c in range(len(table.schema)):
            for row in rows:
                if position[row[c]][1]:
                    break  # this column leaves B1: try the next
            else:
                return MatchTable(table.schema, rows), True
        return MatchTable(table.schema, rows), False

    def image_luts(self) -> list[Any] | None:
        """Dense int64 arrays, ``luts[m][vid] == F_m(vid)`` and -1 for an
        id not in the AVT (read-only), or ``None`` when ineligible (no
        numpy, ids negative or too sparse)."""
        built = self._vector_luts()
        return None if built is None else built[0]

    @hot_path
    def images(self, rin: MatchTable) -> Iterator[list[Row]]:
        """``F_0(rin), .., F_{k-1}(rin)`` as tuple rows, one image at a time.

        ``rin`` is :meth:`anchored_rin`'s result.
        """
        rows = rin.rows
        yield rows
        for m in range(1, self._k):
            yield self.remap_rows(rows, m)

    @hot_path
    def expand_known_table(self, table: MatchTable) -> MatchTable:
        """Known rows → ``F_0..F_{k-1}`` expansion → dedupe, as a table.

        The three-step kernel behind the client's Rin expansion
        (:func:`~repro.client.expansion.expand_rin_table`) and the
        client filter's unanchored fallback.  Known-row filter and
        dedupe run on ``table`` itself (:meth:`anchored_rin`); an
        anchored table's ``k`` images are then just concatenated, and
        only an unanchored one pays a dedupe of the whole expansion.
        Vectorized when the vec mode and the LUTs allow.  Rows are
        identical (same order) to
        ``dedupe_rows(self.expand_rows(self.known_rows(table.rows)))``.
        """
        rin, anchored = self.anchored_rin(table)
        cols = rin.columns()
        built = self._vector_luts() if cols is not None else None
        if cols is not None and built is not None:
            luts = built[0]
            out_cols = [
                vec.np.concatenate(
                    [col] + [luts[m][col] for m in range(1, self._k)]
                )
                for col in cols
            ]
            expanded = MatchTable.from_columns(
                table.schema, out_cols, len(rin) * self._k
            )
            return expanded if anchored else expanded.deduped()
        rows = self.expand_rows(rin.rows)
        return MatchTable(
            table.schema, rows if anchored else dedupe_rows(rows)
        )

    def to_block_anchor(self, vid: int) -> tuple[int, int]:
        """Return ``(m, v)`` with ``v in B1`` and ``F_m(v) == vid``."""
        row, block = self.position(vid)
        return block, self._rows[row][0]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"k": self._k, "rows": [list(row) for row in self._rows]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AlignmentVertexTable":
        avt = cls(data["rows"])
        if avt.k != data.get("k", avt.k):
            raise VerificationError("AVT dict k does not match row width")
        return avt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlignmentVertexTable(k={self._k}, rows={self.row_count})"
