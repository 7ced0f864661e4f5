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

from typing import Any, Callable, Iterable, Iterator, Sequence

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
        # ``F_m(vid)``, -1 = unknown) plus a membership flag array; the
        # vectorized expansion applies ``F_m`` to a whole column as one
        # fancy-indexing gather.  ``False`` = ineligible (no numpy, or
        # the id space is negative/too sparse); ``None`` = not built yet.
        self._vluts: tuple[list[Any], Any] | None | bool = None

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
        lut = self._remap_luts()[shift]
        return [tuple(lut[v] for v in row) for row in rows]

    @hot_path
    def expand_rows(self, rows: Sequence[Row]) -> list[Row]:
        """``rows ∪ F_1(rows) ∪ ... ∪ F_{k-1}(rows)`` (duplicates kept).

        Output order: all of ``F_0``, then all of ``F_1``, ...
        """
        out: list[Row] = list(rows)
        luts = self._remap_luts()
        for m in range(1, self._k):
            lut = luts[m]
            out.extend(tuple(lut[v] for v in row) for row in rows)
        return out

    @hot_path
    def known_rows(self, rows: Iterable[Row]) -> list[Row]:
        """Rows whose every vertex id is in the AVT (order preserved)."""
        position = self._position
        return [row for row in rows if all(v in position for v in row)]

    # ------------------------------------------------------------------
    # vectorized (flat-column) kernels
    # ------------------------------------------------------------------
    def _vector_luts(self) -> tuple[list[Any], Any] | None:
        """Dense gather LUTs ``(luts, in_avt)``, or ``None`` if ineligible.

        ``luts[m]`` is an int64 array with ``luts[m][vid] == F_m(vid)``
        and -1 for ids not in the AVT; ``in_avt`` is the matching
        boolean membership array.  Built once (the AVT is immutable);
        ineligible when numpy is absent or the id space is negative or
        too sparse for a dense array.
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
        built = (luts, flags)
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
        luts, _ = built
        nd_cols = [vec.as_ndarray(col) for col in cols]
        out_cols: list[Any] = []
        for col in nd_cols:
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
    def expand_known_table(self, table: MatchTable) -> MatchTable:
        """Known rows → ``F_0..F_{k-1}`` expansion → dedupe, as a table.

        The three-step kernel shared by the client's Rin expansion and
        the gateway's cloud-side expansion.  Vectorized when the vec
        mode and the LUTs allow: the known-row filter is a bulk
        membership gather, each ``F_m`` a column gather, the dedupe a
        single first-seen pass.  Rows are identical (same order) to
        ``dedupe_rows(self.expand_rows(self.known_rows(table.rows)))``.
        """
        if table.schema and vec.vectorize(len(table)):
            built = self._vector_luts()
            cols = table.as_columns() if built is not None else None
            if built is not None and cols is not None:
                np = vec.np
                luts, flags = built
                nd_cols = [vec.as_ndarray(col) for col in cols]
                known = vec.bounded_flags(flags, nd_cols[0])
                for col in nd_cols[1:]:
                    known &= vec.bounded_flags(flags, col)
                kept = [col[known] for col in nd_cols]
                out_cols = [
                    np.concatenate(
                        [col]
                        + [luts[m][col] for m in range(1, self._k)]
                    )
                    for col in kept
                ]
                expanded = MatchTable.from_columns(
                    table.schema, out_cols, len(kept[0]) * self._k
                )
                return expanded.deduped()
        usable = self.known_rows(table.rows)
        return MatchTable(
            table.schema, dedupe_rows(self.expand_rows(usable))
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
