"""The vector backend shim: int64 ndarray columns when numpy is there.

Every vectorized kernel in the pipeline (AVT LUT gathers, the columnar
hash join, the client filter's bulk membership tests, CSR candidate
intersection) reaches numpy through **this module only**.  That buys a
single point of policy:

* **numpy is optional.**  If it is not installed — or disabled via the
  ``REPRO_NO_NUMPY`` environment variable — :data:`np` is ``None`` and
  :func:`vectorize` never answers ``True``, so every table stays on
  tuple rows and every kernel runs its tuple-row reference
  implementation.  Results are bit-identical either way; only the
  constant factor changes.
* **Two layouts, two arms.**  A
  :class:`~repro.matching.table.MatchTable` holds tuple rows or int64
  ndarray columns; the tuple kernels read the former, the vector
  kernels the latter, and one size threshold picks between them.
* **Tests pin the arm.**  :func:`override` forces ``"rows"`` (tuple
  kernels) or ``"numpy"`` (vector kernels) so the equivalence suite
  can run the same workload through both arms and compare bytes.

The auto mode applies vector kernels only from
:data:`MIN_VECTOR_ROWS` rows upward: below that the numpy call
overhead exceeds the per-row savings and the tuple kernels win (the
selective-workload benchmark cell is exactly this regime).
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.analysis.markers import hot_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.table import Row

#: A flat int64 vector: a 1-D int64 ``ndarray``.
Flat = Any

np: Any = None
if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0"):
    np = None
else:
    try:  # pragma: no cover - exercised by the no-numpy CI leg
        import numpy as _numpy
    except Exception:  # pragma: no cover - exercised by the no-numpy CI leg
        np = None
    else:
        np = _numpy

#: True when the numpy backend is importable and not disabled by env.
HAVE_NUMPY: bool = np is not None

#: Below this many rows the tuple kernels win on constant factor; the
#: auto mode keeps them (``override`` can force either way).
MIN_VECTOR_ROWS = 64

#: Dense LUTs (id -> value arrays) are only built while ``max_id`` stays
#: under this bound; sparser id spaces fall back to dict lookups.
DENSE_LUT_LIMIT = 1 << 22

#: Vertex ids must fit a packed ``(u, v)`` 63-bit edge/join key.
PACKED_ID_LIMIT = 1 << 31

_MODES = ("auto", "numpy", "rows")
_mode = "auto"


def mode() -> str:
    """The active representation mode (``auto`` unless overridden)."""
    return _mode


def backend() -> str:
    """The arm bulk tables run on: ``"numpy"`` or ``"rows"``."""
    return "numpy" if HAVE_NUMPY and _mode != "rows" else "rows"


def vectorize(n_rows: int) -> bool:
    """Whether the numpy kernels should run for an ``n_rows`` input.

    ``True`` only when numpy is importable *and* the mode allows it:
    always under ``override("numpy")``, never under ``"rows"``, and
    from :data:`MIN_VECTOR_ROWS` rows upward in auto mode (below that
    the tuple kernels win on constant factor).
    """
    if not HAVE_NUMPY:
        return False
    if _mode == "numpy":
        return True
    if _mode != "auto":
        return False
    return n_rows >= MIN_VECTOR_ROWS


@contextmanager
def override(new_mode: str) -> Iterator[None]:
    """Pin the representation arm (tests and the A/B benchmark).

    ``"rows"`` disables column storage and vector kernels entirely and
    ``"numpy"`` forces the vector kernels regardless of input size
    (raises if numpy is unavailable).  Process-global — meant for
    single-threaded test/bench scopes, not the serving path (which
    runs ``auto``).
    """
    global _mode
    if new_mode not in _MODES:
        raise ValueError(f"unknown vec mode {new_mode!r}")
    if new_mode == "numpy" and not HAVE_NUMPY:
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    previous = _mode
    _mode = new_mode
    try:
        yield
    finally:
        _mode = previous


# ----------------------------------------------------------------------
# column construction / conversion
# ----------------------------------------------------------------------
def as_ndarray(buf: array) -> Any:
    """An ``array('q')`` buffer as an int64 ndarray (zero-copy)."""
    if len(buf) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buf, dtype=np.int64)


def ints(flat: Flat) -> list[int]:
    """``flat`` as a list of Python ints (numpy scalars unboxed)."""
    return flat.tolist()


@hot_path
def columns_from_rows(rows: Sequence["Row"], width: int) -> list[Flat] | None:
    """Per-column vectors of ``rows``, or ``None`` if unrepresentable.

    ``None`` — numpy absent or pinned off, or a value outside int64
    (possible on decoded, untrusted tables) — means the caller stays
    on the tuple-row path.
    """
    if backend() != "numpy":
        return None
    try:
        if not rows:
            return [np.empty(0, dtype=np.int64) for _ in range(width)]
        mat = np.array(rows, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[1] != width:
            return None
        return [np.ascontiguousarray(mat[:, i]) for i in range(width)]
    except (OverflowError, TypeError, ValueError):
        return None


@hot_path
def rows_from_columns(cols: Sequence[Flat], length: int) -> list["Row"]:
    """Materialize tuple rows from columns (the boundary adapter).

    Values come out as Python ints — the wire codecs and dict adapters
    downstream require JSON-serializable (and hash-compatible) ints.
    """
    if not cols:
        return [() for _ in range(length)]
    return list(zip(*(ints(col) for col in cols)))


# ----------------------------------------------------------------------
# bulk primitives (numpy arm)
# ----------------------------------------------------------------------
@hot_path
def first_seen_row_indices(cols: Sequence[Any]) -> Any:
    """Indices of the first occurrence of each distinct row, in order.

    numpy-only: ``cols`` are equally long int64 arrays describing rows
    column-wise; the result indexes rows exactly as the tuple-based
    ``dedupe_rows`` keeps them (first-seen order).

    When every value is a non-negative id small enough to pack all
    columns into one 63-bit key, one sort of that int64 key tells
    whether any row repeats; a key without repeats (every honest
    ``Rin``) is done there, and only one with repeats pays an argsort.
    Otherwise a ``lexsort`` over the raw columns does the same job for
    arbitrary values.
    """
    width = len(cols)
    n = len(cols[0]) if width else 0
    if n == 0:
        return np.empty(0, dtype=np.int64)
    key = cols[0] if width == 1 else None
    if key is None and min(int(col.min()) for col in cols) >= 0:
        stride = max(int(col.max()) for col in cols) + 1
        if stride**width < 1 << 63:
            # in place: a fresh temporary per step costs more than the arithmetic
            key = cols[0] * stride
            key += cols[1]
            for col in cols[2:]:
                key *= stride
                key += col
    if key is not None:
        ordered = np.sort(key)
        if not (ordered[1:] == ordered[:-1]).any():
            return np.arange(n, dtype=np.int64)  # every row distinct
        order = np.argsort(key)
        sorted_cols = [key[order]]
    else:
        # lexsort keys run least-significant first
        order = np.lexsort(cols[::-1])
        sorted_cols = [col[order] for col in cols]
    changed = sorted_cols[0][1:] != sorted_cols[0][:-1]
    for col in sorted_cols[1:]:
        changed |= col[1:] != col[:-1]
    starts = np.flatnonzero(changed)
    if len(starts) == n - 1:
        return np.arange(n, dtype=np.int64)  # every row distinct
    starts += 1
    # the sort need not be stable: the earliest occurrence of a row is
    # the smallest index in its equal-run, and re-sorting those minima
    # restores first-seen order
    first = np.minimum.reduceat(order, np.concatenate(([0], starts)))
    first.sort()
    return first


@hot_path
def dense_lut(pairs: Iterable[tuple[int, int]], size: int, default: int) -> Any:
    """A dense int64 ``id -> value`` array (numpy-only)."""
    lut = np.full(size, default, dtype=np.int64)
    for key, value in pairs:
        lut[key] = value
    return lut


@hot_path
def membership_flags(ids: Iterable[int], size: int) -> Any:
    """A dense boolean ``id -> present`` array (numpy-only)."""
    flags = np.zeros(size, dtype=bool)
    for vid in ids:
        flags[vid] = True
    return flags


@hot_path
def bounded_lookup(lut: Any, col: Any, default: int) -> Any:
    """``lut[col]`` with out-of-range ids mapped to ``default``.

    Negative and past-the-end ids (noise vertices, malicious rows)
    never index the LUT — they produce ``default``, exactly like a
    failed dict lookup on the tuple path.
    """
    valid = (col >= 0) & (col < len(lut))
    out = lut[np.where(valid, col, 0)]
    return np.where(valid, out, default)


@hot_path
def bounded_flags(flags: Any, col: Any) -> Any:
    """``flags[col]`` with out-of-range ids reading ``False``."""
    # one unsigned compare covers both bounds: a negative int64 id
    # reads as an id past 2**63
    valid = col.view(np.uint64) < len(flags)
    valid &= np.take(flags, col, mode="clip")
    return valid


@hot_path
def isin_sorted(values: Any, sorted_unique: Any) -> Any:
    """Boolean mask: which ``values`` occur in ``sorted_unique``."""
    if len(sorted_unique) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_unique, values)
    pos_clipped = np.minimum(pos, len(sorted_unique) - 1)
    return sorted_unique[pos_clipped] == values


@hot_path
def lookup_sorted(sorted_unique: Any, values: Any, needles: Any) -> Any:
    """``values`` at each needle's place in (non-empty) ``sorted_unique``, 0 if absent."""
    at = np.minimum(np.searchsorted(sorted_unique, needles), len(sorted_unique) - 1)
    return np.where(sorted_unique[at] == needles, values[at], 0)


@hot_path
def or_by_key(keys: Any, marks: Any) -> tuple[Any, Any]:
    """The sorted distinct ``keys`` and, per key, the OR of its ``marks``."""
    distinct, at = np.unique(keys, return_inverse=True)
    merged = np.zeros(len(distinct), dtype=marks.dtype)
    np.bitwise_or.at(merged, at, marks)
    return distinct, merged


@hot_path
def hash_slots(keys: Any, shift: Any) -> Any:
    """Multiply-shift hash of int64 ``keys`` into ``2 ** (64 - shift)`` slots."""
    hashed = keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15) >> shift
    return hashed.view(np.int64)


def unsigned_dtype(bits: int) -> Any:
    """The narrowest unsigned dtype holding ``bits`` bits (at most 64)."""
    return next(np.dtype(t) for t in "BHIQ" if np.dtype(t).itemsize * 8 >= bits)


@hot_path
def intersect_sorted(a: Any, b: Any) -> Any:
    """Intersection of two sorted unique id arrays, sorted (numpy-only)."""
    if len(a) > len(b):
        a, b = b, a
    return a[isin_sorted(a, b)]


@hot_path
def distinct_within_rows(cols: Sequence[Any]) -> Any:
    """Per-row flag: all column values pairwise distinct (numpy-only).

    One ``!=`` per column pair: no row sort and no stacked matrix.
    """
    n = len(cols[0]) if cols else 0
    flags = np.ones(n, dtype=bool)
    for i, col in enumerate(cols):
        for other in cols[i + 1 :]:
            flags &= col != other
    return flags
