"""Result join (Algorithm 2): assembling ``Rin`` from star matches.

The cloud joins the per-star match sets into matches of the whole
outsourced query.  The key optimization of Section 4.2.1: the anchor
star's matches are *not* expanded through the automorphic functions —
they stay anchored in block ``B1`` — while every other star's matches
are expanded to the full ``R(S_i, Gk)`` before joining.  The join
output ``Rin`` therefore contains exactly the matches of
``R(Qo, Gk)`` whose anchor-center vertex lies in ``B1``; the remaining
matches (``Rout``) are recovered later by applying ``F_1..F_{k-1}``
(Theorem 3), avoiding ``k-1`` redundant join passes.

:func:`join_star_tables` is a columnar hash join.  Star results
arrive as :class:`~repro.matching.table.MatchTable`\\ s; join keys are
extracted positionally (:func:`~repro.matching.table.row_getter`),
expansion is the AVT's column-wise id remap and injectivity is decided
from precomputed per-row flags plus one ``isdisjoint`` per candidate
pair.  Nothing here dedupes: a star table is duplicate-free, the
expansion keeps it so (:func:`expand_star_table`), and so does a
natural join of duplicate-free tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.markers import hot_path
from repro.exceptions import QueryError, ResultBudgetExceeded
from repro.kauto.avt import AlignmentVertexTable
from repro.matching import vec
from repro.matching.star import Star
from repro.matching.table import MatchTable, Row, row_getter


@dataclass
class JoinStats:
    """Telemetry of one Algorithm-2 run."""

    seconds: float = 0.0
    anchor_center: int | None = None
    intermediate_sizes: list[int] = field(default_factory=list)
    rin_size: int = 0


@hot_path
def expand_star_table(
    table: MatchTable, avt: AlignmentVertexTable
) -> MatchTable:
    """``R(S, Gk) = ∪_m F_m(R(S, Go))``, columnar (Lines 5-8).

    Precondition — what :func:`~repro.cloud.star_matching.match_plan`
    yields, and any ``Rin``: the rows are distinct and some column (a
    star's center, drawn from the indexed set) lies wholly in block
    ``B1``.  Each ``F_m`` is a bijection that moves that column wholly
    into block ``m``, so the ``k`` images are duplicate-free and
    pairwise disjoint (Theorem 3; the argument of
    :meth:`~repro.kauto.avt.AlignmentVertexTable.anchored_rin`) and are
    concatenated, ``F_0`` first, without a dedupe.

    With the vector backend each ``F_m`` is one LUT gather over every
    column; ids unknown to the AVT drop to the tuple path so its
    ``KeyError`` contract is preserved.
    """
    if vec.vectorize(len(table)):
        expanded = avt.expand_table(table)
        if expanded is not None:
            return expanded
    return MatchTable(table.schema, avt.expand_rows(table.rows))


@hot_path
def _hash_join_tables(
    left: MatchTable,
    right: MatchTable,
    shared: tuple[int, ...],
    budget: int | None = None,
) -> MatchTable:
    """Natural join on ``shared`` query vertices, injective rows only.

    The output schema is ``left.schema`` followed by the right table's
    non-shared columns in their schema order.  A merged row is
    injective iff the left row is injective, the right row's *new*
    values are pairwise distinct, and the two value sets are disjoint —
    the first two are precomputed per row, leaving one disjointness
    test per candidate pair.  With no shared vertices this degenerates
    to a cross product (still injectivity-filtered); connected queries
    never hit that path.  ``budget`` caps the output size (quota
    enforcement).

    Dispatches to the flat-column kernel when the vec mode allows and
    the key columns fit a packed int64 sort key; the tuple-row kernel
    is the fallback and the executable specification — emission order
    (left order, then right row order within a key bucket) and the
    budget-exception point are identical.
    """
    shared_set = set(shared)
    out_schema = left.schema + tuple(
        q for q in right.schema if q not in shared_set
    )
    if shared and vec.vectorize(len(left) + len(right)):
        joined = _hash_join_columns(
            left, right, shared, shared_set, out_schema, budget
        )
        if joined is not None:
            return joined
    return _hash_join_rows(left, right, shared, shared_set, out_schema, budget)


def _hash_join_rows(
    left: MatchTable,
    right: MatchTable,
    shared: tuple[int, ...],
    shared_set: set[int],
    out_schema: tuple[int, ...],
    budget: int | None,
) -> MatchTable:
    """The tuple-row join kernel."""
    left_key = row_getter([left.column_of(q) for q in shared])
    right_key = row_getter([right.column_of(q) for q in shared])
    new_vals_of = row_getter(
        [i for i, q in enumerate(right.schema) if q not in shared_set]
    )

    # bucket the right side once: key -> [(new values, injective?), ...]
    # in row order, so emission is left order then right row order
    buckets: dict[Row, list[tuple[Row, bool]]] = {}
    setdefault = buckets.setdefault
    right_rows = right.rows
    left_rows = left.rows
    for rrow in right_rows:
        new_vals = new_vals_of(rrow)
        setdefault(right_key(rrow), []).append(
            (new_vals, len(set(new_vals)) == len(new_vals))
        )

    out_rows: list[Row] = []
    append = out_rows.append
    get = buckets.get
    count = 0
    for lrow in left_rows:
        hits = get(left_key(lrow))
        if not hits:
            continue
        lset = set(lrow)
        if len(lset) != len(lrow):
            # Lines 10-12: subgraph isomorphism is injective — a left
            # row reusing a data vertex can never merge injectively.
            continue
        isdisjoint = lset.isdisjoint
        for new_vals, r_ok in hits:
            if r_ok and isdisjoint(new_vals):
                append(lrow + new_vals)
                count += 1
                if budget is not None and count > budget:
                    raise ResultBudgetExceeded("result join", count, budget)
    return MatchTable(out_schema, out_rows)


@hot_path
def _packed_keys(cols: list[Any], stride: int) -> Any:
    """One int64 sort key per row from the aligned key columns."""
    key = cols[0]
    for col in cols[1:]:
        key = key * stride + col
    return key


@hot_path
def _hash_join_columns(
    left: MatchTable,
    right: MatchTable,
    shared: tuple[int, ...],
    shared_set: set[int],
    out_schema: tuple[int, ...],
    budget: int | None,
) -> MatchTable | None:
    """The flat-column join kernel, or ``None`` when inapplicable.

    The tuple kernel's bucket map becomes a stable argsort of packed right
    keys plus a ``searchsorted`` range per left key; the per-pair
    injectivity test becomes per-row distinctness flags plus one ``!=``
    per (left column, new right column) on the gathered pair columns,
    which are then cut down to the output.  ``None`` when the key values are
    negative or too wide for a collision-free packed int64 key (the
    tuple kernel then runs).
    """
    lcols = left.as_columns()
    rcols = right.as_columns()
    if lcols is None or rcols is None:
        return None
    np = vec.np
    nl, nr = len(left), len(right)
    new_idx = [i for i, q in enumerate(right.schema) if q not in shared_set]
    if nl == 0 or nr == 0:
        width = len(left.schema) + len(new_idx)
        return MatchTable.from_columns(
            out_schema, [np.empty(0, dtype=np.int64) for _ in range(width)], 0
        )
    lk_cols = [lcols[left.column_of(q)] for q in shared]
    rk_cols = [rcols[right.column_of(q)] for q in shared]

    low = min(int(col.min()) for col in lk_cols + rk_cols)
    high = max(int(col.max()) for col in lk_cols + rk_cols)
    stride = high + 1
    if low < 0 or stride ** len(shared) >= 1 << 63:
        return None

    l_ok = vec.distinct_within_rows(lcols)
    r_new = [rcols[i] for i in new_idx]
    if r_new:
        r_ok = vec.distinct_within_rows(r_new)
    else:
        r_ok = np.ones(nr, dtype=bool)

    lkey = _packed_keys(lk_cols, stride)
    rkey = _packed_keys(rk_cols, stride)
    order_r = np.argsort(rkey, kind="stable")
    rkey_sorted = rkey[order_r]
    lo = np.searchsorted(rkey_sorted, lkey, side="left")
    hi = np.searchsorted(rkey_sorted, lkey, side="right")
    counts = np.where(l_ok, hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        width = len(left.schema) + len(new_idx)
        return MatchTable.from_columns(
            out_schema, [np.empty(0, dtype=np.int64) for _ in range(width)], 0
        )

    # pair index arrays: for each left row its [lo, hi) bucket range,
    # flattened — left order outer, right original row order inner
    # (stable argsort keeps equal keys in row order)
    cum = np.cumsum(counts)
    left_idx = np.repeat(np.arange(nl, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    right_idx = order_r[np.repeat(lo, counts) + within]

    keep = r_ok[right_idx]
    pair_left = [col[left_idx] for col in lcols]
    pair_new = [col[right_idx] for col in r_new]
    for new in pair_new:
        for old in pair_left:
            keep &= old != new

    count = int(keep.sum())
    if budget is not None and count > budget:
        raise ResultBudgetExceeded("result join", budget + 1, budget)
    return MatchTable.from_columns(
        out_schema, [col[keep] for col in pair_left + pair_new], count
    )


def join_star_tables(
    stars: list[Star],
    star_tables: dict[int, MatchTable],
    avt: AlignmentVertexTable,
    expand: bool = True,
    max_intermediate: int | None = None,
) -> tuple[MatchTable, JoinStats]:
    """Algorithm 2 over columnar star tables: join into ``Rin``.

    ``star_tables`` maps each star's center to its
    :func:`~repro.cloud.star_matching.match_star_table` result; the
    output table's schema is the anchor star's columns followed by each
    joined star's new columns in join order.

    ``expand=False`` joins the star results as-is — used by the BAS
    baseline whose star matches already range over the full ``Gk``
    (its index covers every ``Gk`` vertex), so the output is the whole
    ``R(Qo, Gk)`` rather than ``Rin``.  Fed :func:`expand_star_table`
    outputs, it is the *straightforward* strategy the paper describes
    before ``Rin`` (``benchmarks/bench_ablation_rin.py``).

    ``max_intermediate`` is the cloud's per-query result quota: a join
    step growing past it raises :class:`ResultBudgetExceeded`.

    Concurrency contract (relied on by the parallel batched engine):
    ``star_tables`` is **read-only** — no input table or row is ever
    mutated here, and the returned table is freshly allocated (its rows
    are immutable tuples, possibly shared with the inputs, which is
    safe) unless the decomposition is a single star, whose own table
    is then the answer.  That makes it safe to feed this join tables that other
    concurrent queries may also be holding (e.g. out of the shared
    star cache).  The join is also deterministic: star order, anchor
    choice, and bucket iteration are all keyed on sizes with vertex-id
    tie-breaks, so serial and parallel star matching yield bit-identical
    ``Rin`` tables.
    """
    if not stars:
        raise QueryError("cannot join an empty decomposition")
    missing = [s.center for s in stars if s.center not in star_tables]
    if missing:
        raise QueryError(f"star matches missing for centers {missing}")
    stats = JoinStats()
    started = time.perf_counter()

    remaining = sorted(stars, key=lambda s: (len(star_tables[s.center]), s.center))
    anchor = remaining.pop(0)
    stats.anchor_center = anchor.center
    current = star_tables[anchor.center]
    covered: set[int] = set(current.schema)
    stats.intermediate_sizes.append(len(current))

    while remaining:
        overlapping = [s for s in remaining if s.overlaps(covered)]
        pool = overlapping or remaining  # disconnected fallback: cross join
        nxt = min(pool, key=lambda s: (len(star_tables[s.center]), s.center))
        remaining.remove(nxt)

        right = star_tables[nxt.center]
        if expand:
            right = expand_star_table(right, avt)
        shared = tuple(sorted(covered & set(right.schema)))
        current = _hash_join_tables(
            current, right, shared, budget=max_intermediate
        )
        covered |= set(right.schema)
        stats.intermediate_sizes.append(len(current))
        if not current:
            break

    stats.rin_size = len(current)
    stats.seconds = time.perf_counter() - started
    return current, stats
