"""Client-side match expansion (Lines 1-5 of Algorithm 3).

The cloud ships ``Rin`` — the matches of ``R(Qo, Gk)`` anchored in
block ``B1``.  The rest, ``Rout``, is its images under the automorphic
functions ``F_1 .. F_{k-1}`` (Theorem 3 guarantees this yields exactly
``R(Qo, Gk)``).  A client answering a query does not build that table:
:meth:`repro.client.filtering.ClientFilter.filter_rin` checks one image
at a time and keeps only the exact matches.  :func:`expand_rin_table`
materializes it for whoever needs the whole of it.  The paper notes the
step could equally run in the cloud, trading client CPU for
communication volume; this reproduction always expands on the client.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.markers import hot_path
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.table import MatchTable


@dataclass
class TableExpansionResult:
    """``R(Qo, Gk)`` as a table, with the expansion's sizes."""

    table: MatchTable
    rin_size: int
    rout_size: int


@hot_path
def expand_rin_table(
    rin: MatchTable, avt: AlignmentVertexTable
) -> TableExpansionResult:
    """Lines 1-5: ``R(Qo, Gk) = Rin ∪ F_1(Rin) ∪ ... ∪ F_{k-1}(Rin)``.

    :meth:`~repro.kauto.avt.AlignmentVertexTable.expand_known_table`
    with its sizes: rows referencing vertices unknown to the AVT
    are dropped up front (an honest cloud never produces them — every
    ``Go`` vertex is in the AVT — and they could never survive the
    client filter anyway), repeated rows are dropped, and the ``k``
    images are concatenated in shift order.
    """
    full = avt.expand_known_table(rin)
    return TableExpansionResult(
        table=full,
        rin_size=len(rin),
        rout_size=len(full) - len(rin),
    )
