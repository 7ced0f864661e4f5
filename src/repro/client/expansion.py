"""Client-side match expansion (Lines 1-5 of Algorithm 3).

The cloud ships ``Rin`` — the matches of ``R(Qo, Gk)`` anchored in
block ``B1``.  The client recovers the rest, ``Rout``, by mapping every
``Rin`` match through the automorphic functions ``F_1 .. F_{k-1}``
(Theorem 3 guarantees this yields exactly ``R(Qo, Gk)``).  The paper
notes this step can equally run in the cloud, trading client CPU for
communication volume — :class:`repro.core.system.PrivacyPreservingSystem`
exposes that choice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.markers import hot_path
from repro.kauto.avt import AlignmentVertexTable
from repro.matching.table import MatchTable


@dataclass
class TableExpansionResult:
    """``R(Qo, Gk)`` as a table, with the expansion's timing and sizes."""

    table: MatchTable
    seconds: float
    rin_size: int
    rout_size: int


@hot_path
def expand_rin_table(
    rin: MatchTable, avt: AlignmentVertexTable
) -> TableExpansionResult:
    """Lines 1-5: ``R(Qo, Gk) = Rin ∪ F_1(Rin) ∪ ... ∪ F_{k-1}(Rin)``.

    The automorphic functions are applied as per-shift id-lookup remaps
    over the row columns — with the vector backend, one dense-LUT
    gather per column per shift and a single first-seen dedupe pass
    (see :meth:`~repro.kauto.avt.AlignmentVertexTable
    .expand_known_table`) — and dedupe keys are the row tuples
    themselves.

    Rows referencing vertices unknown to the AVT are dropped up front:
    an honest cloud never produces them (every ``Go`` vertex is in the
    AVT), so they can only come from corruption or tampering and could
    never survive the client filter anyway.
    """
    started = time.perf_counter()
    full = avt.expand_known_table(rin)
    return TableExpansionResult(
        table=full,
        seconds=time.perf_counter() - started,
        rin_size=len(rin),
        rout_size=len(full) - len(rin),
    )
