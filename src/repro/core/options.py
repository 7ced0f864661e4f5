"""Per-call query options: one frozen, keyword-only dataclass.

:class:`QueryOptions` is the only way to tune a query run: one value
travels from the caller through ``PrivacyPreservingSystem.submit``
(and its ``query``/``query_batch`` delegates) and the gateway without
the intermediate layers knowing each field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.config import check_int


@dataclass(frozen=True, kw_only=True)
class QueryOptions:
    """Everything tunable about one ``submit`` call.

    Parameters
    ----------
    workers:
        Forked workers a batch runs on: ``None`` (default) or 1 is the
        plain loop; ``N >= 2`` is a fork pool of up to N workers, for
        CPU-bound batches on multi-core hosts.  Single-query submits,
        and platforms without fork, run the loop regardless.
    trace:
        ``False`` disables span/metric recording for this call even
        when the system has observability attached.
    max_results:
        Cap on returned matches per query (``None`` = unlimited).
    """

    workers: int | None = None
    trace: bool = True
    max_results: int | None = None

    def __post_init__(self) -> None:
        check_int("workers", self.workers, 1, optional=True)
        check_int("max_results", self.max_results, 0, optional=True)

    def evolve(self, **changes: Any) -> "QueryOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


#: The all-defaults options value; ``submit(queries)`` uses this.
DEFAULT_OPTIONS = QueryOptions()
