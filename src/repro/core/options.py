"""Per-call query options: one frozen, keyword-only dataclass.

:class:`QueryOptions` is the only way to tune a query run: one value
travels from the caller through ``PrivacyPreservingSystem.submit``
(and its ``query``/``query_batch`` delegates) and the gateway without
the intermediate layers knowing each field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.cloud.parallel import validate_backend
from repro.exceptions import ConfigError


@dataclass(frozen=True, kw_only=True)
class QueryOptions:
    """Everything tunable about one ``submit`` call.

    Parameters
    ----------
    backend:
        Batch execution backend: ``"serial"`` (default, the plain
        loop) or ``"process"`` (a fork pool, for CPU-bound batches on
        multi-core hosts); single-query submits run serially
        regardless.
    workers:
        Batch worker cap (``None`` = backend default).
    trace:
        ``False`` disables span/metric recording for this call even
        when the system has observability attached.
    explain:
        ``True`` derives an :class:`~repro.obs.explain.ExplainReport`
        from each query's trace and attaches it to the outcome.
        Explain needs the spans, so ``explain=True`` with
        ``trace=False`` is a configuration error.
    max_results:
        Cap on returned matches per query (``None`` = unlimited).
    shards:
        Expected shard count; validated against the deployed topology
        so a caller scripted for a 4-shard deployment fails loudly on
        a mismatched single-server system.  ``None`` skips the check.
    """

    backend: str = "serial"
    workers: int | None = None
    trace: bool = True
    explain: bool = False
    max_results: int | None = None
    shards: int | None = None

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        if self.explain and not self.trace:
            raise ConfigError(
                "explain=True requires trace=True (the report is derived "
                "from the query's spans)"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_results is not None and self.max_results < 0:
            raise ConfigError(
                f"max_results must be >= 0, got {self.max_results}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")

    def evolve(self, **changes: Any) -> "QueryOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


#: The all-defaults options value; ``submit(queries)`` uses this.
DEFAULT_OPTIONS = QueryOptions()
