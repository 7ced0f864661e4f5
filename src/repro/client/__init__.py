"""Client-side result processing (Algorithm 3)."""

from repro.client.expansion import TableExpansionResult, expand_rin_table
from repro.client.filtering import ClientFilter, TableFilterResult

__all__ = [
    "expand_rin_table",
    "TableExpansionResult",
    "ClientFilter",
    "TableFilterResult",
]
