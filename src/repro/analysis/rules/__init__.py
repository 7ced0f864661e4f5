"""Rule registry: every invariant rule, in id order.

Adding a rule: subclass :class:`repro.analysis.engine.Rule` in a new
module here, set ``id``/``name``/``hint`` (and ``severity`` if not
``error``), implement ``check``, append the class to ``ALL_RULES`` —
and add a clean/violating fixture pair under
``tests/data/lint_fixtures/`` plus a catalog entry in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.rules.async_safety import AsyncSafetyRule
from repro.analysis.rules.canonical_names import CanonicalNamesRule
from repro.analysis.rules.hot_path import HotPathRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.privacy_taint import PrivacyTaintRule
from repro.analysis.rules.protocol_invariants import ProtocolInvariantsRule
from repro.analysis.rules.trust_boundary import TrustBoundaryRule

ALL_RULES = [
    TrustBoundaryRule,
    CanonicalNamesRule,
    LockDisciplineRule,
    HotPathRule,
    PrivacyTaintRule,
    AsyncSafetyRule,
    ProtocolInvariantsRule,
]

__all__ = [
    "ALL_RULES",
    "AsyncSafetyRule",
    "CanonicalNamesRule",
    "HotPathRule",
    "LockDisciplineRule",
    "PrivacyTaintRule",
    "ProtocolInvariantsRule",
    "TrustBoundaryRule",
]
