"""AST-based invariant linting for the repro codebase.

The paper's security argument (Sections 3-4) and this reproduction's
concurrency/observability architecture rest on invariants that plain
tests cannot see — *which modules import which*, *which attributes are
touched under which lock*, *which string literals name spans and
metrics*.  This package machine-checks them on every commit:

``R1`` trust-boundary
    ``repro.cloud.*`` (the honest-but-curious party) may only import
    the declared cloud-visible surface; client/owner plaintext modules
    (``repro.client``, ``repro.core.data_owner``, the private LCT) are
    forbidden (:mod:`repro.analysis.rules.trust_boundary`).
``R2`` canonical-names
    Span/metric names must be references to :mod:`repro.obs.names`
    constants, never string literals
    (:mod:`repro.analysis.rules.canonical_names`).
``R3`` lock-discipline
    Attributes annotated ``#: guarded by _lock`` may only be touched
    inside ``with self._lock:`` blocks
    (:mod:`repro.analysis.rules.lock_discipline`).
``R4`` hot-path hygiene
    The matching hot path (star matching, result join, bitset engine,
    anything ``@hot_path``) must not serialize, log, ``repr()`` or
    build f-strings per loop iteration
    (:mod:`repro.analysis.rules.hot_path`).
``R6`` privacy-taint
    Per-module taint dataflow: plaintext labels, the original graph,
    credentials and gateway-internal error text must never flow into a
    wire codec, the network channel, the trace ring or a
    boundary-crossing exception without passing a declared sanitizer
    (:mod:`repro.analysis.rules.privacy_taint`).
``R7`` async-safety
    Nothing reachable from a ``repro.gateway`` coroutine may block the
    event loop — no ``time.sleep``, sync I/O, ``Future.result()`` or
    inline hot-kernel calls
    (:mod:`repro.analysis.rules.async_safety`).
``R8`` protocol-invariants
    Every ``encode_X`` pairs with ``decode_X``, every codec is
    registered (and therefore fuzzed), every decoder re-raises through
    the ``ProtocolError`` envelope, and frame kinds come from the
    ``FRAME_KINDS`` registry
    (:mod:`repro.analysis.rules.protocol_invariants`).

Findings carry a severity (``error``/``warning``/``info``); the exit
code gate is ``--fail-on`` (default ``error``), and reports render as
text, JSON or SARIF 2.1.0.  Run it as ``repro lint [paths...]`` or through
:func:`lint_paths`.  Suppress a finding with a ``# lint: ignore[R?]``
comment on the flagged line; see ``docs/static-analysis.md`` for the
full catalog and rationale.
"""

from __future__ import annotations

from repro.analysis.engine import (
    LintResult,
    ModuleInfo,
    Rule,
    all_rules,
    get_rule,
    iter_python_files,
    lint_file,
    lint_paths,
    rule_ids,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.markers import hot_path
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "hot_path",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
]
