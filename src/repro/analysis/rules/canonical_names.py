"""R2: span/metric names must reference ``repro.obs.names`` constants.

The exporters, the metric views (``QueryMetrics`` is also the EXPLAIN
report) and the privacy-audit gauges all key off the canonical taxonomy in
:mod:`repro.obs.names`.  A literal ``"cloud.star_matching"`` (or an
f-string ``f"network.{direction}"``) compiles fine and silently
produces an empty metric the day the phase is renamed.  R2 flags:

* plain string literals equal to a *dotted* canonical span name,
  anywhere in library code (docstrings excluded);
* plain string literals equal to a canonical registry metric / window
  prefix name (``queries_total``, ``cloud_seconds``, ...), anywhere;
* *any* plain literal or f-string passed as the name to a
  span-opening call (``tracer.span(...)``) — this also catches the
  non-dotted roots ``"query"``/``"publish"``/``"batch"``, which are
  too common as ordinary words to flag globally;
* f-strings whose leading text starts with a span namespace prefix
  (``cloud.``, ``network.``, ...).

Scope: modules under ``repro.`` only, excluding the taxonomy module
itself and this analysis package.  Tests and benchmarks may assert on
literal names — pinning the taxonomy there is the point.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding
from repro.obs import names as obs_names

#: Modules R2 never applies to: the taxonomy itself and the linter.
EXEMPT_MODULES = ("repro.obs.names", "repro.analysis")

#: Dotted span-name namespaces (f-string prefix detection).
SPAN_NAMESPACES = (
    "cloud.",
    "client.",
    "protocol.",
    "network.",
    "publish.",
    "kauto.",
    "anonymize.",
    "gateway.",
)

#: Call attribute names whose first argument is a span name.
SPAN_CALL_ATTRS = frozenset({"span"})


def _canonical_values() -> tuple[frozenset[str], frozenset[str], dict[str, str]]:
    """(dotted span names, metric names, value -> constant name)."""
    by_value: dict[str, str] = {}
    for key in dir(obs_names):
        if key.isupper():
            value = getattr(obs_names, key)
            if isinstance(value, str):
                by_value.setdefault(value, key)
    spans = frozenset(v for v in obs_names.PIPELINE if "." in v)
    metrics = frozenset(
        value
        for key, value in ((k, getattr(obs_names, k)) for k in dir(obs_names))
        if key.startswith(("M_", "W_")) and isinstance(value, str)
    )
    return spans, metrics, by_value


DOTTED_SPANS, METRIC_NAMES, CONSTANT_FOR = _canonical_values()


def _fstring_prefix(node: ast.JoinedStr) -> str:
    """The leading constant text of an f-string (may be empty)."""
    if node.values and isinstance(node.values[0], ast.Constant):
        value = node.values[0].value
        if isinstance(value, str):
            return value
    return ""


class CanonicalNamesRule(Rule):
    """String literals must not shadow the span/metric taxonomy."""

    id = "R2"
    name = "canonical-names"
    hint = (
        "use the constant from repro.obs.names (e.g. names.CLOUD_ANSWER) "
        "so exporters, views and EXPLAIN stay in lockstep"
    )

    def _applies(self, module: ModuleInfo) -> bool:
        name = module.module
        if not name.startswith("repro"):
            return False
        return not any(
            name == exempt or name.startswith(exempt + ".")
            for exempt in EXEMPT_MODULES
        )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not self._applies(module):
            return []
        findings: list[Finding] = []
        span_args: set[int] = set()  # id() of first-arg nodes to span calls
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SPAN_CALL_ATTRS
                and node.args
            ):
                span_args.add(id(node.args[0]))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in module.docstrings:
                    continue
                value = node.value
                if id(node) in span_args:
                    constant = CONSTANT_FOR.get(value)
                    suggestion = (
                        f"names.{constant}" if constant else "a names.* constant"
                    )
                    findings.append(
                        module.finding(
                            self,
                            node,
                            f"span opened with literal name {value!r}; "
                            f"use {suggestion}",
                        )
                    )
                elif value in DOTTED_SPANS:
                    findings.append(
                        module.finding(
                            self,
                            node,
                            f"literal span name {value!r}; use "
                            f"names.{CONSTANT_FOR[value]}",
                        )
                    )
                elif value in METRIC_NAMES:
                    findings.append(
                        module.finding(
                            self,
                            node,
                            f"literal metric name {value!r}; use "
                            f"names.{CONSTANT_FOR[value]}",
                        )
                    )
            elif isinstance(node, ast.JoinedStr):
                prefix = _fstring_prefix(node)
                if id(node) in span_args or prefix.startswith(SPAN_NAMESPACES):
                    findings.append(
                        module.finding(
                            self,
                            node,
                            "f-string span/metric name "
                            f"(prefix {prefix!r}); span and metric names "
                            "must be names.* constants, not built at "
                            "runtime",
                        )
                    )
        return findings
