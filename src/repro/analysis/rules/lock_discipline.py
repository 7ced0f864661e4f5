"""R3: ``#: guarded by <lock>`` attributes are only touched under it.

The thread-shared state of this codebase — the star-match LRU, the
gateway's sliding SLO window, the trace ring, the metrics registry,
the cloud server's lazily built pools — relies on a *convention*: every access
to the shared attribute happens inside ``with self._lock:``.  The
convention only fails at runtime, under contention, rarely and
unreproducibly.  R3 makes it fail at lint time.

Declare the invariant next to the attribute::

    class Ring:
        def __init__(self) -> None:
            self._lock = threading.Lock()
            self._entries = []  #: guarded by _lock

    # ... or on a dataclass / class-level field:
    class Cache:
        hits: int = 0  #: guarded by _lock

The comment may also sit on its own line directly above the
attribute.  Within that class, every ``self.<attr>`` load, store or
delete must then be lexically inside a ``with self.<lock>:`` (or
``with cls.<lock>:``) block.  ``__init__``, ``__post_init__``,
``__setstate__`` and ``__del__`` are exempt — the object is not yet
(or no longer) shared there.  Accesses through other receivers
(``other._entries``) are out of scope: guard them at the declaring
class's boundary.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding

GUARD_RE = re.compile(r"#:\s*guarded by\s+(\w+)")
_SELF_ATTR_DEF_RE = re.compile(r"^\s*self\.(\w+)\s*[:=]")
_CLASS_ATTR_DEF_RE = re.compile(r"^\s*(\w+)\s*[:=]")

#: Methods where unguarded access is allowed (object not yet shared).
EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "__setstate__", "__del__", "__new__"}
)


def _attr_defined_on_line(line: str) -> str | None:
    match = _SELF_ATTR_DEF_RE.match(line)
    if match:
        return match.group(1)
    match = _CLASS_ATTR_DEF_RE.match(line)
    if match and not line.lstrip().startswith(("def ", "class ", "with ")):
        return match.group(1)
    return None


def guarded_attributes(module: ModuleInfo, cls: ast.ClassDef) -> dict[str, str]:
    """``{attribute: lock_name}`` declared inside ``cls``'s line span."""
    end = cls.end_lineno or cls.lineno
    guarded: dict[str, str] = {}
    for lineno in range(cls.lineno, end + 1):
        line = module.lines[lineno - 1] if lineno - 1 < len(module.lines) else ""
        match = GUARD_RE.search(line)
        if not match:
            continue
        lock = match.group(1)
        # trailing form: the attribute is defined on this line ...
        attr = _attr_defined_on_line(line)
        if attr is None and lineno < len(module.lines):
            # ... or the standalone-comment form: on the next line
            attr = _attr_defined_on_line(module.lines[lineno])
        if attr is not None and attr != lock:
            guarded[attr] = lock
    return guarded


class _MethodChecker(ast.NodeVisitor):
    """Walk one method body tracking which ``self.<lock>``s are held."""

    def __init__(
        self,
        rule: "LockDisciplineRule",
        module: ModuleInfo,
        cls: ast.ClassDef,
        guarded: dict[str, str],
    ):
        self.rule = rule
        self.module = module
        self.cls = cls
        self.guarded = guarded
        self.held: list[str] = []
        self.findings: list[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in ("self", "cls")
            ):
                acquired.append(expr.attr)
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested function: lock context does not transfer (it may run
        # later, e.g. as a callback) — check it with no locks held
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and node.attr in self.guarded
        ):
            lock = self.guarded[node.attr]
            if lock not in self.held:
                self.findings.append(
                    self.module.finding(
                        self.rule,
                        node,
                        f"{self.cls.name}.{node.attr} is declared "
                        f"'#: guarded by {lock}' but is accessed without "
                        f"holding self.{lock}",
                    )
                )
        self.generic_visit(node)


class LockDisciplineRule(Rule):
    """Guarded attributes are only accessed while their lock is held."""

    id = "R3"
    name = "lock-discipline"
    hint = (
        "wrap the access in 'with self.<lock>:' (or snapshot the value "
        "under the lock first); if the attribute is genuinely "
        "single-threaded, drop the '#: guarded by' annotation"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded = guarded_attributes(module, node)
            if not guarded:
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in EXEMPT_METHODS:
                    continue
                checker = _MethodChecker(self, module, node, guarded)
                for stmt in item.body:
                    checker.visit(stmt)
                findings.extend(checker.findings)
        return findings
