"""R7: the gateway event loop computes, but never waits.

The gateway answers each request on its event-loop thread: under the
GIL a thread pool gives pure-Python matching no parallelism, only a
thread hop each way, so CPU work on the loop is the design.  What the
loop must never do is *wait* — on a clock, a child process, a file, a
socket or another thread: while it idles, every connection's framing,
admission and shed probe stall for nothing.  Inside any ``async def``
in ``repro.gateway.*`` (and any function reachable from one through
same-module synchronous calls) R7 flags:

* ``time.sleep`` — use ``await asyncio.sleep``;
* ``subprocess.*`` / ``os.system``;
* synchronous file I/O (builtin ``open``, ``Path.read_text`` family);
* synchronous sockets (``socket.socket``, ``socket.create_connection``);
* ``Future.result()`` / zero-argument ``.join()`` — await the future
  instead of blocking on it;
* calls into ``@hot_path`` CPU kernels (local ``@hot_path`` functions
  and names imported from R4's hot modules) made directly on the loop
  — heuristic, so ``WARNING``: gateway code reaches the engine through
  ``CloudServer.answer``, whose spans and budget a bare kernel call
  skips.

Functions only *referenced* (e.g. passed to ``run_in_executor``) are
not reachable: only a call runs on the loop.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.hot_path import HOT_MODULES, has_hot_path_decorator

#: module.attr calls that block outright.
BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep blocks the event loop; await asyncio.sleep",
    ("subprocess", "run"): "subprocess.run blocks the event loop",
    ("subprocess", "call"): "subprocess.call blocks the event loop",
    ("subprocess", "check_output"): "subprocess.check_output blocks the loop",
    ("subprocess", "check_call"): "subprocess.check_call blocks the loop",
    ("subprocess", "Popen"): "subprocess.Popen forks under the event loop",
    ("os", "system"): "os.system blocks the event loop",
    ("socket", "socket"): "synchronous socket under the event loop",
    ("socket", "create_connection"): "synchronous connect blocks the loop",
}

#: attribute calls that are synchronous file I/O wherever they appear.
FILE_IO_ATTRS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


def _local_functions(
    tree: ast.Module,
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    out: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(node.name, node)
    return out


def _called_local_names(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names this function *calls* (``f(...)``, ``self.f(...)``)."""
    called: set[str] = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Name):
            called.add(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id in ("self", "cls"):
                called.add(func.attr)
    return called


def _hot_kernel_names(module: ModuleInfo) -> set[str]:
    """Locally visible names that resolve to ``@hot_path`` kernels."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source in HOT_MODULES:
                names.update(
                    alias.asname or alias.name for alias in node.names
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if has_hot_path_decorator(node):
                names.add(node.name)
    return names


class _BlockingCallChecker(ast.NodeVisitor):
    """Scan one function body for blocking operations."""

    def __init__(
        self,
        rule: "AsyncSafetyRule",
        module: ModuleInfo,
        func_name: str,
        via: str | None,
        kernels: set[str],
    ) -> None:
        self.rule = rule
        self.module = module
        self.func_name = func_name
        self.via = via
        self.kernels = kernels
        self.findings: list[Finding] = []

    def _flag(
        self, node: ast.AST, what: str, severity: Severity | None = None
    ) -> None:
        where = f"async '{self.func_name}'"
        if self.via is not None:
            where = (
                f"'{self.func_name}' (reachable from async '{self.via}')"
            )
        self.findings.append(
            self.module.finding(
                self.rule, node, f"{what} in {where}", severity=severity
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return None  # nested defs: only checked if actually called

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                self._flag(node, "synchronous open() (file I/O)")
            elif func.id in self.kernels:
                self._flag(
                    node,
                    f"direct call into @hot_path kernel '{func.id}' "
                    "(reach the engine through cloud.answer)",
                    severity=Severity.WARNING,
                )
        elif isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                message = BLOCKING_MODULE_CALLS.get((owner.id, func.attr))
                if message is not None:
                    self._flag(node, message)
                    self.generic_visit(node)
                    return
            if func.attr in FILE_IO_ATTRS:
                self._flag(node, f"synchronous .{func.attr}() (file I/O)")
            elif func.attr == "result" and not node.args:
                self._flag(
                    node,
                    "Future.result() blocks the event loop (await it)",
                )
            elif func.attr == "join" and not node.args and not node.keywords:
                self._flag(
                    node,
                    ".join() blocks the event loop "
                    "(str.join with an argument is fine)",
                )
        self.generic_visit(node)


class AsyncSafetyRule(Rule):
    """Gateway coroutines (and their sync callees) must never wait."""

    id = "R7"
    name = "async-safety"
    hint = (
        "use the asyncio-native equivalent (await asyncio.sleep, an "
        "awaited future, asyncio streams); the loop may compute, but "
        "a wait on it stalls every connection"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not (
            module.module == "repro.gateway"
            or module.module.startswith("repro.gateway.")
        ):
            return []
        functions = _local_functions(module.tree)
        kernels = _hot_kernel_names(module)

        async_roots = {
            name
            for name, node in functions.items()
            if isinstance(node, ast.AsyncFunctionDef)
        }
        # same-module reachability: sync functions transitively called
        # from an async def, attributed to one sample root.
        reached_from: dict[str, str] = {}
        frontier = [(name, name) for name in async_roots]
        while frontier:
            name, root = frontier.pop()
            for callee in _called_local_names(functions[name]):
                if (
                    callee in functions
                    and callee not in async_roots
                    and callee not in reached_from
                ):
                    reached_from[callee] = root
                    frontier.append((callee, root))

        findings: list[Finding] = []
        for name in sorted(async_roots):
            checker = _BlockingCallChecker(
                self, module, name, via=None, kernels=kernels
            )
            for stmt in functions[name].body:
                checker.visit(stmt)
            findings.extend(checker.findings)
        for name, root in sorted(reached_from.items()):
            checker = _BlockingCallChecker(
                self, module, name, via=root, kernels=kernels
            )
            for stmt in functions[name].body:
                checker.visit(stmt)
            findings.extend(checker.findings)
        return findings
