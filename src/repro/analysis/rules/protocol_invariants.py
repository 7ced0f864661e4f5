"""R8: the wire protocol stays structurally closed.

``repro.core.protocol`` is the one module both sides of the trust
boundary execute, so its contracts are checked structurally instead of
by convention:

* every ``encode_X`` has a matching ``decode_X`` (and vice versa) —
  a one-sided codec is wire traffic nobody can read back;
* every codec basename is registered in :data:`CODEC_TABLE` here,
  which the registry-sync test holds equal to the malformed-input
  suite's decoder table — a new codec cannot land unfuzzed;
* every ``decode_*`` body is exactly ``try: ... except _DECODE_ERRORS:
  raise ProtocolError`` (the PR 6 envelope contract): a decoder that
  leaks a raw ``KeyError`` turns hostile bytes into an engine crash;
* decoder error messages start with ``malformed`` (``INFO``: report
  readers grep for it);
* frame-kind string literals at use sites (``encode_frame("...")``,
  ``conn.send("...")``, ``kind == "..."``) must be members of the
  ``FRAME_KINDS`` registry — in the protocol module *and* in the
  gateway modules that speak it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity
from repro.core.protocol import FRAME_KINDS

#: Every JSON codec pair the protocol module ships, by basename.
#: Keep in sync with ``DECODERS`` in ``tests/test_protocol_malformed.py``
#: (the registry-sync test asserts exact equality with both).
CODEC_TABLE: tuple[str, ...] = (
    "answer_table",
    "gateway_answer",
    "gateway_hello",
    "gateway_reject",
    "gateway_request",
    "query",
    "upload",
)

#: The binary envelope, exempt from JSON-codec pairing/registration:
#: ``decode_frame_header`` has no encoder (it reads half a frame) and
#: ``decode_frame`` delegates all parsing to it.
ENVELOPE_BASENAMES = frozenset({"frame", "frame_header"})

#: ``decode_*`` functions exempt from the try/except-envelope shape:
#: ``decode_frame`` only slices bytes after ``decode_frame_header``
#: has already validated the header (nothing left to trap).
WRAP_EXEMPT = frozenset({"decode_frame"})

#: What a decoder's handler must catch (the ``_DECODE_ERRORS`` tuple,
#: or an inline tuple covering at least these).
REQUIRED_CAUGHT = frozenset({"KeyError", "ValueError", "TypeError"})

PROTOCOL_MODULE = "repro.core.protocol"


def _exception_names(handler: ast.ExceptHandler) -> set[str]:
    caught = handler.type
    if caught is None:
        return set()
    entries = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    names: set[str] = set()
    for entry in entries:
        if isinstance(entry, ast.Name):
            names.add(entry.id)
        elif isinstance(entry, ast.Attribute):
            names.add(entry.attr)
    return names


def _raises_protocol_error(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            target = node.exc.func
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else ""
            )
            if name == "ProtocolError":
                return True
    return False


def _message_starts_with_malformed(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if not node.exc.args:
            continue
        first = node.exc.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value.startswith("malformed")
        if isinstance(first, ast.JoinedStr) and first.values:
            head = first.values[0]
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return head.value.startswith("malformed")
        return False
    return False


class ProtocolInvariantsRule(Rule):
    """Codec pairing, the ProtocolError envelope, one frame registry."""

    id = "R8"
    name = "protocol-invariants"
    hint = (
        "pair every encode_X with a decode_X, register the basename in "
        "CODEC_TABLE (repro.analysis.rules.protocol_invariants) and the "
        "malformed-input DECODERS table, wrap the decoder body in the "
        "_DECODE_ERRORS -> ProtocolError envelope, and take frame kinds "
        "from protocol.FRAME_KINDS"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: list[Finding] = []
        if module.module == PROTOCOL_MODULE:
            findings.extend(self._check_codecs(module))
        if module.module == PROTOCOL_MODULE or module.module.startswith(
            "repro.gateway"
        ):
            findings.extend(self._check_frame_literals(module))
        return findings

    # -- codec structure ------------------------------------------------
    def _check_codecs(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        encoders: dict[str, ast.FunctionDef] = {}
        decoders: dict[str, ast.FunctionDef] = {}
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("encode_"):
                encoders[node.name[len("encode_"):]] = node
            elif node.name.startswith("decode_"):
                decoders[node.name[len("decode_"):]] = node

        for base, node in sorted(encoders.items()):
            if base not in decoders and base not in ENVELOPE_BASENAMES:
                findings.append(
                    module.finding(
                        self,
                        node,
                        f"encode_{base} has no matching decode_{base} "
                        "(one-sided codec)",
                    )
                )
        for base, node in sorted(decoders.items()):
            if base not in encoders and base not in ENVELOPE_BASENAMES:
                findings.append(
                    module.finding(
                        self,
                        node,
                        f"decode_{base} has no matching encode_{base} "
                        "(one-sided codec)",
                    )
                )
        for base in sorted(set(encoders) | set(decoders)):
            if base in ENVELOPE_BASENAMES or base in CODEC_TABLE:
                continue
            node = encoders.get(base) or decoders[base]
            findings.append(
                module.finding(
                    self,
                    node,
                    f"codec '{base}' is not registered in CODEC_TABLE "
                    "(and must join the malformed-input DECODERS table)",
                )
            )
        if module.path.name == "protocol.py":
            # stale registry entries only make sense against the real
            # module, not against fixtures that define a codec subset.
            for base in CODEC_TABLE:
                if base not in encoders and base not in decoders:
                    findings.append(
                        module.finding(
                            self,
                            None,
                            f"CODEC_TABLE entry '{base}' has no "
                            "encode_/decode_ functions (stale registry)",
                        )
                    )

        for base, node in sorted(decoders.items()):
            if f"decode_{base}" in WRAP_EXEMPT:
                continue
            findings.extend(self._check_wrap(module, base, node))
        return findings

    def _check_wrap(
        self, module: ModuleInfo, base: str, node: ast.FunctionDef
    ) -> list[Finding]:
        body = list(node.body)
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Try):
            return [
                module.finding(
                    self,
                    node,
                    f"decode_{base} parses outside a try/except envelope "
                    "(a hostile payload can leak a raw KeyError/TypeError)",
                )
            ]
        findings: list[Finding] = []
        handlers = body[0].handlers
        covered = any(
            "_DECODE_ERRORS" in _exception_names(handler)
            or REQUIRED_CAUGHT <= _exception_names(handler)
            for handler in handlers
        )
        if not covered:
            findings.append(
                module.finding(
                    self,
                    node,
                    f"decode_{base}'s except clause does not cover "
                    "_DECODE_ERRORS (KeyError/ValueError/TypeError/...)",
                )
            )
        wrapping = [h for h in handlers if _raises_protocol_error(h)]
        if not wrapping:
            findings.append(
                module.finding(
                    self,
                    node,
                    f"decode_{base} does not re-raise through the "
                    "ProtocolError envelope",
                )
            )
        elif not any(_message_starts_with_malformed(h) for h in wrapping):
            findings.append(
                module.finding(
                    self,
                    node,
                    f"decode_{base}'s ProtocolError message does not start "
                    "with 'malformed' (envelope message convention)",
                    severity=Severity.INFO,
                )
            )
        return findings

    # -- frame-kind registry --------------------------------------------
    def _check_frame_literals(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, literal: str, where: str) -> None:
            findings.append(
                module.finding(
                    self,
                    node,
                    f"frame kind {literal!r} ({where}) is not in the "
                    f"FRAME_KINDS registry {sorted(FRAME_KINDS)}",
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else ""
                )
                if name not in ("encode_frame", "send") or not node.args:
                    continue
                first = node.args[0]
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value not in FRAME_KINDS
                ):
                    flag(first, first.value, f"passed to {name}()")
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if not any(
                    isinstance(side, ast.Name) and side.id == "kind"
                    for side in sides
                ):
                    continue
                for side in sides:
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, str)
                        and side.value not in FRAME_KINDS
                    ):
                        flag(side, side.value, "compared against 'kind'")
        return findings
