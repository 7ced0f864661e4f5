"""The invariant linter's rules against their fixture pairs.

Every rule in :mod:`repro.analysis.rules` has two fixtures under
``tests/data/lint_fixtures/``: a ``*_clean.py`` file the rule must
accept and a ``*_violation.py`` file it must reject (proving the rule
actually *fails* on a seeded violation, not just passes on good code).
The fixtures carry ``# lint: module=...`` overrides where a rule is
scoped by module name.

The suite also pins the two meta-invariants the PR's acceptance
criteria name: the repo's own source tree lints clean, and the span
taxonomy in ``repro.obs.names`` exactly matches the span names R2's
extraction finds in the codebase.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Severity,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    rule_ids,
)
from repro.analysis.engine import PARSE_ERROR_RULE, ModuleInfo, iter_python_files
from repro.analysis.rules.canonical_names import DOTTED_SPANS, SPAN_CALL_ATTRS
from repro.obs import names

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "data" / "lint_fixtures"
RULE_IDS = ("R1", "R2", "R3", "R4", "R6", "R7", "R8")


def fixture(name: str) -> Path:
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    return path


def findings_for(name: str, rule_id: str) -> list[Finding]:
    return lint_file(fixture(name), rules=[get_rule(rule_id)])


# ----------------------------------------------------------------------
# per-rule fixture pairs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_accepts_clean_fixture(rule_id):
    name = f"{rule_id.lower()}_clean.py"
    assert findings_for(name, rule_id) == []


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fails_on_seeded_violation(rule_id):
    name = f"{rule_id.lower()}_violation.py"
    found = findings_for(name, rule_id)
    assert found, f"{rule_id} did not flag its violating fixture"
    assert all(f.rule == rule_id for f in found)
    # R7/R8 downgrade heuristic sub-checks, but every violating fixture
    # must carry at least one gate-failing finding.
    assert any(f.severity is Severity.ERROR for f in found)
    assert all(f.hint for f in found), "every finding carries a fix hint"


def test_r1_flags_each_seeded_import():
    lines = {f.line for f in findings_for("r1_violation.py", "R1")}
    # four top-level imports + the function-nested relative import
    assert lines == {4, 5, 6, 7, 12}


def test_r1_flags_the_partitioner_in_the_cloud():
    """The cloud splits centers, not graphs: no partitioner import."""
    found = [
        f
        for f in findings_for("r1_violation.py", "R1")
        if "repro.kauto.partition" in f.message
    ]
    assert [f.line for f in found] == [7]


def test_r2_flags_all_four_shapes():
    found = findings_for("r2_violation.py", "R2")
    messages = " / ".join(f.message for f in found)
    assert len(found) == 4
    assert "cloud.star_matching" in messages  # literal span-call name
    assert "cloud.answer" in messages  # dotted literal at rest
    assert "queries_total" in messages  # metric literal
    assert "f-string" in messages  # runtime-built name


def test_r3_flags_unlocked_and_callback_accesses():
    found = findings_for("r3_violation.py", "R3")
    assert len(found) == 3
    assert all("guarded by _lock" in f.message for f in found)


def test_r4_distinguishes_loop_and_raise_fstrings():
    # the clean fixture raises with an f-string inside a loop: allowed
    assert findings_for("r4_clean.py", "R4") == []
    found = findings_for("r4_violation.py", "R4")
    kinds = " / ".join(f.message for f in found)
    assert "logging" in kinds or "log" in kinds
    assert "json" in kinds
    assert "f-string" in kinds
    assert "repr" in kinds


def test_r4_rows_loop_sub_check():
    # the clean fixture hoists .rows into a local (sanctioned fallback)
    # and uses comprehensions at the boundary: both must pass
    assert findings_for("r4_rows_clean.py", "R4") == []
    found = findings_for("r4_rows_violation.py", "R4")
    assert {f.line for f in found} == {9, 17, 25}
    assert all("iterates a .rows attribute" in f.message for f in found)


def _by_line(found: list[Finding]) -> dict[int, Finding]:
    return {f.line: f for f in found}


def test_r6_flags_each_seeded_flow_at_its_sink_line():
    found = _by_line(findings_for("r6_violation.py", "R6"))
    # line 8: LCT.members -> encode_upload; line 9: the tainted payload
    # travels on into the channel; line 15: credential -> trace log;
    # line 28: error text through the frame_reject summary; line 36:
    # error text into a boundary exception.
    assert set(found) == {8, 9, 15, 28, 36}
    assert "plaintext label values" in found[8].message
    assert "'encode_upload'" in found[8].message
    assert "a credential" in found[15].message
    assert "the trace ring" in found[15].message
    assert "via 'frame_reject'" in found[28].message
    assert "internal exception text" in found[36].message
    assert "'GatewayError'" in found[36].message


def test_r6_sanitizers_and_allowed_sinks_stay_silent():
    # the clean fixture exercises group_of (sanitizer), len (neutral),
    # encode_gateway_hello (allows=secret), and type(exc).__name__
    assert findings_for("r6_clean.py", "R6") == []


def test_r7_flags_each_blocking_shape_at_its_line():
    found = _by_line(findings_for("r7_violation.py", "R7"))
    assert set(found) == {16, 17, 18, 25, 30, 34}
    assert "time.sleep" in found[16].message
    assert "open()" in found[17].message
    assert "Future.result()" in found[18].message
    assert "reachable from async 'serve'" in found[25].message
    assert ".join()" in found[34].message
    # the hot-kernel heuristic is WARNING; everything else is ERROR
    assert found[30].severity is Severity.WARNING
    assert all(
        f.severity is Severity.ERROR
        for line, f in found.items()
        if line != 30
    )


def test_r7_executor_dispatch_and_str_join_stay_silent():
    assert findings_for("r7_clean.py", "R7") == []


def test_r8_flags_each_contract_break_at_its_line():
    found = findings_for("r8_violation.py", "R8")
    by_line: dict[int, list[Finding]] = {}
    for f in found:
        by_line.setdefault(f.line, []).append(f)
    assert set(by_line) == {11, 20, 28, 39, 51, 59, 61}
    # encode_ping: one-sided AND unregistered (two findings, one line)
    ping = " / ".join(f.message for f in by_line[11])
    assert "no matching decode_ping" in ping
    assert "not registered in CODEC_TABLE" in ping
    assert "outside a try/except envelope" in by_line[20][0].message
    assert "does not cover _DECODE_ERRORS" in by_line[28][0].message
    assert by_line[39][0].severity is Severity.INFO
    assert "malformed" in by_line[39][0].message
    assert "ProtocolError envelope" in by_line[51][0].message
    assert "'heartbeat'" in by_line[59][0].message
    assert "'pong'" in by_line[61][0].message


def test_r8_registered_enveloped_codecs_stay_silent():
    assert findings_for("r8_clean.py", "R8") == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_suppression_comment_silences_one_rule(tmp_path):
    source = fixture("r3_violation.py").read_text(encoding="utf-8")
    source = source.replace(
        "self._entries.append(value)  # no lock held",
        "self._entries.append(value)  # lint: ignore[R3]",
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source, encoding="utf-8")
    lines = {f.line for f in lint_file(path, rules=[get_rule("R3")])}
    assert 14 not in lines and lines  # that one silenced, others remain


def test_skip_file_comment_silences_everything(tmp_path):
    source = "# lint: skip-file\n" + fixture("r4_violation.py").read_text(
        encoding="utf-8"
    )
    path = tmp_path / "skipped.py"
    path.write_text(source, encoding="utf-8")
    assert lint_file(path) == []


def test_syntax_error_becomes_parse_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n", encoding="utf-8")
    found = lint_file(path)
    assert [f.rule for f in found] == [PARSE_ERROR_RULE]


def test_fixture_directory_is_skipped_by_directory_walk():
    walked = list(iter_python_files([str(REPO / "tests")]))
    assert not any("lint_fixtures" in p.parts for p in walked)
    # ... but explicit files are always linted
    assert lint_file(fixture("r1_violation.py"))


def test_rule_registry_is_complete_and_ordered():
    assert rule_ids() == list(RULE_IDS)
    for rule in all_rules():
        described = rule.describe()
        assert described["id"] and described["hint"] and described["doc"]


# ----------------------------------------------------------------------
# meta-invariants (the PR's acceptance criteria)
# ----------------------------------------------------------------------
def test_repo_source_tree_is_lint_clean():
    result = lint_paths([str(REPO / "src")])
    assert result.files_checked > 80
    assert result.ok, "\n".join(
        f"{f.location} [{f.rule}] {f.message}" for f in result.findings
    )


def test_tests_and_benchmarks_are_lint_clean():
    result = lint_paths([str(REPO / "tests"), str(REPO / "benchmarks")])
    assert result.ok, "\n".join(
        f"{f.location} [{f.rule}] {f.message}" for f in result.findings
    )


def _spans_used_in_tree() -> set[str]:
    """Every span name library code opens, resolved through the AST.

    Mirrors R2's extraction: for each ``.span(...)`` call under
    ``src/repro``, resolve the first argument — a ``names.X`` /
    ``name-constant`` attribute, a local uppercase constant, or (in
    exempt modules) a string literal — to its string value.
    """
    used: set[str] = set()
    for path in iter_python_files([str(REPO / "src" / "repro")]):
        info = ModuleInfo.parse(path)
        constants: dict[str, set[str]] = {}
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            resolved: set[str] = set()
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                resolved = {value.value}
            elif isinstance(value, ast.Subscript):
                # e.g. span_name = names.NETWORK_SPANS[direction] — the
                # runtime key is opaque; count the whole table as used.
                table = value.value
                if (
                    isinstance(table, ast.Attribute)
                    and table.attr == "NETWORK_SPANS"
                ) or (isinstance(table, ast.Name) and table.id == "NETWORK_SPANS"):
                    resolved = set(names.NETWORK_SPANS.values())
            if resolved:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = resolved
        for node in ast.walk(info.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SPAN_CALL_ATTRS
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                used.add(arg.value)
            elif isinstance(arg, ast.Attribute):
                value = getattr(names, arg.attr, None)
                if isinstance(value, str):
                    used.add(value)
            elif isinstance(arg, ast.Name):
                if arg.id in constants:
                    used.update(constants[arg.id])
                else:
                    value = getattr(names, arg.id, None)
                    if isinstance(value, str):
                        used.add(value)
            elif isinstance(arg, ast.Subscript):
                # names.NETWORK_SPANS[direction]: contributes the table
                sub = arg.value
                if isinstance(sub, ast.Attribute) and sub.attr == "NETWORK_SPANS":
                    used.update(names.NETWORK_SPANS.values())
                elif isinstance(sub, ast.Name) and sub.id == "NETWORK_SPANS":
                    used.update(names.NETWORK_SPANS.values())
    return used


def test_all_spans_matches_span_names_opened_in_codebase():
    """``names.PIPELINE`` is exactly the set of spans the code opens.

    A span constant nobody opens is dead taxonomy; a span opened under
    a name missing from ``PIPELINE`` falls out of ``layers()``' pipeline
    order and R2's span set.  Both directions must be empty.
    """
    used = _spans_used_in_tree()
    # span names resolved through a local variable the extractor cannot
    # follow would show up here — keep the sets exactly equal instead
    # of subset-checking so that failure mode is loud.
    declared = set(names.PIPELINE)
    assert used == declared, (
        f"opened but undeclared: {sorted(used - declared)}; "
        f"declared but never opened: {sorted(declared - used)}"
    )


def test_dotted_spans_cover_every_namespaced_name():
    assert DOTTED_SPANS == {v for v in names.PIPELINE if "." in v}


def _codec_basenames(path: Path, prefix: str) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name[len(prefix):]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
    }


def test_codec_registries_agree_everywhere():
    """R8's CODEC_TABLE == protocol.py's codecs == the fuzz suite's DECODERS.

    Three places list the protocol's codecs: the encode_*/decode_*
    functions themselves, R8's ``CODEC_TABLE`` (the lint registry),
    and ``DECODERS`` in ``tests/test_protocol_malformed.py`` (the fuzz
    registry).  If they ever disagree, a codec exists that is either
    unlinted or unfuzzed.
    """
    from repro.analysis.rules.protocol_invariants import (
        CODEC_TABLE,
        ENVELOPE_BASENAMES,
    )

    protocol = REPO / "src" / "repro" / "core" / "protocol.py"
    encoders = _codec_basenames(protocol, "encode_")
    decoders = _codec_basenames(protocol, "decode_")
    json_codecs = (encoders | decoders) - ENVELOPE_BASENAMES
    assert json_codecs == set(CODEC_TABLE)
    assert sorted(CODEC_TABLE) == list(CODEC_TABLE), "keep the table sorted"

    fuzz = ast.parse(
        (REPO / "tests" / "test_protocol_malformed.py").read_text(
            encoding="utf-8"
        )
    )
    fuzz_keys: set[str] = set()
    for node in ast.walk(fuzz):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "DECODERS"
                for t in node.targets
            )
            and isinstance(node.value, ast.Dict)
        ):
            fuzz_keys = {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant)
            }
    assert fuzz_keys == set(CODEC_TABLE), (
        "tests/test_protocol_malformed.py DECODERS is out of sync with "
        "R8's CODEC_TABLE"
    )
