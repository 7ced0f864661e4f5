"""``repro lint``: exit codes, JSON output, rule selection, artifacts."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import rule_ids
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "data" / "lint_fixtures"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level errors
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def test_lint_src_is_clean_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "lint", "src")
    assert code == 0
    assert "clean" in out


def test_lint_violating_file_exits_nonzero(capsys):
    code, out, _ = run_cli(capsys, "lint", str(FIXTURES / "r1_violation.py"))
    assert code == 1
    assert "[R1]" in out


def test_lint_json_output_is_machine_readable(capsys):
    code, out, _ = run_cli(
        capsys, "lint", "--json", str(FIXTURES / "r4_violation.py")
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["files_checked"] == 1
    assert doc["counts"].get("R4", 0) > 0
    for finding in doc["findings"]:
        assert {"path", "line", "col", "rule", "message", "severity", "hint"} <= set(
            finding
        )


def test_lint_rule_filter_restricts_findings(capsys):
    # the R1 fixture is clean under every *other* rule
    code, out, _ = run_cli(
        capsys, "lint", "--rule", "R3,R4", str(FIXTURES / "r1_violation.py")
    )
    assert code == 0
    # ... and dirty when R1 itself is selected
    code, out, _ = run_cli(
        capsys, "lint", "--rule", "R1", str(FIXTURES / "r1_violation.py")
    )
    assert code == 1


def test_lint_unknown_rule_exits_two(capsys):
    code, _, err = run_cli(capsys, "lint", "--rule", "R99", "src")
    assert code == 2
    assert "unknown rule" in err


def test_lint_out_writes_json_artifact(tmp_path, capsys):
    artifact = tmp_path / "artifacts" / "lint.json"
    code, _, _ = run_cli(capsys, "lint", "src", "--out", str(artifact))
    assert code == 0
    doc = json.loads(artifact.read_text(encoding="utf-8"))
    assert doc["ok"] is True
    assert doc["rules"] == rule_ids()


def test_lint_list_rules_names_the_catalog(capsys):
    code, out, _ = run_cli(capsys, "lint", "--list-rules")
    assert code == 0
    for rule_id in rule_ids():
        assert rule_id in out
    assert "trust-boundary" in out
    assert "privacy-taint" in out
    assert "async-safety" in out
    assert "protocol-invariants" in out
    # every catalog line carries the rule's default severity
    assert "[error]" in out


def test_lint_fail_on_lowers_the_gate(capsys):
    path = str(FIXTURES / "r7_warning_only.py")
    # the only finding is a WARNING: passes the default error gate...
    code, out, _ = run_cli(capsys, "lint", path)
    assert code == 0
    assert "[R7]" in out
    # ... and fails once the gate is lowered
    code, _, _ = run_cli(capsys, "lint", "--fail-on", "warning", path)
    assert code == 1


def test_lint_sarif_artifact(tmp_path, capsys):
    sarif_path = tmp_path / "report" / "lint.sarif"
    code, _, _ = run_cli(
        capsys,
        "lint",
        str(FIXTURES / "r8_violation.py"),
        "--sarif",
        str(sarif_path),
    )
    assert code == 1
    doc = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == set(
        rule_ids()
    )
    levels = {result["level"] for result in run["results"]}
    assert "error" in levels and "note" in levels  # INFO maps to note
    first = run["results"][0]["locations"][0]["physicalLocation"]
    assert first["region"]["startLine"] >= 1
    assert first["region"]["startColumn"] >= 1
