"""The SARIF reporter against a vendored SARIF 2.1.0 schema subset.

The full OASIS schema is ~1300 lines; CI must not fetch it from the
network, so this suite vendors the subset covering everything
``render_sarif`` emits — log/run/tool/driver/reportingDescriptor/
result/location shapes, the closed ``level`` enum, required
properties, ``additionalProperties: false`` where the spec is closed
for the fields we produce — and validates real lint output against
it with ``jsonschema``.  A reporter change that breaks GitHub
code-scanning ingestion fails here, not in the upload step.
"""

from __future__ import annotations

import json
from pathlib import Path

from jsonschema import validate

from repro.analysis import get_rule, lint_paths
from repro.analysis.engine import LintResult, lint_file
from repro.analysis.reporters import render_sarif, result_to_sarif

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "data" / "lint_fixtures"

#: SARIF 2.1.0, restricted to the shapes repro-lint emits.  Property
#: names, required sets and the level enum are verbatim from
#: sarif-schema-2.1.0.json.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {
                                        "type": "string",
                                        "format": "uri",
                                    },
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "$ref": (
                                                "#/definitions/"
                                                "reportingDescriptor"
                                            )
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {"$ref": "#/definitions/result"},
                    },
                },
            },
        },
    },
    "definitions": {
        "reportingDescriptor": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "name": {"type": "string"},
                "shortDescription": {
                    "$ref": "#/definitions/multiformatMessageString"
                },
                "help": {
                    "$ref": "#/definitions/multiformatMessageString"
                },
                "defaultConfiguration": {
                    "type": "object",
                    "properties": {
                        "level": {"$ref": "#/definitions/level"}
                    },
                },
            },
        },
        "multiformatMessageString": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        },
        "level": {"enum": ["none", "note", "warning", "error"]},
        "result": {
            "type": "object",
            "required": ["message"],
            "properties": {
                "ruleId": {"type": "string"},
                "level": {"$ref": "#/definitions/level"},
                "message": {
                    "type": "object",
                    "required": ["text"],
                    "properties": {"text": {"type": "string"}},
                },
                "locations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "physicalLocation": {
                                "type": "object",
                                "properties": {
                                    "artifactLocation": {
                                        "type": "object",
                                        "properties": {
                                            "uri": {"type": "string"},
                                            "uriBaseId": {
                                                "type": "string"
                                            },
                                        },
                                    },
                                    "region": {
                                        "type": "object",
                                        "properties": {
                                            "startLine": {
                                                "type": "integer",
                                                "minimum": 1,
                                            },
                                            "startColumn": {
                                                "type": "integer",
                                                "minimum": 1,
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                },
            },
        },
    },
}


def _result_with_findings() -> LintResult:
    findings = []
    for name in ("r6_violation.py", "r7_violation.py", "r8_violation.py"):
        rule_id = name[:2].upper()
        findings.extend(
            lint_file(FIXTURES / name, rules=[get_rule(rule_id)])
        )
    return LintResult(
        findings=sorted(findings),
        files_checked=3,
        rules=["R6", "R7", "R8"],
    )


def test_sarif_with_findings_validates_against_schema():
    doc = result_to_sarif(_result_with_findings())
    validate(instance=doc, schema=SARIF_SUBSET_SCHEMA)
    results = doc["runs"][0]["results"]
    assert results, "fixtures must produce SARIF results"
    # all three severity tiers appear, mapped to SARIF's level enum
    assert {r["level"] for r in results} == {"error", "warning", "note"}


def test_sarif_empty_result_validates_and_keeps_rule_catalog():
    doc = result_to_sarif(LintResult(files_checked=0, rules=[]))
    validate(instance=doc, schema=SARIF_SUBSET_SCHEMA)
    assert doc["runs"][0]["results"] == []
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == [
        "R1", "R2", "R3", "R4", "R6", "R7", "R8",
    ]


def test_sarif_columns_are_one_based():
    result = _result_with_findings()
    doc = result_to_sarif(result)
    for finding, sarif_result in zip(
        result.findings, doc["runs"][0]["results"]
    ):
        region = sarif_result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.col + 1


def test_render_sarif_round_trips_through_json():
    text = render_sarif(_result_with_findings())
    doc = json.loads(text)
    validate(instance=doc, schema=SARIF_SUBSET_SCHEMA)


def test_real_tree_sarif_validates():
    doc = result_to_sarif(lint_paths([str(REPO / "src" / "repro" / "obs")]))
    validate(instance=doc, schema=SARIF_SUBSET_SCHEMA)
