"""Unit tests for the R6 taint engine (:mod:`repro.analysis.dataflow`).

The fixture-pair tests in ``test_analysis_rules.py`` pin R6's verdict
on realistic code; this suite pins the *semantics* of the propagation
engine itself — source scoping by module, sanitizer clearing,
interprocedural summaries through local helper chains, the gateway's
error-taint scoping — by linting small inline programs under
different ``# lint: module=`` identities.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Finding, LintResult, Severity, get_rule, lint_file

DUMMY = Path("inline_fixture.py")


def r6(source: str, module: str) -> list[Finding]:
    return lint_file(
        DUMMY, rules=[get_rule("R6")], source=source, module=module
    )


# ----------------------------------------------------------------------
# source scoping
# ----------------------------------------------------------------------
LABEL_READ = """\
def ship(owner, channel, obs):
    rows = [vertex.labels for vertex in owner.vertices()]
    channel.transmit("upload", encode_upload(rows), obs=obs)
"""


def test_label_attr_is_a_source_only_in_plaintext_modules():
    # the owner holds plaintext: .labels there is raw label values
    assert r6(LABEL_READ, "repro.core.data_owner")
    # the cloud's .labels reads Go's published group ids: not a source
    assert r6(LABEL_READ, "repro.cloud.engine") == []


def test_token_is_a_source_everywhere():
    source = """\
def audit(client, ring):
    ring.push(None, token=client.token)
"""
    for module in ("repro.cloud.engine", "repro.gateway.server"):
        found = r6(source, module)
        assert len(found) == 1
        assert "a credential" in found[0].message


# ----------------------------------------------------------------------
# sanitizers and neutral calls
# ----------------------------------------------------------------------
def test_sanitizer_call_clears_taint():
    dirty = """\
def publish(lct, gid, channel, obs):
    labels = lct.members(gid)
    channel.transmit("upload", encode_upload(labels), obs=obs)
"""
    clean = """\
def publish(lct, gid, channel, obs):
    labels = lct.members(gid)
    groups = generalize_label_map(labels)
    channel.transmit("upload", encode_upload(groups), obs=obs)
"""
    assert r6(dirty, "repro.core.data_owner")
    assert r6(clean, "repro.core.data_owner") == []


def test_fstring_formatting_does_not_sanitize():
    source = """\
def ship(lct, gid, ring):
    ring.push(None, detail=f"labels={lct.members(gid)}")
"""
    found = r6(source, "repro.client.expansion")
    assert len(found) == 1
    assert "plaintext label values" in found[0].message


# ----------------------------------------------------------------------
# interprocedural summaries
# ----------------------------------------------------------------------
def test_taint_flows_through_a_two_helper_chain():
    # leak is two call-summaries deep: needs the fixpoint iteration
    source = """\
def inner(value):
    return encode_upload(value)


def outer(value):
    return inner(value)


def entry(lct, gid):
    return outer(lct.members(gid))
"""
    found = r6(source, "repro.core.data_owner")
    assert found, "summary chain lost the taint"
    assert any("via" in f.message for f in found)


def test_helper_returning_its_argument_preserves_taint():
    source = """\
def identity(value):
    return value


def ship(lct, gid, ring):
    ring.push(None, data=identity(lct.members(gid)))
"""
    assert r6(source, "repro.core.data_owner")


# ----------------------------------------------------------------------
# gateway error taint
# ----------------------------------------------------------------------
BROAD_EXCEPT = """\
def guard(request):
    try:
        handle(request)
    except Exception as exc:
        raise ProtocolError(f"failed: {exc}") from exc
"""


def test_broad_except_taints_only_in_gateway_modules():
    found = r6(BROAD_EXCEPT, "repro.gateway.server")
    assert len(found) == 1
    assert "internal exception text" in found[0].message
    # in-process cloud layers share one trust domain: no error taint
    assert r6(BROAD_EXCEPT, "repro.cloud.engine") == []


def test_narrow_except_does_not_taint_in_gateway():
    source = """\
def guard(request):
    try:
        handle(request)
    except KeyError as exc:
        raise ProtocolError(f"missing field: {exc}") from exc
"""
    assert r6(source, "repro.gateway.server") == []


def test_hello_frame_may_carry_the_credential_but_log_may_not():
    source = """\
def connect(conn, ring):
    frame = encode_gateway_hello(conn.client_id, conn.token)
    ring.push(None, frame=frame)
"""
    # allows=("secret",) on the hello codec: the encode is legitimate
    # AND commits the credential to the frame — the frame itself no
    # longer counts as carrying the secret, so logging it is fine.
    assert r6(source, "repro.gateway.client") == []


# ----------------------------------------------------------------------
# severity mechanics (the gate the findings feed)
# ----------------------------------------------------------------------
def test_severity_ranks_order_the_gate():
    assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank
    assert Severity.ERROR.at_least(Severity.WARNING)
    assert not Severity.INFO.at_least(Severity.WARNING)
    assert str(Severity.WARNING) == "warning"


@pytest.mark.parametrize(
    ("severity", "fail_on", "failed"),
    [
        (Severity.INFO, Severity.ERROR, False),
        (Severity.WARNING, Severity.ERROR, False),
        (Severity.ERROR, Severity.ERROR, True),
        (Severity.WARNING, Severity.WARNING, True),
        (Severity.INFO, Severity.INFO, True),
    ],
)
def test_lint_result_failed_respects_threshold(severity, fail_on, failed):
    finding = Finding(
        path="x.py", line=1, col=0, rule="R7", message="m", severity=severity
    )
    result = LintResult(findings=[finding], files_checked=1, rules=["R7"])
    assert result.failed(fail_on) is failed
    # .ok stays an error-only property regardless of the gate
    assert result.ok is (severity is not Severity.ERROR)
