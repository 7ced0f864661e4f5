"""R6: plaintext, secrets and internal errors never reach the wire.

The paper's guarantee (Sections 3-4) is a statement about *values*,
not modules: the honest-but-curious cloud sees ``Go``, the published
AVT and anonymized queries — never raw labels, the original ``G``, or
anything that de-anonymizes them.  R1 polices the import graph; R6
polices the dataflow.  Per module it propagates taint from the
declared sources (raw ``AttributedGraph`` label accessors in
owner/client modules, ``DataOwner``-held plaintext, credentials,
broad-``except`` error text in the gateway) to the declared sinks
(every ``encode_*`` codec, ``NetworkChannel.transmit``, the trace
ring's ``push`` that feeds ``/traces`` and the ``serve --events`` log,
trust-boundary exception messages), with the paper's own
transformations (LCT grouping, AVT remap, k-automorphism, hashing)
clearing taint.  The source/sink/sanitizer manifest lives in
:mod:`repro.analysis.manifest`; the propagation engine in
:mod:`repro.analysis.dataflow`.

Flow is over-approximated (taint never lowers within a function), so
a finding means "no declared sanitizer stands between this source and
this sink" — fix the flow or route it through a sanitizer; suppress
only with a comment explaining why the flow is safe.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis import manifest
from repro.analysis.dataflow import TaintAnalyzer
from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding


def _error_taint_applies(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in manifest.ERROR_TAINT_MODULES
    )


class PrivacyTaintRule(Rule):
    """Declared taint sources must never flow into wire/log sinks."""

    id = "R6"
    name = "privacy-taint"
    hint = (
        "route the value through a declared sanitizer (LCT grouping, "
        "AVT remap, anonymize, hash) before it reaches the wire/log, "
        "or ship a safe summary (type name, count, group id) instead "
        "of the value itself"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.module.startswith("repro."):
            return []
        sources = manifest.sources_for(module.module)
        error_taint = _error_taint_applies(module.module)
        if not sources and not error_taint:
            return []
        analyzer = TaintAnalyzer(
            module.tree, sources, error_taint=error_taint
        )
        return [
            module.finding(self, hit.node, hit.message)
            for hit in analyzer.sink_hits()
        ]
