"""The declared layering manifest behind the R1 trust-boundary rule.

The paper's threat model (Section 3): the cloud is *honest but
curious*.  It receives only the outsourced graph ``Go``, the published
Alignment Vertex Table, and anonymized queries ``Qo`` — never the
original graph ``G``, raw labels, or the client-private Label
Correspondence Table.  In code, that boundary is an *import* boundary:
``repro.cloud.*`` must be buildable and auditable from the
cloud-visible surface alone.

``LAYERS`` maps a layer prefix to the module prefixes it may import
from within ``repro``; anything else under ``repro.`` is a violation.
``FORBIDDEN_REASONS`` documents *why* the best-known offenders are
outside the boundary, so R1 findings explain themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

#: layer prefix -> the repro-internal import surface it is allowed.
#: Prefixes match whole dotted components (``repro.obs`` also allows
#: ``repro.obs.names``, but not ``repro.obscure``).
LAYERS: dict[str, tuple[str, ...]] = {
    # The honest-but-curious cloud: only the published/cloud-visible
    # surface.  Notably absent: repro.client (query expansion over the
    # private LCT), repro.core.data_owner / repro.core.query_client
    # (plaintext G and Q), repro.anonymize minus the cost model (the
    # LCT and the anonymization strategies are owner/client secrets),
    # and repro.kauto minus the published AVT.
    "repro.cloud": (
        "repro.cloud",  # intra-layer
        "repro.graph",  # published graph structures (Go / Gk)
        "repro.matching",  # star/match data structures + engines
        "repro.anonymize.cost_model",  # cloud-side cardinality estimation
        "repro.kauto.avt",  # the *published* Alignment Vertex Table
        # the multilevel partitioner is a pure structural algorithm over
        # whatever graph it is handed; the sharded cloud runs it on the
        # published Go it already stores, so no owner/client secret
        # crosses the boundary (labels/LCT are never consulted).
        "repro.kauto.partition",
        "repro.obs",  # observability (names, tracing, metrics)
        "repro.core.protocol",  # the wire the cloud legitimately sees
        "repro.outsource",  # Go + delta structures the owner uploads
        "repro.exceptions",  # shared error taxonomy (no data)
        "repro.analysis.markers",  # dependency-free lint markers
    ),
    # The serving gateway runs *on the cloud side* of the trust
    # boundary: it fronts the cloud engine for remote clients, so it
    # sees exactly what the cloud sees (Go, the published AVT,
    # anonymized queries on the wire) and nothing more.  Its surface is
    # the cloud allowlist plus itself and the per-call QueryOptions
    # value object (plain tuning knobs, no data).
    "repro.gateway": (
        "repro.gateway",  # intra-layer
        "repro.cloud",
        "repro.graph",
        "repro.matching",
        "repro.anonymize.cost_model",
        "repro.kauto.avt",
        "repro.kauto.partition",
        "repro.obs",
        "repro.core.protocol",
        "repro.core.options",  # per-call knobs (no graph data)
        "repro.outsource",
        "repro.exceptions",
        "repro.analysis.markers",
    ),
}

#: Module prefixes whose appearance in a restricted layer gets a
#: targeted explanation (beyond the generic "not in the manifest").
FORBIDDEN_REASONS: dict[str, str] = {
    "repro.client": (
        "client-side query expansion/filtering runs over the private "
        "LCT and original labels (paper Section 4.2.2)"
    ),
    "repro.core.data_owner": (
        "the data owner holds the original graph G and the private LCT "
        "(paper Section 3)"
    ),
    "repro.core.query_client": (
        "the query client holds the plaintext query Q and the LCT "
        "(paper Section 3)"
    ),
    "repro.anonymize.lct": (
        "the Label Correspondence Table is the client-side secret that "
        "de-anonymizes labels (paper Section 4.1)"
    ),
    "repro.anonymize.strategies": (
        "label-grouping strategies consume raw label distributions the "
        "cloud must never see"
    ),
    "repro.anonymize.query_anonymizer": (
        "query anonymization consumes the plaintext query Q"
    ),
    "repro.anonymize.eff": (
        "EFF grouping consumes raw label frequencies (owner-side)"
    ),
    "repro.kauto.builder": (
        "the k-automorphism builder transforms the original graph G "
        "(owner-side, paper Section 5)"
    ),
    "repro.attacks": (
        "attack simulations model the adversary; the serving cloud "
        "must not depend on them"
    ),
}


# ----------------------------------------------------------------------
# R6 privacy-taint manifest: where plaintext enters, where bytes leave,
# and which transformations launder a value back to cloud-visible.
# ----------------------------------------------------------------------
#: Modules where the owner/client hold plaintext: a raw-label accessor
#: read there yields actual label values, not published group ids.
#: (The same ``.labels`` read in ``repro.cloud.*`` sees only ``Go``'s
#: group ids, so it is not a source there.)
PLAINTEXT_MODULES: tuple[str, ...] = (
    "repro.core.data_owner",
    "repro.core.query_client",
    "repro.client",
    "repro.anonymize",
    "repro.kauto.builder",
)


@dataclass(frozen=True)
class TaintSource:
    """One way a tainted value enters a function.

    ``attr`` is the attribute (``via_call=False``) or method
    (``via_call=True``) whose read/call introduces taint of ``kind``.
    ``modules`` scopes the source to module prefixes (empty = every
    ``repro.*`` module).
    """

    kind: str
    attr: str
    via_call: bool
    modules: tuple[str, ...]
    why: str


#: Taint kinds: ``label`` = plaintext label values, ``graph`` = the
#: owner/client-held original graph, ``secret`` = credentials,
#: ``error`` = text of an arbitrary internal exception.
TAINT_SOURCES: tuple[TaintSource, ...] = (
    TaintSource(
        "label",
        "labels",
        via_call=False,
        modules=PLAINTEXT_MODULES,
        why="per-attribute raw label sets of a plaintext vertex",
    ),
    TaintSource(
        "label",
        "label_items",
        via_call=True,
        modules=PLAINTEXT_MODULES,
        why="raw (attribute, label) pairs of a plaintext vertex",
    ),
    TaintSource(
        "label",
        "members",
        via_call=True,
        modules=(),
        why="LCT.members de-anonymizes a group id to raw labels "
        "(the LCT is the client-side secret)",
    ),
    TaintSource(
        "graph",
        "graph",
        via_call=False,
        modules=("repro.core.data_owner", "repro.core.query_client"),
        why="the owner/client-held original graph G (paper Section 3)",
    ),
    TaintSource(
        "secret",
        "token",
        via_call=False,
        modules=(),
        why="a client credential; must never appear in logs or errors",
    ),
    TaintSource(
        "secret",
        "gateway_token",
        via_call=False,
        modules=(),
        why="the gateway auth secret (SystemConfig / CLI flag)",
    ),
)

#: Attribute/function names whose *call* clears taint: each provably
#: maps plaintext to the published/cloud-visible domain.
TAINT_SANITIZERS: dict[str, str] = {
    # LCT grouping: raw labels -> published group ids (Section 4.1)
    "generalize_label_map": "LCT grouping",
    "group_of": "LCT grouping",
    "apply_to_graph": "LCT grouping applied to a whole graph",
    "anonymize_query": "query anonymization (Q -> Qo)",
    # AVT remapping: vertex ids -> alignment-table images (Section 5)
    "remap_rows": "AVT row remap",
    "to_block_anchor": "AVT block anchor",
    # k-automorphism publication: G -> Gk/Go
    "build_kauto": "k-automorphic transformation",
    # one-way digests
    "sha256": "cryptographic hash",
    "blake2b": "cryptographic hash",
    "hexdigest": "cryptographic hash",
    "query_signature": "structural query digest",
    "coalesce_key": "structural query digest",
}

#: Calls whose result is declared taint-free even when handed tainted
#: arguments: they return metadata/verdicts, never embedded content.
#: (``before``/``after`` are the reviewed middleware-chain hooks — a
#: rejection they return carries policy text, not request payloads.)
TAINT_NEUTRAL_CALLS: frozenset[str] = frozenset(
    {
        "len",
        "type",
        "bool",
        "int",
        "float",
        "range",
        "enumerate",
        "id",
        "isinstance",
        "hash",
        "compare_digest",
        "before",
        "after",
    }
)


@dataclass(frozen=True)
class TaintSink:
    """One way bytes leave toward the cloud/telemetry boundary.

    ``name`` matches the called function (``via_attr=False``) or the
    called attribute/method (``via_attr=True``); a ``*`` suffix is a
    prefix match.  ``allows`` lists taint kinds the sink may
    legitimately carry (the hello frame *is* the credential carrier).
    """

    name: str
    via_attr: bool
    allows: tuple[str, ...]
    what: str


TAINT_SINKS: tuple[TaintSink, ...] = (
    TaintSink(
        "encode_gateway_hello",
        via_attr=False,
        allows=("secret",),
        what="the gateway hello frame (carries the credential by design)",
    ),
    TaintSink("encode_*", via_attr=False, allows=(), what="a wire codec"),
    TaintSink(
        "transmit",
        via_attr=True,
        allows=(),
        what="the simulated network channel",
    ),
    TaintSink("emit", via_attr=True, allows=(), what="the JSONL event log"),
    TaintSink(
        "emit_query", via_attr=True, allows=(), what="the JSONL event log"
    ),
    TaintSink(
        "emit_spans", via_attr=True, allows=(), what="the JSONL event log"
    ),
)

#: Exceptions whose text crosses the trust boundary (they are framed
#: into reject messages or surface on the remote caller); constructing
#: one from tainted text is a sink.
BOUNDARY_EXCEPTIONS: frozenset[str] = frozenset(
    {"ProtocolError", "GatewayError", "GatewayRejected"}
)

#: Modules where ``except Exception as e`` binds *internal* error text
#: that remote clients must never see (the gateway fronts untrusted
#: callers; the in-process cloud layers share one trust domain).
ERROR_TAINT_MODULES: tuple[str, ...] = ("repro.gateway",)


def sources_for(module: str) -> tuple[TaintSource, ...]:
    """The taint sources applicable inside ``module``."""
    return tuple(
        source
        for source in TAINT_SOURCES
        if not source.modules
        or any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in source.modules
        )
    )


def sink_for(name: str, via_attr: bool) -> TaintSink | None:
    """The sink matching a called ``name``, or ``None``."""
    for sink in TAINT_SINKS:
        if sink.via_attr is not via_attr:
            continue
        if sink.name.endswith("*"):
            if name.startswith(sink.name[:-1]):
                return sink
        elif name == sink.name:
            return sink
    return None


def allowed_for(module: str) -> tuple[str, ...] | None:
    """The allowlist governing ``module``, or ``None`` if unrestricted."""
    for layer, allowed in LAYERS.items():
        if module == layer or module.startswith(layer + "."):
            return allowed
    return None


def is_allowed(imported: str, allowed: tuple[str, ...]) -> bool:
    """Whether ``imported`` matches one of the allowed prefixes."""
    return any(
        imported == prefix or imported.startswith(prefix + ".")
        for prefix in allowed
    )


def forbidden_reason(imported: str) -> str:
    """The targeted explanation for ``imported``, if one is declared."""
    for prefix, reason in FORBIDDEN_REASONS.items():
        if imported == prefix or imported.startswith(prefix + "."):
            return reason
    return "not in the declared cloud-visible import surface"
