"""Privacy-audit reporter: the paper's leakage quantities as metrics.

The privacy story of the paper rests on quantifiable properties that
are usually checked offline (as in the CryptGraph/Peng-style analyses):

* **k-automorphism indistinguishability** — every vertex of the
  published graph sits in an AVT row of ``k`` mutually symmetric
  vertices, so an adversary locating a target has a candidate set of
  size ``>= k`` (success probability ``<= 1/k``);
* **θ-label generalization** — every LCT label group holds ``>= θ``
  raw labels, giving ``log2(|group|)`` bits of label uncertainty;
* **false-positive ratio** — Algorithm 3's client-side filter drops
  ``|R(Qo, Gk)| - |R(Q, G)|`` candidates per query; the ratio measures
  how much of what the cloud computes is noise it cannot distinguish
  from real results;
* **outsourced fraction** — ``|E(Go)| / |E(Gk)|``: how much of the
  symmetric graph actually leaves the owner.

:func:`build_audit` computes all four as one
:class:`PrivacyAuditReport`; :meth:`PrivacyAuditReport.register`
exports them as gauges on a :class:`~repro.obs.MetricsRegistry` so a
long-lived ``repro serve`` process exposes its privacy posture on
``/metrics`` next to its latency — continuously, the way an inference
stack exports quality counters.  ``python -m repro audit`` renders the
report as a summary table.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.anonymize.lct import LabelCorrespondenceTable
from repro.exceptions import ConfigError
from repro.kauto.avt import AlignmentVertexTable
from repro.obs import names
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacyPreservingSystem, QueryOutcome

AUDIT_PREFIX = "privacy_audit"

#: Cardinality cap on the per-query FP-ratio gauge: only the newest N
#: audited query ids keep a labeled series; older ones are evicted on
#: re-register.  Without the cap a long-lived ``repro serve`` process
#: re-auditing after every batch would grow one label set per query id
#: forever — an unbounded ``/metrics`` exposition.
FP_GAUGE_MAX_QUERIES = 128


@dataclass
class QueryAuditEntry:
    """Algorithm 3's filter counts for one query."""

    query_id: str = ""
    candidates: int = 0  # |R(Qo, Gk)| — expanded Rin, pre-filter
    results: int = 0  # |R(Q, G)| — exact matches after filtering
    rin_size: int = 0  # |Rin| — what crossed the wire

    @property
    def false_positives(self) -> int:
        return self.candidates - self.results

    @property
    def false_positive_ratio(self) -> float:
        if self.candidates <= 0:
            return 0.0
        return self.false_positives / self.candidates

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["false_positives"] = self.false_positives
        doc["false_positive_ratio"] = self.false_positive_ratio
        return doc


@dataclass
class PrivacyAuditReport:
    """One point-in-time audit of a deployment's privacy posture."""

    k: int = 0
    theta: int = 0
    # k-automorphism: per-vertex candidate-set sizes under the AVT
    vertex_count: int = 0
    candidate_set_min: int = 0
    candidate_set_mean: float = 0.0
    candidate_set_max: int = 0
    # θ-generalization: LCT label-group sizes and entropies
    label_group_count: int = 0
    label_group_min_size: int = 0
    label_group_mean_size: float = 0.0
    label_group_min_entropy_bits: float = 0.0
    label_group_mean_entropy_bits: float = 0.0
    # outsourcing: how much of Gk leaves the owner
    gk_edges: int = 0
    outsourced_edges: int = 0
    # Algorithm 3 filter counts (aggregate + per query)
    candidates_total: int = 0
    matches_total: int = 0
    false_positives_total: int = 0
    per_query: list[QueryAuditEntry] = field(default_factory=list)

    # -- derived guarantees ---------------------------------------------
    @property
    def k_satisfied(self) -> bool:
        """Candidate set >= k for every vertex (the 1/k bound holds)."""
        return self.vertex_count == 0 or self.candidate_set_min >= self.k

    @property
    def theta_satisfied(self) -> bool:
        """Every label group holds >= θ labels."""
        return self.label_group_count == 0 or (
            self.label_group_min_size >= self.theta
        )

    @property
    def ok(self) -> bool:
        return self.k_satisfied and self.theta_satisfied

    @property
    def attack_probability_bound(self) -> float:
        """Worst-case re-identification probability (``1/min candidate set``)."""
        if self.candidate_set_min <= 0:
            return 1.0
        return 1.0 / self.candidate_set_min

    @property
    def outsourced_fraction(self) -> float:
        """``|E(Go)| / |E(Gk)|`` (1.0 for a full-Gk / BAS deployment)."""
        if self.gk_edges <= 0:
            return 0.0
        return self.outsourced_edges / self.gk_edges

    @property
    def false_positive_ratio(self) -> float:
        """Aggregate FP ratio over everything Algorithm 3 filtered."""
        if self.candidates_total <= 0:
            return 0.0
        return self.false_positives_total / self.candidates_total

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["per_query"] = [entry.to_dict() for entry in self.per_query]
        for prop in (
            "k_satisfied",
            "theta_satisfied",
            "ok",
            "attack_probability_bound",
            "outsourced_fraction",
            "false_positive_ratio",
        ):
            doc[prop] = getattr(self, prop)
        return doc

    def register(
        self, registry: MetricsRegistry, prefix: str = AUDIT_PREFIX
    ) -> None:
        """Export the report as gauges (``{prefix}_*``) for ``/metrics``."""
        def gauge(name: str, value: float, help: str) -> None:
            registry.gauge(f"{prefix}_{name}", help=help).set(value)

        gauge("k", self.k, "Configured k of the audited deployment.")
        gauge("theta", self.theta, "Configured theta of the audited deployment.")
        gauge(
            "candidate_set_min",
            self.candidate_set_min,
            "Smallest per-vertex candidate set under the AVT (must be >= k).",
        )
        gauge(
            "candidate_set_mean",
            self.candidate_set_mean,
            "Mean per-vertex candidate-set size under the AVT.",
        )
        gauge(
            "candidate_set_max",
            self.candidate_set_max,
            "Largest per-vertex candidate set under the AVT.",
        )
        gauge(
            "attack_probability_bound",
            self.attack_probability_bound,
            "Worst-case structural re-identification probability (<= 1/k).",
        )
        gauge(
            "label_group_count",
            self.label_group_count,
            "Label groups in the private LCT.",
        )
        gauge(
            "label_group_min_size",
            self.label_group_min_size,
            "Smallest LCT label group (must be >= theta).",
        )
        gauge(
            "label_group_mean_entropy_bits",
            self.label_group_mean_entropy_bits,
            "Mean label uncertainty per group, log2(|group|) bits.",
        )
        gauge(
            "label_group_min_entropy_bits",
            self.label_group_min_entropy_bits,
            "Smallest per-group label uncertainty in bits.",
        )
        gauge(
            "outsourced_fraction",
            self.outsourced_fraction,
            "|E(Go)| / |E(Gk)| — share of the symmetric graph outsourced.",
        )
        gauge(
            "false_positive_ratio",
            self.false_positive_ratio,
            "Aggregate Algorithm-3 filter drop ratio over audited queries.",
        )
        gauge("ok", 1.0 if self.ok else 0.0, "1 when k and theta both hold.")
        fp_gauge = registry.gauge(
            f"{prefix}_query_false_positive_ratio",
            help="Per-query Algorithm-3 filter drop ratio.",
        )
        # Bounded cardinality: only the newest FP_GAUGE_MAX_QUERIES
        # query ids keep a labeled series; everything older (including
        # series from earlier register() calls on the same registry) is
        # evicted so the exposition cannot grow one line per query id
        # forever.
        labeled = [entry for entry in self.per_query if entry.query_id]
        kept = labeled[-FP_GAUGE_MAX_QUERIES:]
        kept_ids = {entry.query_id for entry in kept}
        for key, _value in fp_gauge.items():
            labels = dict(key)
            if labels.get("query_id", "") not in kept_ids:
                fp_gauge.remove(**labels)
        for entry in kept:
            fp_gauge.set(entry.false_positive_ratio, query_id=entry.query_id)


# ----------------------------------------------------------------------
# computation
# ----------------------------------------------------------------------
def candidate_set_sizes(avt: AlignmentVertexTable) -> list[int]:
    """Per-vertex candidate-set size: the width of each vertex's AVI row.

    Every vertex of ``Gk`` appears in exactly one AVT row of ``k``
    mutually symmetric vertices; the row *is* the adversary's candidate
    set under k-automorphism.
    """
    return [len(avt.symmetric_group(vid)) for vid in sorted(avt.vertex_ids())]


def label_group_sizes(lct: LabelCorrespondenceTable) -> list[int]:
    """Labels per LCT group (>= θ when the guarantee holds)."""
    return [len(lct.members(gid)) for gid in lct.group_ids()]


def group_entropy_bits(size: int) -> float:
    """Label uncertainty of one group, assuming uniform labels."""
    return math.log2(size) if size > 0 else 0.0


def query_audit_entry(outcome: "QueryOutcome") -> QueryAuditEntry:
    """Algorithm 3's counts, read off one :class:`QueryOutcome`."""
    metrics = outcome.metrics
    return QueryAuditEntry(
        query_id=getattr(outcome, "query_id", "") or "",
        candidates=metrics.candidate_count,
        results=metrics.result_count,
        rin_size=metrics.rin_size,
    )


def build_audit(
    avt: AlignmentVertexTable,
    lct: LabelCorrespondenceTable | None = None,
    *,
    theta: int = 0,
    gk_edges: int = 0,
    outsourced_edges: int = 0,
    outcomes: Iterable["QueryOutcome"] = (),
    registry: MetricsRegistry | None = None,
) -> PrivacyAuditReport:
    """Compute the audit report from deployment artifacts.

    ``outcomes`` contributes per-query filter counts; ``registry``
    (when given) supplies the *aggregate* Algorithm-3 counters
    (``candidates_total`` / ``matches_total`` /
    ``false_positives_filtered_total``) accumulated by the live
    pipeline — they take precedence over summing the outcomes, so the
    exported FP-ratio gauge matches exactly what the filter counted.
    """
    sizes = candidate_set_sizes(avt)
    report = PrivacyAuditReport(k=avt.k, theta=theta)
    report.vertex_count = len(sizes)
    if sizes:
        report.candidate_set_min = min(sizes)
        report.candidate_set_max = max(sizes)
        report.candidate_set_mean = sum(sizes) / len(sizes)

    if lct is not None:
        group_sizes = label_group_sizes(lct)
        report.theta = theta or lct.theta
        report.label_group_count = len(group_sizes)
        if group_sizes:
            report.label_group_min_size = min(group_sizes)
            report.label_group_mean_size = sum(group_sizes) / len(group_sizes)
            entropies = [group_entropy_bits(size) for size in group_sizes]
            report.label_group_min_entropy_bits = min(entropies)
            report.label_group_mean_entropy_bits = sum(entropies) / len(
                entropies
            )

    report.gk_edges = gk_edges
    report.outsourced_edges = outsourced_edges

    report.per_query = [query_audit_entry(outcome) for outcome in outcomes]
    if registry is not None and _has_filter_counters(registry):
        report.candidates_total = int(
            registry.counter(names.M_CANDIDATES).total
        )
        report.matches_total = int(registry.counter(names.M_MATCHES).total)
        report.false_positives_total = int(
            registry.counter(names.M_FALSE_POSITIVES).total
        )
    else:
        report.candidates_total = sum(e.candidates for e in report.per_query)
        report.matches_total = sum(e.results for e in report.per_query)
        report.false_positives_total = sum(
            e.false_positives for e in report.per_query
        )
    return report


def _has_filter_counters(registry: MetricsRegistry) -> bool:
    counter = registry.get(names.M_CANDIDATES)
    return counter is not None and counter.kind == "counter"


def audit_system(
    system: "PrivacyPreservingSystem",
    outcomes: Iterable["QueryOutcome"] = (),
) -> PrivacyAuditReport:
    """Audit a live, published :class:`PrivacyPreservingSystem`.

    A loaded system keeps no ``Gk``: audit it from its artefacts with
    :func:`build_audit`, as ``repro audit <deployment>`` does.
    """
    published = system.published
    if published is None:
        raise ConfigError(
            "audit_system needs a system that published its graph; "
            "audit a loaded deployment from its artefacts (build_audit)"
        )
    return build_audit(
        published.transform.avt,
        published.lct,
        theta=system.config.theta,
        gk_edges=published.metrics.gk_edges
        or published.transform.gk.edge_count,
        outsourced_edges=published.upload_graph.edge_count,
        outcomes=outcomes,
        registry=system.obs.metrics,
    )


def register_live_false_positive_ratio(
    registry: MetricsRegistry, prefix: str = AUDIT_PREFIX
) -> None:
    """A pull callback tracking the FP ratio as the pipeline runs.

    Unlike the point-in-time gauge of :meth:`PrivacyAuditReport.
    register`, this recomputes from the live Algorithm-3 counters at
    every scrape, so ``/metrics`` shows the current ratio without
    re-auditing.
    """
    # the callback is stored in the registry it reads: hold it weakly
    live = weakref.proxy(registry)

    def live_ratio() -> float:
        counter = live.get(names.M_CANDIDATES)
        if counter is None or counter.kind != "counter":
            return 0.0
        candidates = counter.total
        if candidates <= 0:
            return 0.0
        dropped = live.counter(names.M_FALSE_POSITIVES).total
        return dropped / candidates

    registry.register_callback(
        f"{prefix}_false_positive_ratio_live",
        live_ratio,
        help="Live Algorithm-3 filter drop ratio (from the counters).",
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_audit(report: PrivacyAuditReport, title: str = "privacy audit") -> str:
    """The report as a fixed-width summary table."""
    def mark(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    rows: list[tuple[str, str]] = [
        ("k (automorphism)", str(report.k)),
        ("theta (label groups)", str(report.theta)),
        ("vertices audited", str(report.vertex_count)),
        (
            "candidate set min/mean/max",
            f"{report.candidate_set_min}/"
            f"{report.candidate_set_mean:.2f}/{report.candidate_set_max}",
        ),
        (
            "attack probability bound",
            f"{report.attack_probability_bound:.4f}",
        ),
        ("k guarantee", mark(report.k_satisfied)),
        ("label groups", str(report.label_group_count)),
        (
            "group size min/mean",
            f"{report.label_group_min_size}/{report.label_group_mean_size:.2f}",
        ),
        (
            "group entropy min/mean (bits)",
            f"{report.label_group_min_entropy_bits:.3f}/"
            f"{report.label_group_mean_entropy_bits:.3f}",
        ),
        ("theta guarantee", mark(report.theta_satisfied)),
        (
            "outsourced edges |E(Go)|/|E(Gk)|",
            f"{report.outsourced_edges}/{report.gk_edges} "
            f"({report.outsourced_fraction:.1%})",
        ),
        ("queries audited", str(len(report.per_query))),
        ("candidates inspected", str(report.candidates_total)),
        ("exact matches", str(report.matches_total)),
        ("false positives filtered", str(report.false_positives_total)),
        ("false-positive ratio", f"{report.false_positive_ratio:.1%}"),
        ("overall", mark(report.ok)),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [title, "-" * len(title)]
    lines.extend(f"{label.ljust(width)}  {value}" for label, value in rows)
    return "\n".join(lines)
