"""Configuration of the end-to-end system.

The paper's evaluation compares four method configurations:

========  =======================  ==================
name      label grouping           uploaded graph
========  =======================  ==================
``EFF``   cost-model (Section 5)   ``Go``
``RAN``   random                   ``Go``
``FSIM``  frequency-similar        ``Go``
``BAS``   cost-model (same as EFF) full ``Gk``
========  =======================  ==================

:class:`SystemConfig` is **keyword-only** and validates every field at
construction (``ConfigError`` — a :class:`~repro.exceptions.ReproError`
subclass — instead of silently accepting bad values).  ``method``
accepts either a :class:`MethodConfig` or one of the four names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.anonymize import STRATEGIES, GroupingStrategy
from repro.exceptions import ConfigError

DEFAULT_THETA = 2  # the paper's default: two labels per label group


@dataclass(frozen=True)
class MethodConfig:
    """One of the paper's compared methods."""

    name: str
    strategy: GroupingStrategy
    upload_full_gk: bool

    @classmethod
    def from_name(cls, name: str) -> "MethodConfig":
        key = str(name).upper()
        if key == "BAS":
            return cls(name="BAS", strategy=STRATEGIES["EFF"], upload_full_gk=True)
        if key in STRATEGIES:
            return cls(name=key, strategy=STRATEGIES[key], upload_full_gk=False)
        raise ConfigError(
            f"unknown method {name!r}; expected one of EFF, RAN, FSIM, BAS"
        )


METHOD_NAMES = ("EFF", "RAN", "FSIM", "BAS")


@dataclass(kw_only=True)
class SystemConfig:
    """Full configuration of one publish-and-query experiment.

    All fields are keyword-only: ``SystemConfig(k=3, method="BAS")``.
    Validation happens in ``__post_init__`` and raises
    :class:`~repro.exceptions.ConfigError` on any out-of-range value.
    """

    k: int = 2
    theta: int = DEFAULT_THETA
    method: MethodConfig | str = field(
        default_factory=lambda: MethodConfig.from_name("EFF")
    )
    seed: int = 0
    # where Rin is expanded to R(Qo, Gk): "client" (default, minimizes
    # communication) or "cloud" (minimizes client CPU) — Section 4.2.2
    # discusses both placements.  Ignored by BAS (already expanded).
    expansion_site: str = "client"
    allow_small_label_groups: bool = True
    # per-query cloud resource quota: a star-match or join intermediate
    # exceeding it raises ResultBudgetExceeded instead of exhausting
    # memory.  None = unlimited (the paper's setting).
    max_intermediate_results: int | None = None
    # pair similarly-labeled vertices into AVT rows so the symmetric
    # row-union widens label groups less (lower delta(k), smaller
    # search space).  Off by default = the paper's pure-BFS alignment.
    label_aware_alignment: bool = False
    # LRU cache of star match sets in the cloud, keyed by the star's
    # constraint signature; entries are reused across queries sharing
    # star shapes.  0 (default) disables caching.  The cache is
    # internally locked, so it is safe to share between the concurrent
    # callers of a serving gateway.
    star_cache_size: int = 0
    # number of cloud shards: 1 (default) deploys the paper's single
    # CloudServer; N > 1 deploys a ShardedCloud that partitions Go over
    # N shard servers and scatter-gathers each query.  Answers are
    # bit-identical at every shard count.
    shards: int = 1
    # scatter backend of the sharded cloud ("serial" or "process");
    # ignored when shards == 1.
    shard_backend: str = "serial"
    # -- serving telemetry (repro.obs.events / repro.obs.windows) -------
    # JSONL event-log destination.  None (default) disables structured
    # event logging entirely; a path makes PrivacyPreservingSystem
    # attach an EventLog emitting one event per traced phase boundary.
    event_log_path: str | None = None
    # "info" records phase boundaries; "debug" additionally records
    # per-star detail (one event per star per query — high volume).
    event_log_level: str = "info"
    # fraction of queries whose events are written, decided
    # deterministically per query_id.  0.0 writes nothing and costs a
    # single predicate call per query (NullTracer-grade).
    event_sample_rate: float = 1.0
    # sliding-window SLO views (p50/p95/p99 + rate on /metrics):
    # ring capacity and optional time bound in seconds (None = purely
    # count-bounded).
    slo_window_size: int = 1024
    slo_window_seconds: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.method, str):
            # convenience: SystemConfig(method="BAS"); unknown names
            # raise ConfigError from from_name
            self.method = MethodConfig.from_name(self.method)
        elif not isinstance(self.method, MethodConfig):
            raise ConfigError(
                f"method must be a MethodConfig or a method name, "
                f"got {type(self.method).__name__}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ConfigError(f"k must be an int, got {self.k!r}")
        if self.k < 2:
            raise ConfigError("k must be >= 2 for any privacy")
        if not isinstance(self.theta, int) or isinstance(self.theta, bool):
            raise ConfigError(f"theta must be an int, got {self.theta!r}")
        if self.theta < 1:
            raise ConfigError("theta must be >= 1")
        if self.expansion_site not in ("client", "cloud"):
            raise ConfigError("expansion_site must be 'client' or 'cloud'")
        if self.max_intermediate_results is not None and (
            self.max_intermediate_results < 0
        ):
            # 0 is legal: "no intermediate results allowed" (every
            # non-empty star/join trips the budget) — the bench harness
            # uses it to exercise the skip path.
            raise ConfigError("max_intermediate_results must be >= 0 or None")
        if self.star_cache_size < 0:
            raise ConfigError("star_cache_size must be >= 0")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool):
            raise ConfigError(f"shards must be an int, got {self.shards!r}")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        # validated against a literal so importing repro.core.config
        # does not pull the whole cloud package; must stay in sync with
        # repro.cloud.parallel.BACKENDS (pinned by tests).
        if self.shard_backend not in ("serial", "process"):
            raise ConfigError(
                "shard_backend must be 'serial' or 'process', "
                f"got {self.shard_backend!r}"
            )
        if self.event_log_level not in ("debug", "info"):
            raise ConfigError(
                f"event_log_level must be 'debug' or 'info', "
                f"got {self.event_log_level!r}"
            )
        if not 0.0 <= float(self.event_sample_rate) <= 1.0:
            raise ConfigError("event_sample_rate must be in [0.0, 1.0]")
        if not isinstance(self.slo_window_size, int) or isinstance(
            self.slo_window_size, bool
        ):
            raise ConfigError(
                f"slo_window_size must be an int, got {self.slo_window_size!r}"
            )
        if self.slo_window_size < 1:
            raise ConfigError("slo_window_size must be >= 1")
        if self.slo_window_seconds is not None and not (
            self.slo_window_seconds > 0
        ):
            raise ConfigError("slo_window_seconds must be positive or None")
