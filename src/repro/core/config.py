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


def check_int(
    name: str, value: object, minimum: int, *, optional: bool = False
) -> None:
    """``ConfigError`` unless ``value`` is an int (a bool is not) of at
    least ``minimum``; ``None`` passes when the field is ``optional``."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an int >= {minimum}, got {value!r}")


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
    allow_small_label_groups: bool = True
    # per-query cloud resource quota: a star-match or join intermediate
    # exceeding it raises ResultBudgetExceeded instead of exhausting
    # memory.  None = unlimited (the paper's setting).
    max_intermediate_results: int | None = None
    # pair similarly-labeled vertices into AVT rows so the symmetric
    # row-union widens label groups less (lower delta(k), smaller
    # search space).  Off by default = the paper's pure-BFS alignment.
    label_aware_alignment: bool = False
    # number of cloud shards: 1 (default) is the paper's single
    # CloudServer loop; N > 1 splits the one index's candidate centers
    # into N ranges and scatters the star matching of each query over
    # a warm fork pool of N workers.  Answers are bit-identical at
    # every shard count.
    shards: int = 1

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
        check_int("k", self.k, 2)  # k = 1 is no privacy
        check_int("theta", self.theta, 1)
        # 0 is legal: "no intermediate results allowed" (every non-empty
        # star/join trips the budget) — the bench harness uses it to
        # exercise the skip path.
        check_int("max_intermediate_results", self.max_intermediate_results, 0, optional=True)
        check_int("shards", self.shards, 1)
