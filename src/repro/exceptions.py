"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failure class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid (bad ``k``/``theta``/method...).

    Raised by :class:`repro.core.config.SystemConfig` and
    :meth:`repro.core.config.MethodConfig.from_name` instead of
    silently accepting values the paper's guarantees do not cover.
    """


class GraphError(ReproError):
    """Structural problem with an attributed graph (bad vertex, edge...)."""


class SchemaError(ReproError):
    """A vertex or label violates the graph schema (Definition 1)."""


class PartitionError(ReproError):
    """The partitioner could not produce a valid k-way partition."""


class AnonymizationError(ReproError):
    """Label generalization failed (e.g. fewer than theta labels)."""


class QueryError(ReproError):
    """The query graph is malformed (disconnected, empty, unknown labels)."""


class ProtocolError(ReproError):
    """A message exchanged between client and cloud failed to validate."""


class GatewayError(ProtocolError):
    """A gateway frame exchange failed (framing, handshake, transport)."""


class GatewayRejected(GatewayError):
    """The gateway refused a request instead of answering it.

    Carried on the wire as a typed reject frame; the client re-raises
    it with the machine-readable ``code`` (``"overloaded"``,
    ``"unauthorized"``, ``"rate_limited"``, ``"budget_exhausted"``,
    ``"queue_full"``, ``"bad_request"``, ``"internal"``), the
    human-readable ``reason`` and the ``request_id`` it answers.  A
    reject is load shedding or policy, not a crash: the connection
    stays usable and the client may retry later.
    """

    def __init__(self, code: str, reason: str, request_id: str = ""):
        super().__init__(f"gateway rejected request: {code}: {reason}")
        self.code = code
        self.reason = reason
        self.request_id = request_id


class VerificationError(ReproError):
    """A published artifact failed its privacy/structure verification."""


class ResultBudgetExceeded(ReproError):
    """A query's intermediate results exceeded the configured budget.

    Raised by the cloud engine when ``max_intermediate_results`` is set
    (a resource quota a real cloud provider would enforce) and a star
    match set or join intermediate grows past it.  The query is not
    answered; the client may retry with a more selective query or a
    higher budget.
    """

    def __init__(self, stage: str, size: int, budget: int):
        super().__init__(
            f"{stage} produced {size} intermediate results, over budget {budget}"
        )
        self.stage = stage
        self.size = size
        self.budget = budget

    def __reduce__(self) -> tuple:
        # the default reduce replays ``args`` (the one formatted message)
        # into this three-argument constructor; raised in a fork child,
        # that fails to unpickle in the parent and breaks the whole pool
        return type(self), (self.stage, self.size, self.budget)
