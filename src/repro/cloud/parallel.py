"""Worker-pool plumbing for the parallel batched query engine.

The cloud of the paper answers each ``Qo`` serially.  A production
deployment serves a *workload*: many anonymized queries in flight at
once, sharing one immutable VBV/LBV index and one (locked)
:class:`repro.cloud.cache.StarMatchCache`.  This module centralizes the
``concurrent.futures`` mechanics behind
:meth:`repro.core.system.PrivacyPreservingSystem.submit`:

* ``backend="serial"`` — a plain loop (the default: the fastest arm
  on small queries, and the fallback for 0/1 workers or 0/1 tasks);
* ``backend="process"`` — a fork-based :class:`ProcessPoolExecutor`
  for CPU-bound workloads on multi-core clouds.  The server is
  inherited copy-on-write by the forked workers (never pickled); only
  the per-task payloads and answers cross the pipe.  Falls back to
  the serial loop where fork is unavailable (e.g. Windows/macOS-spawn).

Both backends return results **in input order** and re-raise the first
task exception (e.g. :class:`repro.exceptions.ResultBudgetExceeded`),
so callers observe exactly the semantics of the serial loop.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

BACKENDS = ("serial", "process")

#: Default pool width when ``max_workers`` is not given: every core,
#: but never fewer than 2 so a batch ``submit`` exercises the concurrent
#: path even on single-core hosts (correctness there is what the stress
#: tests pin down; speed needs real cores).
DEFAULT_MAX_WORKERS = max(2, os.cpu_count() or 1)


def fork_available() -> bool:
    """True when the fork start method exists (Linux, macOS-fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(max_workers: int | None, task_count: int) -> int:
    """Clamp the requested pool width to something sensible."""
    workers = DEFAULT_MAX_WORKERS if max_workers is None else int(max_workers)
    return max(1, min(workers, max(task_count, 1)))


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


# ----------------------------------------------------------------------
# fork-shared callable registry (process backend)
# ----------------------------------------------------------------------
# ``ProcessPoolExecutor`` pickles the submitted callable.  Bound methods
# of a CloudServer would drag the whole graph + index through the pipe
# for every task.  Instead the callable is parked here *before* the
# fork; children inherit the registry (and the server behind it)
# copy-on-write and look it up by token.  Only the token + payload are
# pickled per task.
_FORK_REGISTRY: dict[int, Callable] = {}  #: guarded by _FORK_LOCK
# R3 (lock discipline): concurrent process-backend batches — two
# ShardedCloud answers, or a sharded answer inside a process batch —
# register and pop tokens from different threads; the registry dict is
# shared module state and every parent-side mutation (all of them in
# PersistentProcessPool) holds this lock.
_FORK_LOCK = threading.Lock()
_FORK_TOKENS = itertools.count(1)


def _call_registered(token: int, payload: Any) -> Any:  # pragma: no cover - runs in child
    # Lock-free by design: this runs in a freshly forked, single-threaded
    # child whose registry snapshot was fixed at fork time (the parent
    # registered the token before creating the pool).
    return _FORK_REGISTRY[token](payload)


class PersistentProcessPool:
    """A long-lived fork pool bound to one registered callable.

    :func:`map_batch` opens and closes one of these per call, so
    every batch repays the fork *plus* the copy-on-write faulting of
    the inherited heap — refcount updates dirty every object page a
    worker touches, which for a graph-scanning task costs about as much
    as the scan itself.  Callers that scatter over the same immutable
    state once per query (:class:`repro.cloud.sharding.ShardedCloud`)
    keep one of these alive instead: children fork once, fault their
    share of the heap once, and stay warm for every later call.

    The callable is parked in the fork registry *before* the pool is
    created and stays registered for the pool's lifetime (popped by
    :meth:`close`).  Per call only the payload items and results cross
    the pipe.
    """

    def __init__(self, fn: Callable[[Any], Any], max_workers: int) -> None:
        if not fork_available():  # pragma: no cover - non-fork platforms
            raise RuntimeError(
                "PersistentProcessPool requires the fork start method"
            )
        self._token = next(_FORK_TOKENS)
        with _FORK_LOCK:
            _FORK_REGISTRY[self._token] = fn
        context = multiprocessing.get_context("fork")
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=max(1, int(max_workers)), mp_context=context
        )

    def map(self, items: Sequence[Any]) -> list[Any]:
        """Apply the bound callable to every item; results in input order.

        Re-raises the first task exception, like :func:`map_batch`.  The
        pool survives task exceptions (only a crashed worker breaks it).
        """
        pool = self._pool
        if pool is None:
            raise RuntimeError("persistent pool is closed")
        return list(
            pool.map(_call_registered, itertools.repeat(self._token), items)
        )

    @property
    def closed(self) -> bool:
        return self._pool is None

    def close(self) -> None:
        """Shut the workers down and unregister the callable (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with _FORK_LOCK:
            _FORK_REGISTRY.pop(self._token, None)

    def __enter__(self) -> "PersistentProcessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def map_batch(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    max_workers: int | None = None,
    backend: str = "serial",
) -> list[R]:
    """Apply ``fn`` to every item; results in input order.

    The workhorse of a batch ``submit``.  ``backend``/``max_workers``
    choose the pool; degenerate cases (one item, one worker, serial
    backend, no fork on this platform) run the plain loop so the
    parallel path is *bit-identical* to it by construction.
    """
    validate_backend(backend)
    items = list(items)
    workers = effective_workers(max_workers, len(items))
    if (
        backend == "serial"
        or workers <= 1
        or len(items) <= 1
        or not fork_available()
    ):
        return [fn(item) for item in items]

    with PersistentProcessPool(fn, workers) as pool:
        return pool.map(items)
