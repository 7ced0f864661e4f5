"""Worker-pool plumbing for the parallel batched query engine.

The cloud of the paper answers each ``Qo`` serially.  Parallelism is
a count at each of two levels, and a fork pool is its only parallel
path: ``QueryOptions(workers=N)`` runs a batch ``submit`` on
:func:`map_batch`'s pool, ``CloudServer(shards=N)`` scatters star
matching over a :class:`PersistentProcessPool`.  The forked workers
inherit the server copy-on-write (never pickled); only the per-task
payloads and answers cross the pipe.

A count of ``None`` or 1, a single task, or a platform without fork
runs the plain loop instead.  The pool returns results **in input
order** and re-raises the first task exception (e.g.
:class:`repro.exceptions.ResultBudgetExceeded`), so callers observe
exactly the semantics of the loop.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_available() -> bool:
    """True when the fork start method exists (Linux, macOS-fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(workers: int | None, task_count: int) -> int:
    """How many forked workers ``workers`` over ``task_count`` tasks run.

    1 means the plain loop: no count (``None``), a count of 1, at most
    one task, or no fork on this platform.
    """
    if workers is None or not fork_available():
        return 1
    return max(1, min(int(workers), task_count))


# ----------------------------------------------------------------------
# fork-shared callable registry
# ----------------------------------------------------------------------
# ``ProcessPoolExecutor`` pickles the submitted callable.  Bound methods
# of a CloudServer would drag the whole graph + index through the pipe
# for every task.  Instead the callable is parked here *before* the
# fork; children inherit the registry (and the server behind it)
# copy-on-write and look it up by token.  Only the token + payload are
# pickled per task.
_FORK_REGISTRY: dict[int, Callable] = {}  #: guarded by _FORK_LOCK
# R3 (lock discipline): concurrent pools — two sharded answers, or a
# forked batch beside a sharded answer — register and pop tokens from
# different threads; the registry dict is shared module state and every
# parent-side mutation (all of them in PersistentProcessPool) holds
# this lock.
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
    state once per query (a sharded
    :class:`~repro.cloud.server.CloudServer`) keep one of these alive
    instead: children fork once, fault their share of the heap once,
    and stay warm for every later call.

    The callable is parked in the fork registry *before* the pool is
    created and stays registered for the pool's lifetime (popped by
    :meth:`close`).  Per call only the payload items and results cross
    the pipe.  With an ``owner``, the pool also closes when the owner is
    garbage: the registry then lets go of the callable (and of whatever
    it captured) however the owner was dropped.  ``fn`` must not
    capture the owner, or the owner is never garbage.
    """

    def __init__(
        self, fn: Callable[[Any], Any], max_workers: int, owner: object = None
    ) -> None:
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
        self._owner_alive = (
            weakref.finalize(owner, self.close) if owner is not None else None
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
        if self._owner_alive is not None:
            self._owner_alive.detach()
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
    workers: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every item; results in input order.

    The workhorse of a batch ``submit``: ``workers`` forked workers, or
    the plain loop whenever :func:`effective_workers` says 1, so the
    parallel path is *bit-identical* to it by construction.
    """
    items = list(items)
    workers = effective_workers(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    with PersistentProcessPool(fn, workers) as pool:
        return pool.map(items)
