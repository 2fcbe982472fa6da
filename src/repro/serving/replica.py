"""Read-only replica connections, one per worker thread.

SQLite in WAL mode gives exactly the replication the serving layer
needs for free: any number of ``mode=ro`` connections read a consistent
snapshot of the store while the single writer commits — no reader ever
blocks the writer or sees a half-applied transaction.  The catch is
that a connection is not safely shareable across threads, so
:class:`ReplicaPool` owns a small :class:`ThreadPoolExecutor` and lazily
opens **one read-only** :class:`~repro.store.SqliteStore` **per worker
thread** (thread-local), rather than handing one connection to everyone
or leaning on ``check_same_thread`` defaults.

Failure handling reuses :class:`~repro.resilience.RetryPolicy`: when a
read fails with :class:`sqlite3.OperationalError` (replica file
unreadable, dropped NFS mount, torn WAL), the worker's **failed replica
is closed first** — never merely dropped, so repeated faults cannot leak
file descriptors — and reopened per the policy, counted under
``serving.replica_reopens``.  A :class:`~repro.resilience.CircuitBreaker`
may additionally front the pool: once reads fail persistently the
breaker opens and further calls are refused in O(1) with
:class:`~repro.resilience.CircuitOpenError` instead of burning a worker
slot per doomed attempt.  What happens then is the *service*'s decision
(stale-cache degradation, see :mod:`repro.serving.service`) — the pool
just raises.
"""

from __future__ import annotations

import sqlite3
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, TypeVar

from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.errors import ResilienceError
from repro.resilience.overload import CircuitBreaker
from repro.resilience.retry import NO_RETRY, RetryPolicy
from repro.store.errors import StoreError
from repro.store.sqlite import SqliteStore

__all__ = ["ReplicaPool"]

T = TypeVar("T")


class ReplicaPool:
    """N worker threads, each reading through its own replica connection.

    Parameters
    ----------
    path:
        The SQLite store file to open replicas of.
    workers:
        Worker-thread (and therefore replica-connection) count.
    tracer:
        Optional tracer for ``serving.*`` metrics.
    retry_policy:
        Reopen-and-retry policy for failed reads (default: no retry).
    breaker:
        Optional circuit breaker fronting the pool: consulted before a
        read is submitted (an open circuit raises
        :class:`~repro.resilience.CircuitOpenError` without queueing
        anything) and fed the post-retry verdict of every read.
    """

    def __init__(
        self,
        path: str,
        workers: int = 2,
        *,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._path = str(path)
        self._workers = workers
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._retry = retry_policy if retry_policy is not None else NO_RETRY
        self._breaker = breaker
        self._local = threading.local()
        # Track every store ever opened so close() can reach connections
        # living in worker threads; check_same_thread=False is safe here
        # because each store is only *queried* by its owning worker —
        # the flag exists solely so close() may run from the shutdown
        # thread.
        self._opened: List[SqliteStore] = []
        self._opened_lock = threading.Lock()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serving-read"
        )
        # Fail fast on an unopenable store instead of at first request.
        probe = self._open_replica()
        probe.close()

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The replicated store file."""
        return self._path

    @property
    def workers(self) -> int:
        """Worker-thread count (= maximum live replica connections)."""
        return self._workers

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The circuit breaker fronting the pool, if one is attached."""
        return self._breaker

    def open_connections(self) -> int:
        """Live replica connections right now (the fd-leak audit's probe)."""
        with self._opened_lock:
            return len(self._opened)

    def _open_replica(self) -> SqliteStore:
        return SqliteStore(
            self._path,
            tracer=self._tracer,
            read_only=True,
            check_same_thread=False,
        )

    def _replica(self) -> SqliteStore:
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._open_replica()
            self._local.store = store
            with self._opened_lock:
                self._opened.append(store)
        return store

    def _drop_replica(self) -> None:
        """Close-then-forget this thread's replica (fd-leak audited).

        Ordering matters: the failed store is **closed before** the
        thread-local slot is cleared, so even if close raises unexpectedly
        the connection is never silently abandoned to the GC — 100
        forced reopens must leave the process fd count flat
        (``tests/serving/test_replica.py``).
        """
        store = getattr(self._local, "store", None)
        if store is None:
            return
        try:
            store.close()
        except sqlite3.Error:  # pragma: no cover - close of a dead handle
            pass
        finally:
            self._local.store = None
            with self._opened_lock:
                if store in self._opened:
                    self._opened.remove(store)

    def _run_with_replica(self, fn: Callable[[SqliteStore], T]) -> T:
        """Worker-side body: run *fn* on this thread's replica, retrying.

        An :class:`sqlite3.OperationalError` or :class:`StoreError`
        discards the thread's connection before the retry, so the next
        attempt reopens from scratch — the recovery that helps when the
        old handle (not the file) is what broke.
        """

        def attempt() -> T:
            try:
                return fn(self._replica())
            except (sqlite3.OperationalError, StoreError):
                self._drop_replica()
                if self._tracer.enabled:
                    self._tracer.metrics.inc("serving.replica_reopens")
                raise

        if self._retry.max_attempts > 1:
            return self._retry.call(
                attempt,
                operation="serving.replica_read",
                retry_on=(sqlite3.OperationalError, StoreError),
                tracer=self._tracer,
            )
        return attempt()

    def submit(self, fn: Callable[[SqliteStore], T]) -> "Future[T]":
        """Run ``fn(replica)`` on a worker thread; returns its future.

        With a breaker attached, an open circuit refuses the call here —
        on the *calling* thread, before any work is queued — and the
        read's eventual verdict is recorded when its future resolves.
        """
        if self._closed:
            raise StoreError("replica pool is closed")
        if self._breaker is None:
            return self._executor.submit(self._run_with_replica, fn)
        self._breaker.before_call()
        future = self._executor.submit(self._run_with_replica, fn)

        def record(done: "Future[T]") -> None:
            try:
                exc = done.exception()
            except BaseException:  # pragma: no cover - cancelled future
                exc = None
            if isinstance(exc, (sqlite3.Error, StoreError, ResilienceError)):
                self._breaker.record_failure()
            else:
                self._breaker.record_success()

        future.add_done_callback(record)
        return future

    def run(
        self, fn: Callable[[SqliteStore], T], *, timeout: Optional[float] = None
    ) -> T:
        """Run ``fn(replica)`` on a worker thread and wait for the result.

        *timeout* (seconds) bounds the wait, not the query — a
        lookup that blows the deadline raises
        :class:`concurrent.futures.TimeoutError` here while the worker
        finishes (and discards) the slow read in the background.
        """
        return self.submit(fn).result(timeout=timeout)

    def close(self) -> None:
        """Shut down the workers and close every replica connection."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        with self._opened_lock:
            stores, self._opened = list(self._opened), []
        for store in stores:
            try:
                store.close()
            except sqlite3.Error:  # pragma: no cover - close of a dead handle
                pass

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()
