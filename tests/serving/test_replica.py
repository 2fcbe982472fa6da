"""ReplicaPool: per-thread read-only connections, retry, lifecycle."""

import sqlite3
import threading

import pytest

from repro.observability import Tracer
from repro.resilience import RetryPolicy
from repro.serving import ReplicaPool
from repro.store import SqliteStore, StoreError


class TestPoolBasics:
    def test_run_executes_against_replica(self, store_path):
        with ReplicaPool(store_path, workers=2) as pool:
            counts = pool.run(lambda replica: replica.counts())
            assert counts["matches"] > 0

    def test_replicas_are_read_only(self, store_path):
        with ReplicaPool(store_path, workers=1) as pool:
            with pytest.raises((StoreError, sqlite3.OperationalError)):
                pool.run(lambda replica: replica.set_meta("k", "v"))

    def test_one_connection_per_worker_thread(self, store_path):
        with ReplicaPool(store_path, workers=3) as pool:
            seen = set()
            barrier = threading.Barrier(3)

            def ident(replica):
                barrier.wait(timeout=5)
                return id(replica)

            futures = [pool.submit(ident) for _ in range(3)]
            for future in futures:
                seen.add(future.result(timeout=10))
            assert len(seen) == 3  # three workers, three distinct stores

    def test_missing_store_fails_fast(self, tmp_path):
        with pytest.raises((StoreError, sqlite3.OperationalError)):
            ReplicaPool(str(tmp_path / "nope.sqlite"), workers=1)

    def test_worker_count_validated(self, store_path):
        with pytest.raises(ValueError):
            ReplicaPool(store_path, workers=0)


class TestRetry:
    def test_failed_read_reopens_and_retries(self, store_path):
        tracer = Tracer()
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, seed=0)
        with ReplicaPool(
            store_path, workers=1, tracer=tracer, retry_policy=policy
        ) as pool:
            calls = {"n": 0}

            def flaky(replica):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise sqlite3.OperationalError("injected replica failure")
                return replica.counts()

            counts = pool.run(flaky)
            assert counts["matches"] > 0
            assert calls["n"] == 2
        assert tracer.metrics.counter("serving.replica_reopens") == 1

    def test_exhausted_retries_raise(self, store_path):
        from repro.resilience import ResilienceError

        policy = RetryPolicy(max_attempts=2, base_delay=0.0, seed=0)
        with ReplicaPool(store_path, workers=1, retry_policy=policy) as pool:
            def always_fails(replica):
                raise sqlite3.OperationalError("permanently broken")

            with pytest.raises(
                (ResilienceError, sqlite3.OperationalError)
            ):
                pool.run(always_fails)


class TestFdLeakAudit:
    @staticmethod
    def _fd_count():
        import os

        return len(os.listdir("/proc/self/fd"))

    def test_100_forced_reopens_leave_fd_count_flat(self, store_path):
        """Close-before-replace: repeated replica faults must not leak."""
        tracer = Tracer()
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, seed=0)
        with ReplicaPool(
            store_path, workers=1, tracer=tracer, retry_policy=policy
        ) as pool:
            state = {"fail_next": False}

            def flaky(replica):
                if state["fail_next"]:
                    state["fail_next"] = False
                    raise sqlite3.OperationalError("forced replica fault")
                return replica.counts()

            pool.run(flaky)  # warm: the worker's replica is open
            baseline_fds = self._fd_count()
            baseline_conns = pool.open_connections()
            for _ in range(100):
                state["fail_next"] = True
                pool.run(flaky)  # fault → close+reopen → retried read
            assert pool.open_connections() == baseline_conns
            assert self._fd_count() == baseline_fds
        assert tracer.metrics.counter("serving.replica_reopens") == 100

    def test_open_connections_tracks_lifecycle(self, store_path):
        pool = ReplicaPool(store_path, workers=2)
        assert pool.open_connections() == 0  # probe connection was closed
        pool.run(lambda replica: replica.counts())
        assert pool.open_connections() >= 1
        pool.close()
        assert pool.open_connections() == 0


class TestBreakerGating:
    def test_persistent_failures_open_breaker_and_reject_fast(self, store_path):
        from repro.resilience import CircuitBreaker, CircuitOpenError

        breaker = CircuitBreaker("pool", failure_threshold=3, cooldown=60.0)
        with ReplicaPool(store_path, workers=1, breaker=breaker) as pool:
            def doomed(replica):
                raise sqlite3.OperationalError("replica gone")

            for _ in range(3):
                with pytest.raises(sqlite3.OperationalError):
                    pool.run(doomed)
            assert breaker.state == "open"
            with pytest.raises(CircuitOpenError):
                pool.run(lambda replica: replica.counts())

    def test_breaker_recovers_after_successful_probe(self, store_path):
        from repro.resilience import CircuitBreaker

        clock = [0.0]
        breaker = CircuitBreaker(
            "pool",
            failure_threshold=1,
            cooldown=1.0,
            jitter=0.0,
            clock=lambda: clock[0],
        )
        with ReplicaPool(store_path, workers=1, breaker=breaker) as pool:
            with pytest.raises(sqlite3.OperationalError):
                pool.run(lambda replica: (_ for _ in ()).throw(
                    sqlite3.OperationalError("one-off")
                ))
            assert breaker.state == "open"
            clock[0] += 1.0  # cooldown elapses → half-open probe allowed
            assert pool.run(lambda replica: replica.counts())["matches"] > 0
            assert breaker.state == "closed"


class TestLifecycle:
    def test_close_is_idempotent(self, store_path):
        pool = ReplicaPool(store_path, workers=2)
        pool.run(lambda replica: replica.counts())
        pool.close()
        pool.close()

    def test_submit_after_close_rejected(self, store_path):
        pool = ReplicaPool(store_path, workers=1)
        pool.close()
        with pytest.raises(StoreError):
            pool.submit(lambda replica: replica.counts())

    def test_reads_see_writer_commits(self, store_path):
        """WAL: a replica opened before a write sees it after commit."""
        with ReplicaPool(store_path, workers=1) as pool:
            assert pool.run(
                lambda replica: replica.get_meta("visibility_probe", "")
            ) == ""
            writer = SqliteStore(store_path)
            try:
                writer.set_meta("visibility_probe", "committed")
            finally:
                writer.close()
            assert pool.run(
                lambda replica: replica.get_meta("visibility_probe", "")
            ) == "committed"
