"""Retry with capped exponential backoff, seeded jitter, and deadlines.

:class:`RetryPolicy` is a small immutable value object: how many
attempts, how the delay between them grows, how much jitter to add, and
an optional per-operation deadline.  Jitter comes from a *seeded*
``random.Random`` created per :meth:`RetryPolicy.call`, so two runs with
the same policy back off identically — chaos experiments stay
reproducible.  The sleep and clock functions are injectable; tests pass
``sleep=None`` and retries cost no wall-clock at all.

The policy is applied at three pipeline sites (see ``docs/RESILIENCE.md``):
source loading in :mod:`repro.federation.incremental`, the pair
executor's store write in :mod:`repro.blocking.executor`, and
transactional commits in :mod:`repro.store`.  Every retry and give-up is counted under
``resilience.*`` metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Optional, Tuple, Type

from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.errors import DeadlineExceededError, RetryExhaustedError

__all__ = ["RetryPolicy", "NO_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) to retry a failed operation.

    Parameters
    ----------
    max_attempts:
        Total attempts, first try included (``1`` = never retry).
    base_delay:
        Seconds before the first retry, pre-jitter.
    multiplier:
        Exponential growth factor between retries.
    max_delay:
        Cap on any single pre-jitter delay.
    jitter:
        Fraction of the delay randomised: the slept delay is drawn
        uniformly from ``[delay·(1-jitter), delay]`` ("equal jitter").
        ``0.0`` makes backoff fully deterministic in wall-clock too.
    seed:
        Seed of the per-call jitter RNG — same seed, same backoff
        schedule, every run.
    deadline:
        Optional per-operation budget in seconds; when the elapsed time
        plus the next delay would exceed it, the policy gives up with
        :class:`~repro.resilience.errors.DeadlineExceededError` instead
        of sleeping past the budget.
    sleep / clock:
        Injectable ``time.sleep`` / ``time.perf_counter``; pass
        ``sleep=None`` to retry without any real waiting (tests, chaos
        runs).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    deadline: Optional[float] = None
    sleep: Optional[Callable[[float], None]] = time.sleep
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    # ------------------------------------------------------------------
    def delay_for(self, attempt: int, rng: Random) -> float:
        """Post-jitter delay after failed attempt number *attempt* (1-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and delay > 0:
            delay -= rng.uniform(0.0, self.jitter) * delay
        return delay

    def call(
        self,
        fn: Callable[[], Any],
        *,
        operation: str = "operation",
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        fatal: Tuple[Type[BaseException], ...] = (),
        tracer: Optional[Tracer] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Run *fn*, retrying per this policy; return its result.

        ``retry_on`` names the exception types worth retrying; anything
        in ``fatal`` (checked first) propagates immediately — programmer
        errors and constraint violations should never be retried into
        silence.  After the last attempt the final failure is wrapped in
        :class:`RetryExhaustedError` (cause chained).  ``on_retry`` is
        called as ``on_retry(attempt, exc)`` before each backoff.
        """
        tracer = tracer if tracer is not None else NO_OP_TRACER
        rng = Random(self.seed)
        started = self.clock()
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except fatal:
                raise
            except retry_on as exc:
                last = exc
                if attempt == self.max_attempts:
                    break
                delay = self.delay_for(attempt, rng)
                if (
                    self.deadline is not None
                    and (self.clock() - started) + delay > self.deadline
                ):
                    if tracer.enabled:
                        tracer.metrics.inc("resilience.giveups")
                    raise DeadlineExceededError(
                        f"{operation}: deadline of {self.deadline:g}s exhausted "
                        f"after {attempt} attempt(s): {exc}"
                    ) from exc
                if tracer.enabled:
                    tracer.metrics.inc("resilience.retries")
                    tracer.metrics.observe(
                        "resilience.backoff_ms", delay * 1000.0
                    )
                if on_retry is not None:
                    on_retry(attempt, exc)
                if self.sleep is not None and delay > 0:
                    self.sleep(delay)
        if tracer.enabled:
            tracer.metrics.inc("resilience.giveups")
        raise RetryExhaustedError(
            f"{operation} failed after {self.max_attempts} attempt(s): {last}",
            attempts=self.max_attempts,
        ) from last

    # ------------------------------------------------------------------
    def with_attempts(self, max_attempts: int) -> "RetryPolicy":
        """A copy with a different attempt budget."""
        from dataclasses import replace

        return replace(self, max_attempts=max_attempts)

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        """A single-attempt policy (the default everywhere)."""
        return cls(max_attempts=1, base_delay=0.0, sleep=None)

    @classmethod
    def fast(cls, max_attempts: int = 3, *, seed: int = 0) -> "RetryPolicy":
        """A no-sleep policy for tests and chaos runs (retries, no waits)."""
        return cls(
            max_attempts=max_attempts, base_delay=0.0, seed=seed, sleep=None
        )


NO_RETRY = RetryPolicy.no_retry()
"""Shared single-attempt policy: the behaviour of code that never retries."""
