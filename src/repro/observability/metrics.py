"""Named counters and histograms for pipeline accounting.

The paper's soundness argument is built from *countable events* — which
identity rules fired, how many ILFD derivation steps completed a tuple,
how many pairs landed in the matching versus negative matching table.
:class:`MetricsRegistry` is the single sink for those tallies: counters
for monotone event counts and histograms (count/sum/min/max) for
distributions such as ILFD chain depths or closure fixpoint rounds.

Zero dependencies, and a :meth:`MetricsRegistry.snapshot` that is plain
JSON-serialisable data so benchmark results and trace files can embed it
directly.  Recording is guarded by one :class:`threading.Lock` — the
serving threads and the telemetry ledger's samplers mutate a shared
registry concurrently, and a counter increment must never be
lost to an interleaved read-modify-write.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NoOpMetrics",
    "NO_OP_METRICS",
    "WELL_KNOWN_METRICS",
    "register_metric",
]


WELL_KNOWN_METRICS: Dict[str, str] = {
    # pipeline
    "pipeline.pairs": "tuple pairs considered by one identification run",
    "pipeline.matches": "pairs entering the matching table",
    "pipeline.non_matches": "pairs entering the negative matching table",
    "pipeline.unknown": "pairs left undetermined (Figure 3's middle band)",
    # blocking subsystem
    "blocking.pairs_generated": "candidate pairs emitted by the blocker",
    "blocking.pairs_pruned": "cross-product pairs the blocker never emitted",
    "blocking.reduction_ratio": "per-run fraction of the cross product pruned",
    "blocking.block_pairs": "candidate pairs per block",
    # pair executor
    "executor.pairs_evaluated": "candidate pairs classified by the executor",
    # persistence (repro.store)
    "store.writes": "table entries written to the match store",
    "store.removes": "matching-table entries retracted from the store",
    "store.journal_entries": "derivation-journal records appended",
    "store.transactions": "store transactions committed",
    "store.checkpoints": "checkpoint snapshots written",
    "store.checkpoint_bytes": "on-disk size of written checkpoints",
    "store.resumes": "checkpoint resumes performed",
    "store.load_ms": "milliseconds spent loading checkpoints",
    "store.entity_writes": "canonical entity records written to the store",
    # serving layer (repro.serving)
    "serving.requests": "HTTP requests handled by the serving layer",
    "serving.errors": "serving requests that ended in an error response",
    "serving.request_ms": "wall milliseconds per serving request",
    "serving.lookups": "resolve lookups executed against a replica",
    "serving.entity_lookups": "resolve lookups that found a canonical entity",
    "serving.lookup_ms": "wall milliseconds per replica lookup",
    "serving.ingests": "tuples ingested through search-before-insert",
    "serving.ingest_matches": "matches created by search-before-insert ingests",
    "serving.cache_hits": "resolve results served from the LRU cache",
    "serving.cache_misses": "resolve lookups that missed the LRU cache",
    "serving.cache_evictions": "LRU cache entries evicted by capacity",
    "serving.cache_invalidations": "cache entries invalidated by writes",
    "serving.stale_serves": "degraded responses served from the stale cache",
    "serving.degraded": "requests that hit the degradation path",
    "serving.replica_reopens": "replica connections closed and reopened after failure",
    "serving.cache_rejected_puts": "cache puts dropped because the key was invalidated mid-read",
    "serving.digests_resealed": "checkpoint section digests resealed at graceful shutdown",
    "serving.drain_timeouts": "graceful drains abandoned at the drain timeout",
}
"""Descriptions of the metric names core components emit.

Purely declarative — :class:`MetricsRegistry` still creates metrics on
first use — but gives ``repro stats`` and other renderers a place to look
up what a counter means (:meth:`MetricsRegistry.description`).
"""


def register_metric(name: str, description: str) -> None:
    """Register (or update) the description of a well-known metric name."""
    WELL_KNOWN_METRICS[name] = description


@dataclass
class HistogramSummary:
    """Streaming summary of one histogram (no raw samples kept)."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable form."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": self.mean,
        }

    def merge(self, other: "HistogramSummary") -> None:
        """Fold *other*'s samples into this summary."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.minimum is None or (
            other.minimum is not None and other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if self.maximum is None or (
            other.maximum is not None and other.maximum > self.maximum
        ):
            self.maximum = other.maximum


@dataclass
class MetricsRegistry:
    """A flat namespace of counters and histograms.

    Names are dotted strings (``"rules.identity_evaluations"``); metrics
    are created on first use, so instrumentation sites never need
    registration ceremony.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)
    _lock: Optional[threading.Lock] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        # Locks do not pickle; an unpickled copy builds its own.
        return {"counters": self.counters, "histograms": self.histograms}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.counters = state["counters"]
        self.histograms = state["histograms"]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (created at 0 on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram *name*."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = HistogramSummary()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> HistogramSummary:
        """Summary of histogram *name* (empty if never observed)."""
        return self.histograms.get(name, HistogramSummary())

    @staticmethod
    def description(name: str) -> str:
        """Registered description of *name* ("" when unregistered)."""
        return WELL_KNOWN_METRICS.get(name, "")

    def snapshot(self) -> Dict[str, object]:
        """Plain-data snapshot: ``{"counters": ..., "histograms": ...}``.

        The returned dict is JSON-serialisable and detached from the
        registry (later recording does not mutate it).
        """
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "histograms": {
                    name: summary.as_dict()
                    for name, summary in sorted(self.histograms.items())
                },
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s counters and histograms into this registry."""
        with self._lock:
            for name, value in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, summary in other.histograms.items():
                mine = self.histograms.get(name)
                if mine is None:
                    mine = self.histograms[name] = HistogramSummary()
                mine.merge(summary)

    def reset(self) -> None:
        """Drop all recorded values (registry stays usable)."""
        with self._lock:
            self.counters.clear()
            self.histograms.clear()

    def is_empty(self) -> bool:
        """True iff nothing has been recorded."""
        return not self.counters and not self.histograms


class NoOpMetrics(MetricsRegistry):
    """A registry that records nothing (the no-op tracer's sink).

    Unguarded ``tracer.metrics.inc(...)`` calls stay cheap and allocate
    nothing; hot paths should still prefer an ``if tracer.enabled``
    guard, which skips even the method call.
    """

    def inc(self, name: str, value: int = 1) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: D102 - no-op
        pass


NO_OP_METRICS = NoOpMetrics()
"""Shared do-nothing registry used by :data:`~repro.observability.NO_OP_TRACER`."""
