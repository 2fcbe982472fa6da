"""Common interface for the Section-2.2 baseline matchers.

Every matcher consumes two relations (already in the unified namespace)
and produces a :class:`BaselineResult`: scored candidate pairs plus the
matcher's self-declared guarantees.  Matchers whose preconditions fail —
key equivalence without a common key — raise :class:`InapplicableError`,
which is itself a result the comparison benches record (applicability is
one of the paper's comparison axes).
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.core.matching_table import KeyValues
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.relation import Relation

__all__ = [
    "InapplicableError",
    "ScoredPair",
    "BaselineResult",
    "BaselineMatcher",
]


class InapplicableError(Exception):
    """The matcher's preconditions do not hold for these relations."""


@dataclass(frozen=True)
class ScoredPair:
    """One candidate match with the matcher's confidence score."""

    r_key: KeyValues
    s_key: KeyValues
    score: float = 1.0

    @property
    def pair(self) -> Tuple[KeyValues, KeyValues]:
        """The (R key, S key) pair."""
        return (self.r_key, self.s_key)


@dataclass
class BaselineResult:
    """Outcome of one baseline run."""

    matcher_name: str
    pairs: List[ScoredPair]
    guarantees_soundness: bool
    notes: str = ""

    def pair_set(self) -> FrozenSet[Tuple[KeyValues, KeyValues]]:
        """The matched pairs as a set (scores dropped)."""
        return frozenset(p.pair for p in self.pairs)

    def uniqueness_violations(self) -> int:
        """How many keys are matched to more than one counterpart."""
        r_counts = Counter(p.r_key for p in self.pairs)
        s_counts = Counter(p.s_key for p in self.pairs)
        return sum(1 for c in r_counts.values() if c > 1) + sum(
            1 for c in s_counts.values() if c > 1
        )

    def is_sound_output(self) -> bool:
        """True iff the output satisfies the uniqueness constraint."""
        return self.uniqueness_violations() == 0


class BaselineMatcher(abc.ABC):
    """Base class for the five Section-2.2 approaches."""

    name: str = "baseline"
    guarantees_soundness: bool = False

    @abc.abstractmethod
    def match(self, r: Relation, s: Relation) -> BaselineResult:
        """Produce matched pairs for the two (unified) relations."""

    def run(
        self, r: Relation, s: Relation, *, tracer: Optional[Tracer] = None
    ) -> BaselineResult:
        """:meth:`match` under a span, with comparable per-matcher stats.

        Records one ``baseline.match`` span (matcher name, input sizes)
        and counters mirroring the pipeline's own accounting — pairs
        emitted and uniqueness violations, keyed by matcher name — so
        the comparison benches report baselines and the paper's method
        on the same axes.  Inapplicability is counted, then re-raised
        (it is a result, not a failure).
        """
        if tracer is None:
            tracer = NO_OP_TRACER
        with tracer.span(
            "baseline.match", matcher=self.name, r_rows=len(r), s_rows=len(s)
        ) as span:
            try:
                result = self.match(r, s)
            except InapplicableError:
                if tracer.enabled:
                    tracer.metrics.inc(f"baseline.{self.name}.inapplicable")
                raise
            span.set("pairs", len(result.pairs))
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.inc(f"baseline.{self.name}.runs")
            metrics.inc(f"baseline.{self.name}.pairs", len(result.pairs))
            metrics.inc(
                f"baseline.{self.name}.uniqueness_violations",
                result.uniqueness_violations(),
            )
        return result

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _r_key_attrs(r: Relation) -> Tuple[str, ...]:
        key = r.schema.primary_key
        return tuple(n for n in r.schema.names if n in key)

    @staticmethod
    def _s_key_attrs(s: Relation) -> Tuple[str, ...]:
        key = s.schema.primary_key
        return tuple(n for n in s.schema.names if n in key)

    def _result(
        self,
        pairs: Iterable[ScoredPair],
        *,
        notes: str = "",
    ) -> BaselineResult:
        return BaselineResult(
            matcher_name=self.name,
            pairs=list(pairs),
            guarantees_soundness=self.guarantees_soundness,
            notes=notes,
        )
