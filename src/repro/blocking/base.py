"""Candidate-pair generation: the :class:`Blocker` contract.

Every identification path ultimately asks the same question — *which
(R tuple, S tuple) pairs are worth evaluating?* — and until now every
path answered it with the full O(|R|·|S|) cross product.  A *blocker*
(the standard name in large-scale entity matching; Rastogi, Dalvi &
Garofalakis 2011) answers it with a much smaller candidate set, chosen
so that no pair the rules could declare matching is ever pruned.

The paper's own machinery supplies semantically safe block keys: the
extended-key equivalence rule (Section 4.1) only fires on pairs whose
K_Ext values are all non-NULL and equal, so hashing on K_Ext loses no
match (:class:`~repro.blocking.strategies.ExtendedKeyHashBlocker`);
:class:`CrossProductBlocker` here is the exhaustive default preserving
the historical semantics exactly.

Blockers consume *extended* rows (unified namespace, ILFD derivations
already applied) and emit a :class:`CandidatePairs` stream of
``(r_index, s_index)`` pairs plus pruning statistics.  Use
:meth:`Blocker.block` rather than :meth:`Blocker.candidate_pairs` when a
tracer is at hand — it wraps generation in a span and records the
``blocking.*`` metrics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability.tracer import Tracer
from repro.relational.row import Row

__all__ = [
    "BlockingContext",
    "CandidatePairs",
    "Blocker",
    "CrossProductBlocker",
]

IndexPair = Tuple[int, int]


@dataclass(frozen=True)
class BlockingContext:
    """What a blocker may know about the identification task.

    Attributes
    ----------
    key_attributes:
        The extended-key attributes (unified names).  The hash blocker
        hashes on these; the cross product ignores them.
    """

    key_attributes: Tuple[str, ...] = ()

    @classmethod
    def of(cls, key_attributes: Sequence[str] = ()) -> "BlockingContext":
        """Build a context from a plain sequence."""
        return cls(key_attributes=tuple(key_attributes))


class CandidatePairs:
    """The output of one blocker run: an iterable of index pairs + stats.

    The pair stream is re-iterable (each ``__iter__`` call restarts the
    underlying factory), deterministic, and — for the cross product —
    lazy, so a 10⁸-pair enumeration never materialises a list.  ``count``
    is cheap when the blocker could compute it from its index structure
    and falls back to one full iteration otherwise (cached).
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[IndexPair]],
        *,
        total_pairs: int,
        blocker_name: str,
        count: Optional[int] = None,
        block_sizes: Sequence[int] = (),
    ) -> None:
        self._factory = factory
        self.total_pairs = total_pairs
        self.blocker_name = blocker_name
        self._count = count
        self.block_sizes: Tuple[int, ...] = tuple(block_sizes)

    def __iter__(self) -> Iterator[IndexPair]:
        return self._factory()

    @property
    def count(self) -> int:
        """Number of candidate pairs (computed lazily, then cached)."""
        if self._count is None:
            self._count = sum(1 for _ in self._factory())
        return self._count

    def __len__(self) -> int:
        return self.count

    @property
    def pruned(self) -> int:
        """Pairs the blocker never emits (cross-product minus candidates)."""
        return max(0, self.total_pairs - self.count)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of the cross product pruned (1.0 = everything, 0.0 = nothing)."""
        if self.total_pairs == 0:
            return 0.0
        return self.pruned / self.total_pairs

    def pair_list(self) -> List[IndexPair]:
        """Materialise the candidate pairs as a list."""
        pairs = list(self._factory())
        self._count = len(pairs)
        return pairs

    def stats(self) -> Dict[str, object]:
        """JSON-serialisable summary for traces and benchmark records."""
        return {
            "blocker": self.blocker_name,
            "pairs_generated": self.count,
            "pairs_pruned": self.pruned,
            "total_pairs": self.total_pairs,
            "reduction_ratio": self.reduction_ratio,
            "blocks": len(self.block_sizes),
            "max_block_pairs": max(self.block_sizes) if self.block_sizes else 0,
        }

    def __repr__(self) -> str:
        return (
            f"<CandidatePairs {self.blocker_name}: "
            f"{self._count if self._count is not None else '?'} of "
            f"{self.total_pairs}>"
        )


class Blocker(abc.ABC):
    """Produces candidate pairs for rule/ILFD evaluation.

    Subclasses guarantee: every pair the *exact-equality* identity path
    (the extended-key rule over ILFD-extended rows) would declare a match
    is in the candidate set.  :class:`~repro.core.EntityIdentifier` uses
    a blocker only for the negative matching table, which a pruning
    blocker restricts to its candidates (see docs/BLOCKING.md).
    """

    name: str = "blocker"

    @abc.abstractmethod
    def candidate_pairs(
        self,
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        context: BlockingContext,
    ) -> CandidatePairs:
        """Generate candidates for the (extended) row sequences."""

    def block(
        self,
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        context: BlockingContext,
        *,
        tracer: Optional[Tracer] = None,
    ) -> CandidatePairs:
        """:meth:`candidate_pairs` under a span, with ``blocking.*`` metrics.

        Records ``blocking.pairs_generated`` / ``blocking.pairs_pruned``
        counters, the per-run ``blocking.reduction_ratio`` histogram, and
        one ``blocking.block_pairs`` sample per block, so reduction shows
        up in ``repro identify --metrics`` and ``repro stats``.
        """
        if tracer is None or not tracer.enabled:
            return self.candidate_pairs(r_rows, s_rows, context)
        with tracer.span(
            "blocking.block",
            blocker=self.name,
            r_rows=len(r_rows),
            s_rows=len(s_rows),
        ) as span:
            candidates = self.candidate_pairs(r_rows, s_rows, context)
            span.set("pairs", candidates.count)
            span.set("pruned", candidates.pruned)
            span.set("reduction_ratio", round(candidates.reduction_ratio, 6))
        metrics = tracer.metrics
        metrics.inc("blocking.pairs_generated", candidates.count)
        metrics.inc("blocking.pairs_pruned", candidates.pruned)
        metrics.observe("blocking.reduction_ratio", candidates.reduction_ratio)
        for size in candidates.block_sizes:
            metrics.observe("blocking.block_pairs", size)
        return candidates

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CrossProductBlocker(Blocker):
    """The exhaustive default: every pair is a candidate.

    Preserves today's exact semantics — identical candidate set, in the
    same R-major order, as the historical nested loops — at a reduction
    ratio of exactly 0.  The stream is lazy, so even very large cross
    products iterate without materialising.
    """

    name = "cross-product"

    def candidate_pairs(
        self,
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        context: BlockingContext,
    ) -> CandidatePairs:
        n, m = len(r_rows), len(s_rows)

        def generate() -> Iterator[IndexPair]:
            for i in range(n):
                for j in range(m):
                    yield (i, j)

        return CandidatePairs(
            generate,
            total_pairs=n * m,
            blocker_name=self.name,
            count=n * m,
            block_sizes=(n * m,) if n * m else (),
        )
