"""Candidate-pair generation (blocking) and parallel batch execution.

Every identification path in the repo used to enumerate the full
O(|R|·|S|) cross product before applying identity/distinctness rules.
This subsystem replaces that enumeration with *blocking* — the standard
scale-out move in large-scale entity matching — built on structures the
paper itself supplies: the extended-key equivalence rule only fires on
pairs with identical non-NULL K_Ext values, and ILFD antecedents bound
where derivations act.

- :mod:`repro.blocking.base` — the :class:`Blocker` contract,
  :class:`CandidatePairs` (candidate stream + pruning stats), and the
  exhaustive :class:`CrossProductBlocker` fallback.
- :mod:`repro.blocking.strategies` — :class:`ExtendedKeyHashBlocker`
  (inverted index over K_Ext), :class:`IlfdConditionBlocker` (antecedent
  co-satisfaction), :class:`SortedNeighborhoodBlocker` (windowed sort).
- :mod:`repro.blocking.executor` — :class:`ParallelPairExecutor`,
  batch-parallel rule evaluation over ``concurrent.futures`` with
  deterministic, consistency-checked merging.

Consumers: :class:`~repro.core.identifier.EntityIdentifier` (``blocker``
/ ``workers`` parameters and the ``--blocker`` / ``--workers`` CLI
flags) and :class:`~repro.baselines.base.BaselineMatcher` (``blocker``
attribute).
See ``docs/BLOCKING.md`` for the decision table.
"""

from repro.blocking.base import (
    Blocker,
    BlockingContext,
    CandidatePairs,
    CrossProductBlocker,
)
from repro.blocking.errors import (
    BlockingError,
    MergeConsistencyError,
    UnknownBlockerError,
)
from repro.blocking.executor import PairEvaluation, ParallelPairExecutor
from repro.blocking.strategies import (
    ExtendedKeyHashBlocker,
    IlfdConditionBlocker,
    SortedNeighborhoodBlocker,
)

__all__ = [
    "Blocker",
    "BlockingContext",
    "CandidatePairs",
    "CrossProductBlocker",
    "ExtendedKeyHashBlocker",
    "IlfdConditionBlocker",
    "SortedNeighborhoodBlocker",
    "PairEvaluation",
    "ParallelPairExecutor",
    "BlockingError",
    "MergeConsistencyError",
    "UnknownBlockerError",
    "BLOCKERS",
    "make_blocker",
]

BLOCKERS = {
    "cross": CrossProductBlocker,
    "hash": ExtendedKeyHashBlocker,
    "ilfd": IlfdConditionBlocker,
    "snm": SortedNeighborhoodBlocker,
}
"""CLI/config names → blocker classes (see ``repro identify --blocker``)."""


def make_blocker(name: str, **kwargs) -> Blocker:
    """Instantiate a blocker by its registry name (``BLOCKERS`` key)."""
    try:
        cls = BLOCKERS[name]
    except KeyError:
        raise UnknownBlockerError(
            f"unknown blocker {name!r}; expected one of {sorted(BLOCKERS)}"
        ) from None
    return cls(**kwargs)
