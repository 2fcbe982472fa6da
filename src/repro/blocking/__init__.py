"""Candidate-pair generation (blocking) and the serial pair kernel.

Every identification path in the repo used to enumerate the full
O(|R|·|S|) cross product before applying identity/distinctness rules.
This subsystem lets a caller choose the candidates instead — the
standard move in large-scale entity matching — built on a structure the
paper itself supplies: the extended-key equivalence rule only fires on
pairs with identical non-NULL K_Ext values.

- :mod:`repro.blocking.base` — the :class:`Blocker` contract,
  :class:`CandidatePairs` (candidate stream + pruning stats), and the
  exhaustive :class:`CrossProductBlocker`.
- :mod:`repro.blocking.strategies` — :class:`ExtendedKeyHashBlocker`
  (inverted index over K_Ext).
- :mod:`repro.blocking.executor` — :class:`PairExecutor`, the serial
  kernel that classifies candidate pairs against the rules.

Consumers: :class:`~repro.core.identifier.EntityIdentifier` (``blocker``
/ ``executor`` parameters and the ``--blocker`` CLI flag).
See ``docs/BLOCKING.md`` for the decision table.
"""

from repro.blocking.base import (
    Blocker,
    BlockingContext,
    CandidatePairs,
    CrossProductBlocker,
)
from repro.blocking.errors import BlockingError, UnknownBlockerError
from repro.blocking.executor import PairEvaluation, PairExecutor
from repro.blocking.strategies import ExtendedKeyHashBlocker

__all__ = [
    "Blocker",
    "BlockingContext",
    "CandidatePairs",
    "CrossProductBlocker",
    "ExtendedKeyHashBlocker",
    "PairEvaluation",
    "PairExecutor",
    "BlockingError",
    "UnknownBlockerError",
    "BLOCKERS",
    "make_blocker",
]

BLOCKERS = {
    "cross": CrossProductBlocker,
    "hash": ExtendedKeyHashBlocker,
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
