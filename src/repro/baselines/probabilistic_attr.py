"""Baseline 4: probabilistic attribute equivalence (Chatterjee & Segev).

"Chatterjee and Segev proposed the use of all common attributes between
two relations to determine entity equivalence.  For each pair of records
from two relations, a value called comparison value is assigned based on
a probabilistic model.  Nevertheless, in Section 2.1, we demonstrate
that comparing common attribute values does not necessarily produce
correct matching results." (Section 2.2.)

The comparison value here is a weighted agreement score over the common
attributes: agreeing non-NULL values contribute their weight, and
disagreeing values contribute nothing.  Pairs whose normalised score
meets the threshold match; an optional one-to-one assignment keeps only
each tuple's best partner (greedy by score), which is how such systems
avoid the most blatant uniqueness violations — yet the Figure-2 bench
still shows the approach mis-matching homonyms with identical attributes.
"""

from __future__ import annotations

from itertools import product
from typing import List, Mapping, Optional, Sequence

from repro.baselines.base import BaselineMatcher, BaselineResult, InapplicableError, ScoredPair
from repro.core.matching_table import key_values
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.relational.row import Row


class ProbabilisticAttributeMatcher(BaselineMatcher):
    """Weighted agreement over all common attributes.

    Parameters
    ----------
    threshold:
        Minimum normalised comparison value for a match (default 0.8).
    weights:
        Per-attribute weights (default 1.0 each).
    one_to_one:
        Greedily keep each tuple's single best partner (default True).
    """

    name = "probabilistic-attribute"
    guarantees_soundness = False

    def __init__(
        self,
        threshold: float = 0.8,
        weights: Optional[Mapping[str, float]] = None,
        one_to_one: bool = True,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = threshold
        self._weights = dict(weights or {})
        self._one_to_one = one_to_one

    def comparison_value(
        self, r_row: Row, s_row: Row, attributes: Sequence[str]
    ) -> float:
        """The normalised weighted agreement over *attributes*.

        Attributes where either side is NULL are excluded from both the
        numerator and the denominator (no evidence either way).
        """
        total = 0.0
        agreed = 0.0
        for attr in attributes:
            r_value, s_value = r_row[attr], s_row[attr]
            if is_null(r_value) or is_null(s_value):
                continue
            weight = self._weights.get(attr, 1.0)
            total += weight
            if r_value == s_value:
                agreed += weight
        if total == 0.0:
            return 0.0
        return agreed / total

    def match(self, r: Relation, s: Relation) -> BaselineResult:
        """Score all pairs over the common attributes; threshold; assign."""
        attributes = [n for n in r.schema.names if n in s.schema]
        if not attributes:
            raise InapplicableError(
                "relations share no common attributes; attribute "
                "equivalence is inapplicable"
            )
        r_key_attrs = self._r_key_attrs(r)
        s_key_attrs = self._s_key_attrs(s)
        candidates: List[ScoredPair] = []
        for r_row, s_row in product(r, s):
            value = self.comparison_value(r_row, s_row, attributes)
            if value >= self._threshold:
                candidates.append(
                    ScoredPair(
                        key_values(r_row, r_key_attrs),
                        key_values(s_row, s_key_attrs),
                        score=value,
                    )
                )
        if self._one_to_one:
            candidates = self._assign(candidates)
        return self._result(
            candidates,
            notes=(
                f"threshold {self._threshold} over {attributes}; "
                f"one_to_one={self._one_to_one}"
            ),
        )

    @staticmethod
    def _assign(candidates: List[ScoredPair]) -> List[ScoredPair]:
        """Greedy best-first one-to-one assignment."""
        chosen: List[ScoredPair] = []
        used_r: set = set()
        used_s: set = set()
        for pair in sorted(candidates, key=lambda p: (-p.score, p.r_key, p.s_key)):
            if pair.r_key in used_r or pair.s_key in used_s:
                continue
            used_r.add(pair.r_key)
            used_s.add(pair.s_key)
            chosen.append(pair)
        return chosen
