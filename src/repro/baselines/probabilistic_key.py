"""Baseline 3: probabilistic key equivalence (Pu).

"Instead of insisting on full key equivalence, Pu suggested matching
object instances using only a portion of the key values in the
restricted domain.  The name matching problem … has been addressed by
matching the subfields of names.  If most of the subfields in two given
names match, the names are considered to be identical. … it is
applicable only when common key exists between relations.  The
probabilistic nature of matching may also admit erroneous matching."
(Section 2.2.)

Key values are tokenised into subfields; a pair's score is the Jaccard
overlap of the subfield multisets across all common key attributes, and
pairs scoring at or above the threshold match.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple

from repro.baselines.base import BaselineMatcher, BaselineResult, InapplicableError, ScoredPair
from repro.core.matching_table import key_values
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.relational.row import Row

_SUBFIELD_RE = re.compile(r"[A-Za-z0-9]+")


def default_tokenizer(value: object) -> Tuple[str, ...]:
    """Split a value into lowercase alphanumeric subfields."""
    return tuple(token.lower() for token in _SUBFIELD_RE.findall(str(value)))


class ProbabilisticKeyMatcher(BaselineMatcher):
    """Subfield matching over the common key attributes.

    Parameters
    ----------
    threshold:
        Minimum subfield-overlap score (0..1] for a match; "most of the
        subfields" suggests a majority, so the default is 0.5.
    common_attributes:
        The key attributes to compare; defaults to the key attributes the
        two relations share (raises when there are none — like full key
        equivalence, the technique needs a common key).
    tokenizer:
        Value → subfields function.
    """

    name = "probabilistic-key"
    guarantees_soundness = False

    def __init__(
        self,
        threshold: float = 0.5,
        common_attributes: Optional[Sequence[str]] = None,
        tokenizer: Callable[[object], Tuple[str, ...]] = default_tokenizer,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self._threshold = threshold
        self._common = tuple(common_attributes) if common_attributes else None
        self._tokenizer = tokenizer

    def _common_key_attributes(self, r: Relation, s: Relation) -> Tuple[str, ...]:
        if self._common is not None:
            return self._common
        r_key_attrs = set().union(*r.schema.keys)
        s_key_attrs = set().union(*s.schema.keys)
        shared = tuple(sorted(r_key_attrs & s_key_attrs))
        if not shared:
            raise InapplicableError(
                "no common key attributes; probabilistic key equivalence "
                "is inapplicable"
            )
        return shared

    def score(self, r_row: Row, s_row: Row, attributes: Sequence[str]) -> float:
        """Multiset-Jaccard overlap of subfields across *attributes*."""
        r_tokens: Counter = Counter()
        s_tokens: Counter = Counter()
        for attr in attributes:
            r_value = r_row[attr]
            s_value = s_row[attr]
            if not is_null(r_value):
                r_tokens.update(self._tokenizer(r_value))
            if not is_null(s_value):
                s_tokens.update(self._tokenizer(s_value))
        if not r_tokens or not s_tokens:
            return 0.0
        intersection = sum((r_tokens & s_tokens).values())
        union = sum((r_tokens | s_tokens).values())
        return intersection / union

    def match(self, r: Relation, s: Relation) -> BaselineResult:
        """Score all pairs; keep those at or above the threshold."""
        attributes = self._common_key_attributes(r, s)
        for attr in attributes:
            r.schema.attribute(attr)
            s.schema.attribute(attr)
        pairs: List[ScoredPair] = []
        r_key_attrs = self._r_key_attrs(r)
        s_key_attrs = self._s_key_attrs(s)
        for r_row, s_row in product(r, s):
            value = self.score(r_row, s_row, attributes)
            if value >= self._threshold:
                pairs.append(
                    ScoredPair(
                        key_values(r_row, r_key_attrs),
                        key_values(s_row, s_key_attrs),
                        score=value,
                    )
                )
        return self._result(
            pairs,
            notes=f"threshold {self._threshold} over {list(attributes)}",
        )
