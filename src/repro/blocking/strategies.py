"""The extended-key hash blocker.

:class:`ExtendedKeyHashBlocker` is a hash-join-style inverted index over
the *full* extended key: exactly the pairs the extended-key equivalence
rule can declare matching, so it is recall-equivalent to the cross
product on exact-equality rule paths — the property the blocking
property tests assert.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.blocking.base import (
    Blocker,
    BlockingContext,
    CandidatePairs,
    IndexPair,
)
from repro.blocking.errors import BlockingError
from repro.relational.nulls import is_null
from repro.relational.row import Row

__all__ = ["ExtendedKeyHashBlocker"]


def _complete_key_values(
    row: Row, key_attributes: Sequence[str]
) -> Optional[Tuple[Any, ...]]:
    """The row's K_Ext value tuple, or None if any attribute is NULL/absent."""
    values = []
    for attr in key_attributes:
        value = row[attr] if attr in row else None
        if value is None or is_null(value):
            return None
        values.append(value)
    return tuple(values)


def _hash_backbone(
    r_rows: Sequence[Row],
    s_rows: Sequence[Row],
    key_attributes: Sequence[str],
) -> Tuple[List[Tuple[int, Tuple[Any, ...]]], Dict[Tuple[Any, ...], List[int]]]:
    """R-side complete keys and the S-side inverted index."""
    index: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
    for j, s_row in enumerate(s_rows):
        values = _complete_key_values(s_row, key_attributes)
        if values is not None:
            index[values].append(j)
    r_complete: List[Tuple[int, Tuple[Any, ...]]] = []
    for i, r_row in enumerate(r_rows):
        values = _complete_key_values(r_row, key_attributes)
        if values is not None:
            r_complete.append((i, values))
    return r_complete, index


class ExtendedKeyHashBlocker(Blocker):
    """Inverted index over the extended key (hash-join blocking).

    Candidates are exactly the pairs whose K_Ext values are all non-NULL
    and pairwise equal — the antecedent of the extended-key equivalence
    rule.  A pair outside this set has some K_Ext attribute NULL or
    unequal on the two sides, so the rule's predicates evaluate UNKNOWN
    or FALSE and the pair can never enter the matching table: pruning it
    loses no recall.  Emission is R-major (S buckets in insertion
    order), matching the historical hash join exactly.
    """

    name = "extended-key-hash"

    def candidate_pairs(
        self,
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        context: BlockingContext,
    ) -> CandidatePairs:
        key_attrs = list(context.key_attributes)
        if not key_attrs:
            raise BlockingError(
                "extended-key-hash blocking needs key_attributes in the context"
            )
        r_complete, index = _hash_backbone(r_rows, s_rows, key_attrs)
        count = sum(len(index.get(values, ())) for _, values in r_complete)
        block_sizes = []
        r_per_key: Dict[Tuple[Any, ...], int] = defaultdict(int)
        for _, values in r_complete:
            r_per_key[values] += 1
        for values, r_count in r_per_key.items():
            pairs_in_block = r_count * len(index.get(values, ()))
            if pairs_in_block:
                block_sizes.append(pairs_in_block)

        def generate() -> Iterator[IndexPair]:
            for i, values in r_complete:
                for j in index.get(values, ()):
                    yield (i, j)

        return CandidatePairs(
            generate,
            total_pairs=len(r_rows) * len(s_rows),
            blocker_name=self.name,
            count=count,
            block_sizes=block_sizes,
        )
