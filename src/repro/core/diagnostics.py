"""Instance-level diagnostics: homonyms.

Section 2 separates two instance-level problems.  Entity identification
itself is handled by the identifier; this module surfaces the
**instance-level homonyms** ("the same identifier is used for different
real-world entities in different databases", for which "there appears
to be no fully automatic way"): pairs of tuples that *agree on common
attribute values* yet are **not** declared matching — exactly the pairs
a naive value-equivalence matcher would get wrong.  The other problem,
**attribute value conflicts** ("can be performed only after the
entity-identification problem has been resolved"), is
``IntegratedTable.conflicts`` and, for N sources, the survivorship
decisions of :mod:`repro.entities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.matching_table import KeyValues, MatchingTable, key_values
from repro.relational.nulls import is_null
from repro.relational.relation import Relation


@dataclass(frozen=True)
class HomonymCandidate:
    """A same-values, not-matched tuple pair (a potential homonym)."""

    r_key: KeyValues
    s_key: KeyValues
    agreeing_attributes: Tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"R{dict(self.r_key)!r} / S{dict(self.s_key)!r} agree on "
            f"{list(self.agreeing_attributes)} but are not matched"
        )


def homonym_candidates(
    r: Relation,
    s: Relation,
    matching: MatchingTable,
    *,
    attributes: Optional[Sequence[str]] = None,
    min_agreeing: int = 1,
) -> List[HomonymCandidate]:
    """Unmatched pairs agreeing on ≥ *min_agreeing* common attributes.

    These are the pairs where "the same identifier is used for different
    real-world entities": a sound identifier leaves them unmatched, a
    value-based matcher would join them.  The list is what a DBA reviews
    when deciding whether more distinctness rules are needed.
    """
    common = (
        list(attributes)
        if attributes is not None
        else [n for n in r.schema.names if n in s.schema]
    )
    if not common:
        return []
    matched = matching.pairs()
    r_key_attrs = matching.r_key_attributes or tuple(
        sorted(r.schema.primary_key)
    )
    s_key_attrs = matching.s_key_attributes or tuple(
        sorted(s.schema.primary_key)
    )
    out: List[HomonymCandidate] = []
    for r_row in r:
        for s_row in s:
            agreeing = tuple(
                attr
                for attr in common
                if not is_null(r_row[attr])
                and not is_null(s_row[attr])
                and r_row[attr] == s_row[attr]
            )
            if len(agreeing) < min_agreeing:
                continue
            pair = (
                key_values(r_row, r_key_attrs),
                key_values(s_row, s_key_attrs),
            )
            if pair in matched:
                continue
            out.append(HomonymCandidate(pair[0], pair[1], agreeing))
    return out
