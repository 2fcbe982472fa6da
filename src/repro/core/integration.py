"""The integrated table T_RS (Sections 4.1 and 6.2).

"We keep those R(S) tuples not matched with any S(R) tuple as separate
tuples in the integrated table, while merging the matching pairs into
one. … Given tables R and S, and the matching table MT_RS, the integrated
table T_RS can be expressed as MT_RS ⋈ R ⟗ S."

Following the prototype's output (Section 6), the integrated table keeps
both sides' attribute namespaces, prefixed ``r_`` / ``s_``: a matched pair
contributes one row holding both tuples' values; an unmatched tuple
contributes a row whose other side is all NULL.  :meth:`IntegratedTable.merged_view`
additionally coalesces each unified attribute into a single column, and
:meth:`IntegratedTable.conflicts` surfaces the attribute-value conflicts
(which the paper defers to a separate resolution step after
identification; ``IdentityGraph.integrate(on_conflict=...)`` and the
survivorship chains are that step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.matching_table import MatchingTable, key_values
from repro.relational.attribute import Attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema


@dataclass(frozen=True)
class PossibleIntraMatch:
    """Two T_RS tuples that may model the same real-world entity.

    Section 4.1: "Within the integrated table T_RS, a real-world entity
    can be modeled by more than one tuple [at most two].  A T_RS tuple
    can possibly match another T_RS tuple provided they have no
    conflicting nonnull values in their extended key."
    """

    first: Row
    second: Row
    agreeing: Tuple[str, ...]
    unknown: Tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"possible intra-T_RS match (agree on {list(self.agreeing)}, "
            f"unknown on {list(self.unknown)})"
        )


@dataclass(frozen=True)
class AttributeConflict:
    """Matched tuples disagreeing on one attribute's value.

    ``key`` names the match: the T_RS row in
    :meth:`IntegratedTable.conflicts`, the cluster's extended-key values
    in ``IdentityGraph.conflicts``.  ``values`` lists every non-NULL
    candidate as ``(source, value)`` in source order — at least two
    distinct values, or the attribute would not be a conflict.
    """

    key: Any
    attribute: str
    values: Tuple[Tuple[str, Any], ...]

    def __str__(self) -> str:
        return f"conflict on {self.attribute!r}: " + ", ".join(
            f"{source} says {value!r}" for source, value in self.values
        )


class IntegratedTable:
    """T_RS with both prefixed and merged views."""

    def __init__(
        self,
        relation: Relation,
        *,
        r_attributes: Sequence[str],
        s_attributes: Sequence[str],
        r_prefix: str = "r_",
        s_prefix: str = "s_",
    ) -> None:
        self._relation = relation
        self._r_attributes = tuple(r_attributes)
        self._s_attributes = tuple(s_attributes)
        self._r_prefix = r_prefix
        self._s_prefix = s_prefix

    @property
    def relation(self) -> Relation:
        """The prefixed-namespace view (prototype layout)."""
        return self._relation

    def __len__(self) -> int:
        return len(self._relation)

    def __iter__(self):
        return iter(self._relation)

    def conflicts(self) -> List[AttributeConflict]:
        """Attribute-value conflicts among matched rows.

        For every unified attribute present on both sides, report rows
        where both prefixed columns are non-NULL yet differ.
        """
        shared = [a for a in self._r_attributes if a in self._s_attributes]
        out: List[AttributeConflict] = []
        for row in self._relation:
            for attr in shared:
                r_value = row[self._r_prefix + attr]
                s_value = row[self._s_prefix + attr]
                if not is_null(r_value) and not is_null(s_value) and r_value != s_value:
                    out.append(
                        AttributeConflict(row, attr, (("R", r_value), ("S", s_value)))
                    )
        return out

    def possible_intra_matches(
        self, extended_key: Sequence[str]
    ) -> List[PossibleIntraMatch]:
        """Pairs of T_RS rows that could model one entity (Section 4.1).

        Works on the *merged* view.  A pair qualifies when, for every
        extended-key attribute, the two rows' values do not conflict
        (equal, or at least one NULL) and they agree on at least one
        non-NULL attribute (two all-unknown rows assert nothing).  These
        pairs are exactly the residual uncertainty NULLs leave in the
        integrated table — resolving them needs more ILFDs or user input.
        """
        merged = list(self.merged_view())
        out: List[PossibleIntraMatch] = []
        for index, first in enumerate(merged):
            for second in merged[index + 1 :]:
                agreeing: List[str] = []
                unknown: List[str] = []
                conflict = False
                for attr in extended_key:
                    a, b = first[attr], second[attr]
                    if is_null(a) or is_null(b):
                        unknown.append(attr)
                    elif a == b:
                        agreeing.append(attr)
                    else:
                        conflict = True
                        break
                if not conflict and agreeing and unknown:
                    out.append(
                        PossibleIntraMatch(
                            first, second, tuple(agreeing), tuple(unknown)
                        )
                    )
        return out

    def merged_view(self) -> Relation:
        """One column per unified attribute, R's value winning conflicts.

        Intended for conflict-free integrations (the paper assumes
        attribute values are accurate, so matched tuples agree); check
        :meth:`conflicts` first when that assumption may not hold.
        """
        ordered: List[str] = list(self._r_attributes)
        ordered.extend(a for a in self._s_attributes if a not in ordered)
        schema = Schema([Attribute(a) for a in ordered])
        rows: List[Row] = []
        for row in self._relation:
            values: Dict[str, Any] = {}
            for attr in ordered:
                r_value = (
                    row[self._r_prefix + attr]
                    if attr in self._r_attributes
                    else NULL
                )
                s_value = (
                    row[self._s_prefix + attr]
                    if attr in self._s_attributes
                    else NULL
                )
                values[attr] = s_value if is_null(r_value) else r_value
            rows.append(Row(values))
        merged = Relation(schema, (), name="T_RS(merged)", enforce_keys=False)
        deduped: Dict[Row, None] = {}
        for row in rows:
            deduped.setdefault(row)
        merged._rows = tuple(deduped)
        merged._row_set = frozenset(deduped)
        return merged


def integrate(
    extended_r: Relation,
    extended_s: Relation,
    matching: MatchingTable,
    *,
    r_prefix: str = "r_",
    s_prefix: str = "s_",
    name: str = "T_RS",
) -> IntegratedTable:
    """Build T_RS = MT_RS ⋈ R ⟗ S.

    Matched pairs (per *matching*) merge into one row carrying both
    tuples; unmatched tuples survive with the other side NULL-padded.
    """
    r_attrs = list(extended_r.schema.names)
    s_attrs = list(extended_s.schema.names)
    columns = [r_prefix + a for a in r_attrs] + [s_prefix + a for a in s_attrs]
    schema = Schema([Attribute(c) for c in columns])

    matched_r = {entry.r_key for entry in matching}
    matched_s = {entry.s_key for entry in matching}
    rows: List[Row] = []

    def combined(r_row: Optional[Row], s_row: Optional[Row]) -> Row:
        values: Dict[str, Any] = {}
        for attr in r_attrs:
            values[r_prefix + attr] = r_row[attr] if r_row is not None else NULL
        for attr in s_attrs:
            values[s_prefix + attr] = s_row[attr] if s_row is not None else NULL
        return Row(values)

    for entry in matching:
        rows.append(combined(entry.r_row, entry.s_row))
    r_key_attrs = matching.r_key_attributes
    s_key_attrs = matching.s_key_attributes
    for r_row in extended_r:
        if key_values(r_row, r_key_attrs) not in matched_r:
            rows.append(combined(r_row, None))
    for s_row in extended_s:
        if key_values(s_row, s_key_attrs) not in matched_s:
            rows.append(combined(None, s_row))

    relation = Relation(schema, (), name=name, enforce_keys=False)
    deduped: Dict[Row, None] = {}
    for row in rows:
        deduped.setdefault(row)
    relation._rows = tuple(deduped)
    relation._row_set = frozenset(deduped)
    return IntegratedTable(
        relation,
        r_attributes=r_attrs,
        s_attributes=s_attrs,
        r_prefix=r_prefix,
        s_prefix=s_prefix,
    )
