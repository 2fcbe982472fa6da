"""Matching and negative matching tables (Section 3.2).

"Those pairs evaluating to 'true' or 'false' can be represented in a
matching table and a negative matching table, respectively.  Because each
tuple has a unique identifier in its relation, a matching (negative
matching) table entry consists of the key values of the pair of tuples."

Both tables enforce the paper's constraints on construction:

- **uniqueness** (matching table only): no tuple of either relation is
  matched to more than one tuple of the other — violations are collected
  and surfaced through :meth:`MatchingTable.uniqueness_violations`;
- **consistency** (between the two tables): checked by
  :func:`check_consistency` / the identifier.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.core.errors import ConsistencyError, SoundnessError
from repro.relational.attribute import Attribute
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema

KeyValues = Tuple[Tuple[str, Any], ...]
"""A tuple key rendered as ((attribute, value), ...), sorted by attribute."""


def key_values(row: Row, key_attributes: Iterable[str]) -> KeyValues:
    """Render a row's key as a canonical, hashable KeyValues."""
    return tuple((attr, row[attr]) for attr in sorted(key_attributes))


class MatchEntry:
    """One matched pair: the two rows plus their identifying key values."""

    __slots__ = ("r_row", "s_row", "r_key", "s_key")

    def __init__(self, r_row: Row, s_row: Row, r_key: KeyValues, s_key: KeyValues) -> None:
        self.r_row = r_row
        self.s_row = s_row
        self.r_key = r_key
        self.s_key = s_key

    @property
    def pair(self) -> Tuple[KeyValues, KeyValues]:
        """The (R key, S key) pair identifying this entry."""
        return (self.r_key, self.s_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchEntry):
            return NotImplemented
        return self.pair == other.pair

    def __hash__(self) -> int:
        return hash(self.pair)

    def __repr__(self) -> str:
        r = ", ".join(f"{a}={v!r}" for a, v in self.r_key)
        s = ", ".join(f"{a}={v!r}" for a, v in self.s_key)
        return f"MatchEntry(R[{r}] ↔ S[{s}])"


class _PairTable:
    """Shared machinery of the matching and negative matching tables."""

    kind = "pair"

    def __init__(
        self,
        entries: Iterable[MatchEntry] = (),
        *,
        r_key_attributes: Sequence[str] = (),
        s_key_attributes: Sequence[str] = (),
    ) -> None:
        self._entries: List[MatchEntry] = []
        self._pairs: set = set()
        self.r_key_attributes: Tuple[str, ...] = tuple(r_key_attributes)
        self.s_key_attributes: Tuple[str, ...] = tuple(s_key_attributes)
        for entry in entries:
            self.add(entry)

    def add(self, entry: MatchEntry) -> None:
        """Append an entry (duplicate pairs are ignored)."""
        if entry.pair in self._pairs:
            return
        self._pairs.add(entry.pair)
        self._entries.append(entry)

    def __iter__(self) -> Iterator[MatchEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: object) -> bool:
        return pair in self._pairs

    def contains_pair(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        """True iff the (R key, S key) pair is recorded."""
        return (r_key, s_key) in self._pairs

    def pairs(self) -> FrozenSet[Tuple[KeyValues, KeyValues]]:
        """All recorded pairs as a frozenset."""
        return frozenset(self._pairs)

    def r_keys(self) -> List[KeyValues]:
        """R-side keys, in entry order (with repetitions)."""
        return [entry.r_key for entry in self._entries]

    def s_keys(self) -> List[KeyValues]:
        """S-side keys, in entry order (with repetitions)."""
        return [entry.s_key for entry in self._entries]

    def to_relation(self, *, name: str = "") -> Relation:
        """Render as a relation with ``R.attr`` / ``S.attr`` columns.

        Column layout follows the paper's Tables 3 and 7: the R key
        attributes then the S key attributes, each prefixed by its
        relation.
        """
        r_attrs = list(self.r_key_attributes)
        s_attrs = list(self.s_key_attributes)
        columns = [f"R.{a}" for a in r_attrs] + [f"S.{a}" for a in s_attrs]
        schema = Schema([Attribute(c) for c in columns])
        rows = []
        for entry in self._entries:
            values: Dict[str, Any] = {}
            for attr in r_attrs:
                values[f"R.{attr}"] = entry.r_row[attr]
            for attr in s_attrs:
                values[f"S.{attr}"] = entry.s_row[attr]
            rows.append(values)
        relation = Relation(schema, (), name=name or self.kind, enforce_keys=False)
        seen: Dict[Row, None] = {}
        for raw in rows:
            seen.setdefault(Row(raw))
        relation._rows = tuple(seen)
        relation._row_set = frozenset(seen)
        return relation

    def __repr__(self) -> str:
        return f"<{type(self).__name__} with {len(self)} entries>"


class MatchingTable(_PairTable):
    """The conceptual matching table MT_RS."""

    kind = "matching table"

    def uniqueness_violations(self) -> Dict[str, List[KeyValues]]:
        """Keys matched to more than one counterpart, per side.

        Returns ``{"R": [...], "S": [...]}`` with the offending key values
        (the prototype compares ``bagof`` vs ``setof`` cardinalities; this
        is the same check with the witnesses kept).
        """
        r_counts = Counter(self.r_keys())
        s_counts = Counter(self.s_keys())
        return {
            "R": [key for key, count in r_counts.items() if count > 1],
            "S": [key for key, count in s_counts.items() if count > 1],
        }

    def is_sound(self) -> bool:
        """True iff the uniqueness constraint holds."""
        violations = self.uniqueness_violations()
        return not violations["R"] and not violations["S"]

    def verify(self) -> None:
        """Raise :class:`SoundnessError` on a uniqueness violation."""
        violations = self.uniqueness_violations()
        if violations["R"] or violations["S"]:
            raise SoundnessError(
                "uniqueness constraint violated: "
                f"R keys matched to multiple S tuples: {violations['R']}; "
                f"S keys matched to multiple R tuples: {violations['S']}"
            )


class NegativeMatchingTable(_PairTable):
    """The conceptual negative matching table NMT_RS.

    The paper notes the full NMT is usually much larger than the MT (at
    most min(|R|,|S|) matches versus up to |R|·|S| non-matches) and its
    prototype never materialises it wholly; this class supports both the
    small explicit tables of the worked examples (Table 4) and lazy use.
    """

    kind = "negative matching table"


def build_matching_table(
    extended_r: Relation,
    extended_s: Relation,
    key_attributes: Sequence[str],
    r_key_attributes: Sequence[str],
    s_key_attributes: Sequence[str],
) -> MatchingTable:
    """Join two extended relations over identical non-NULL K_Ext values.

    The shared core of the pipeline and the Section-4.2 algebraic path:
    hash-join on the extended-key attributes with ``non_null_eq``
    semantics (a NULL on either side never matches).
    """
    from repro.relational.nulls import is_null

    key_attrs = list(key_attributes)
    table = MatchingTable(
        r_key_attributes=r_key_attributes,
        s_key_attributes=s_key_attributes,
    )
    # Key projections are hoisted out of the probe loop: each row's key is
    # rendered exactly once per relation, not once per emitted pair.
    index: Dict[Tuple[Any, ...], List[Tuple[Row, KeyValues]]] = defaultdict(list)
    for s_row in extended_s:
        values = s_row.values_for(key_attrs)
        if any(is_null(v) for v in values):
            continue
        index[values].append((s_row, key_values(s_row, s_key_attributes)))
    for r_row in extended_r:
        values = r_row.values_for(key_attrs)
        if any(is_null(v) for v in values):
            continue
        bucket = index.get(values)
        if not bucket:
            continue
        r_key = key_values(r_row, r_key_attributes)
        for s_row, s_key in bucket:  # non_null_eq on all of K_Ext
            table.add(MatchEntry(r_row, s_row, r_key, s_key))
    return table


def check_consistency(
    matching: MatchingTable, negative: NegativeMatchingTable
) -> None:
    """Enforce the consistency constraint between the two tables.

    Raises :class:`ConsistencyError` when some pair appears in both.
    """
    overlap = matching.pairs() & negative.pairs()
    if overlap:
        raise ConsistencyError(
            f"{len(overlap)} pair(s) appear in both the matching and the "
            f"negative matching tables, e.g. {next(iter(overlap))!r}"
        )
