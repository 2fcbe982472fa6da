"""Distinctness rules.

    **Definition (Distinctness rule).**  ``∀e1,e2 ∈ E,
    P(e1.A1,…,e1.Am, e2.B1,…,e2.Bn) → (e1 ≢ e2)`` where P is a
    conjunction of predicates and P must involve some attribute from each
    of e1 and e2.

The paper's example r3: a restaurant specialising in Mughalai food is not
equivalent to a restaurant with non-Indian cuisine.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Set, Tuple

from repro.relational.nulls import Maybe, three_valued_and
from repro.rules.errors import MalformedRuleError
from repro.rules.predicates import Predicate


class DistinctnessRule:
    """A validated distinctness rule ``P → (e1 ≢ e2)``."""

    __slots__ = ("_predicates", "name")

    def __init__(self, predicates: Iterable[Predicate], *, name: str = "") -> None:
        preds = tuple(predicates)
        if not preds:
            raise MalformedRuleError("distinctness rule needs at least one predicate")
        for entity in (1, 2):
            if not any(pred.mentioned_attributes(entity) for pred in preds):
                raise MalformedRuleError(
                    f"distinctness rule must involve some attribute of e{entity}"
                )
        self._predicates = preds
        self.name = name

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The conjunction P."""
        return self._predicates

    @property
    def attributes(self) -> FrozenSet[str]:
        """All attributes the rule mentions (either entity)."""
        out: Set[str] = set()
        for pred in self._predicates:
            out.update(pred.mentioned_attributes(1))
            out.update(pred.mentioned_attributes(2))
        return frozenset(out)

    def applies(self, row1: Mapping, row2: Mapping) -> Maybe:
        """Three-valued evaluation of P over the pair.

        TRUE means the pair is *non-matching*; FALSE/UNKNOWN mean the rule
        is silent.
        """
        return three_valued_and(
            *(pred.evaluate(row1, row2) for pred in self._predicates)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctnessRule):
            return NotImplemented
        return frozenset(self._predicates) == frozenset(other._predicates)

    def __hash__(self) -> int:
        return hash(frozenset(self._predicates))

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        body = " ∧ ".join(str(p) for p in self._predicates)
        return f"{label}∀e1,e2∈E, {body} → (e1 ≢ e2)"
