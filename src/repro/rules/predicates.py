"""The predicate language of identity and distinctness rules.

Each predicate is "either of the form ``ei.attribute op ej.attribute`` or
``ei.attribute op value``, where ``op ∈ {=, <, >, ≤, ≥, ≠}``"
(Section 3.2).  Terms reference one of the two quantified entities
(:func:`attr1` / :func:`attr2`) or a constant (:func:`lit`).

Evaluation over a pair of tuples is three-valued: a comparison touching a
NULL is :attr:`~repro.relational.nulls.Maybe.UNKNOWN`, so rules never fire
off missing information (which would break soundness).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple, Union

from repro.relational.nulls import Maybe, is_null
from repro.rules.errors import MalformedRuleError


class Comparator(enum.Enum):
    """The paper's comparison operators."""

    EQ = "="
    NE = "≠"
    LT = "<"
    GT = ">"
    LE = "≤"
    GE = "≥"

    @property
    def fn(self) -> Callable[[Any, Any], bool]:
        """The Python comparison implementing this operator."""
        return _FUNCTIONS[self]

    def flipped(self) -> "Comparator":
        """The operator with its operands swapped (a op b ⇔ b op' a)."""
        return _FLIPPED[self]


_FUNCTIONS: Dict[Comparator, Callable[[Any, Any], bool]] = {
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
    Comparator.LT: operator.lt,
    Comparator.GT: operator.gt,
    Comparator.LE: operator.le,
    Comparator.GE: operator.ge,
}

_FLIPPED: Dict[Comparator, Comparator] = {
    Comparator.EQ: Comparator.EQ,
    Comparator.NE: Comparator.NE,
    Comparator.LT: Comparator.GT,
    Comparator.GT: Comparator.LT,
    Comparator.LE: Comparator.GE,
    Comparator.GE: Comparator.LE,
}


@dataclass(frozen=True, order=True)
class EntityRef:
    """A reference ``ei.attribute`` (entity is 1 or 2)."""

    entity: int
    attribute: str

    def __post_init__(self) -> None:
        if self.entity not in (1, 2):
            raise MalformedRuleError(f"entity index must be 1 or 2, got {self.entity}")
        if not self.attribute:
            raise MalformedRuleError("attribute name cannot be empty")

    def resolve(self, row1: Mapping[str, Any], row2: Mapping[str, Any]) -> Any:
        """The referenced value in the given pair (may be NULL/absent)."""
        row = row1 if self.entity == 1 else row2
        try:
            return row[self.attribute]
        except Exception:
            from repro.relational.nulls import NULL

            return NULL

    def __str__(self) -> str:
        return f"e{self.entity}.{self.attribute}"


@dataclass(frozen=True, order=True)
class Literal:
    """A constant value term."""

    value: Any

    def resolve(self, row1: Mapping[str, Any], row2: Mapping[str, Any]) -> Any:
        """Constants resolve to themselves."""
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[EntityRef, Literal]


def attr1(attribute: str) -> EntityRef:
    """Shorthand for ``e1.attribute``."""
    return EntityRef(1, attribute)


def attr2(attribute: str) -> EntityRef:
    """Shorthand for ``e2.attribute``."""
    return EntityRef(2, attribute)


def lit(value: Any) -> Literal:
    """Shorthand for a constant term."""
    return Literal(value)


@dataclass(frozen=True)
class Predicate:
    """One comparison ``left op right``.

    At least one side must reference an entity (a constant-vs-constant
    comparison carries no rule content and is rejected).
    """

    left: Term
    op: Comparator
    right: Term

    def __post_init__(self) -> None:
        if isinstance(self.left, Literal) and isinstance(self.right, Literal):
            raise MalformedRuleError(
                f"predicate {self} compares two constants; rules must "
                "reference entity attributes"
            )
        if isinstance(self.left, Literal):
            # Normalise constants to the right-hand side.
            constant, ref = self.left, self.right
            object.__setattr__(self, "left", ref)
            object.__setattr__(self, "right", constant)
            object.__setattr__(self, "op", self.op.flipped())

    def evaluate(self, row1: Mapping[str, Any], row2: Mapping[str, Any]) -> Maybe:
        """Three-valued evaluation over a pair of tuples."""
        left = self.left.resolve(row1, row2)
        right = self.right.resolve(row1, row2)
        if is_null(left) or is_null(right):
            return Maybe.UNKNOWN
        try:
            return Maybe.from_bool(self.op.fn(left, right))
        except TypeError:
            return Maybe.UNKNOWN

    def mentioned_attributes(self, entity: int) -> Tuple[str, ...]:
        """Attributes of entity *entity* this predicate references."""
        out = []
        for term in (self.left, self.right):
            if isinstance(term, EntityRef) and term.entity == entity:
                out.append(term.attribute)
        return tuple(out)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


def equality_predicate(attribute: str) -> Predicate:
    """The predicate ``e1.attribute = e2.attribute``."""
    return Predicate(attr1(attribute), Comparator.EQ, attr2(attribute))
