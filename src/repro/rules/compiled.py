"""Distinctness rules compiled once for set-wise evaluation (Proposition 1).

A rule's antecedent is a conjunction, and a three-valued conjunction is
TRUE only when every conjunct is TRUE.  Split it into the predicates
that mention only e1 (its *e1 part*), only e2 (its *e2 part*), and both
(its *cross part*): the rule fires on a pair exactly when the e1 part
holds on the e1 tuple, the e2 part on the e2 tuple, and the cross part
on the pair.  Every ILFD dual ``(e1.A=a) ∧ (e2.B≠b)`` has no cross
part, so it fires on the rectangle {rows whose e1 part holds} × {rows
whose e2 part holds}.

:class:`CompiledRules` holds the three parts of each rule as plain
``(attribute, operator, operand)`` lookups on row values — no
``Predicate`` / ``Comparator`` dispatch per evaluation — with the
interpreter's semantics: an absent attribute reads as NULL, and a
comparison touching NULL or raising ``TypeError`` is not TRUE.  It
serves two callers:

- the pair executor, which evaluates each row's single-entity parts
  once (:meth:`CompiledRules.signature`) and then decides every pair
  from its two rows' signatures, evaluating cross parts per pair only
  where the single-entity parts already hold
  (:meth:`CompiledRules.first_firing`);
- :class:`~repro.rules.engine.RuleEngine`, which answers one pair at a
  time (:meth:`CompiledRules.firing`), pruned by each rule's first
  ``e1.A = literal`` conjunct: an anchored rule is tried only in the
  orientations whose e1 tuple binds A to that literal.

Rules are numbered by position and sets of rules are int bit masks
(bit *k* is rule *k*), so the lowest set bit is the first rule in rule
order.  :meth:`DistinctnessRule.applies` stays the semantics and the
test oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.relational.nulls import NULL
from repro.rules.distinctness import DistinctnessRule
from repro.rules.predicates import Comparator, Literal

__all__ = ["CompiledRules"]

#: ``row[attribute] op operand``: the operand is ``row[other]`` when
#: *other* is set, else *literal*.
Check = Tuple[str, Callable[[Any, Any], Any], Optional[str], Any]
#: ``e{entity}.attribute op e{3 - entity}.other``.
CrossCheck = Tuple[int, str, Callable[[Any, Any], Any], str]
#: A rule's (e1 part, e2 part, cross part).
Parts = Tuple[Tuple[Check, ...], Tuple[Check, ...], Tuple[CrossCheck, ...]]


def _value(row: Mapping[str, Any], attribute: str) -> Any:
    """``row[attribute]``, or NULL when it cannot be read (as ``EntityRef``)."""
    try:
        return row[attribute]
    except Exception:
        return NULL


def _true(fn: Callable[[Any, Any], Any], left: Any, right: Any) -> bool:
    """Whether ``fn(left, right)`` is TRUE; NULL and ``TypeError`` are UNKNOWN."""
    if left is NULL or right is NULL:
        return False
    try:
        return bool(fn(left, right))
    except TypeError:
        return False


def _holds(checks: Sequence[Check], row: Mapping[str, Any]) -> bool:
    """Whether every single-entity predicate in *checks* is TRUE on *row*."""
    for attribute, fn, other, literal in checks:
        right = literal if other is None else _value(row, other)
        if not _true(fn, _value(row, attribute), right):
            return False
    return True


def _cross_holds(
    checks: Sequence[CrossCheck], row1: Mapping[str, Any], row2: Mapping[str, Any]
) -> bool:
    """Whether every cross predicate in *checks* is TRUE on (row1, row2)."""
    for entity, attribute, fn, other in checks:
        left, right = (row1, row2) if entity == 1 else (row2, row1)
        if not _true(fn, _value(left, attribute), _value(right, other)):
            return False
    return True


def _bits(mask: int):
    """The rule indices in *mask*, lowest (first in rule order) first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class CompiledRules:
    """Distinctness rules split once into e1, e2 and cross parts.

    ``len()`` and ``rules`` give the source rules in order; rule *k* is
    bit ``1 << k`` of every mask.
    """

    def __init__(self, rules: Sequence[DistinctnessRule]) -> None:
        self.rules: Tuple[DistinctnessRule, ...] = tuple(rules)
        self._parts: List[Parts] = []
        self._anchors: Dict[Tuple[str, Any], int] = {}
        self._unanchored = 0
        #: Rules with a cross part, and rules whose e1 / e2 part is empty.
        self.cross_mask = 0
        self._e1_free = 0
        self._e2_free = 0
        for index, rule in enumerate(self.rules):
            bit = 1 << index
            one: List[Check] = []
            two: List[Check] = []
            cross: List[CrossCheck] = []
            anchor = None
            for pred in rule.predicates:
                left, fn, right = pred.left, pred.op.fn, pred.right
                side = one if left.entity == 1 else two
                if isinstance(right, Literal):
                    side.append((left.attribute, fn, None, right.value))
                    if anchor is None and left.entity == 1 and pred.op is Comparator.EQ:
                        anchor = (left.attribute, right.value)
                elif right.entity == left.entity:
                    side.append((left.attribute, fn, right.attribute, None))
                else:
                    cross.append((left.entity, left.attribute, fn, right.attribute))
            self._parts.append((tuple(one), tuple(two), tuple(cross)))
            if anchor is not None:
                try:
                    self._anchors[anchor] = self._anchors.get(anchor, 0) | bit
                except TypeError:  # an unhashable literal cannot anchor
                    anchor = None
            if anchor is None:
                self._unanchored |= bit
            if cross:
                self.cross_mask |= bit
            if not one:
                self._e1_free |= bit
            if not two:
                self._e2_free |= bit
        self._all = (1 << len(self.rules)) - 1
        self._anchor_attributes = tuple(
            dict.fromkeys(attribute for attribute, _ in self._anchors)
        )

    def __len__(self) -> int:
        return len(self.rules)

    def _anchored(self, row: Mapping[str, Any]) -> int:
        """The rules whose e1 part can hold on *row*: unanchored or anchored."""
        mask = self._unanchored
        for attribute in self._anchor_attributes:
            value = _value(row, attribute)
            if value is NULL:  # NULL equals no literal
                continue
            try:
                mask |= self._anchors.get((attribute, value), 0)
            except TypeError:  # an unhashable value: every rule is a candidate
                return self._all
        return mask

    def signature(self, row: Mapping[str, Any]) -> Tuple[int, int, int]:
        """``(e1 mask, e2 mask, parts evaluated)`` for *row*.

        The e1 mask holds the rules whose e1 part is TRUE on *row* (as
        e1), the e2 mask those whose e2 part is; an empty part holds.
        """
        e1 = self._e1_free
        evaluated = 0
        for index in _bits(self._anchored(row) & ~self._e1_free):
            evaluated += 1
            if _holds(self._parts[index][0], row):
                e1 |= 1 << index
        e2 = self._e2_free
        for index in _bits(self._all & ~self._e2_free):
            evaluated += 1
            if _holds(self._parts[index][1], row):
                e2 |= 1 << index
        return e1, e2, evaluated

    def first_firing(
        self,
        forward: int,
        backward: int,
        row1: Mapping[str, Any],
        row2: Mapping[str, Any],
    ) -> Tuple[int, int]:
        """``(first firing rule or -1, cross parts evaluated)``.

        *forward* / *backward* are the rules whose single-entity parts
        hold with *row1* / *row2* as e1 (``e1(row1) & e2(row2)`` and
        ``e1(row2) & e2(row1)``); only their cross parts remain.
        """
        evaluated = 0
        for index in _bits(forward | backward):
            bit = 1 << index
            if not bit & self.cross_mask:
                return index, evaluated
            cross = self._parts[index][2]
            if bit & forward:
                evaluated += 1
                if _cross_holds(cross, row1, row2):
                    return index, evaluated
            if bit & backward:
                evaluated += 1
                if _cross_holds(cross, row2, row1):
                    return index, evaluated
        return -1, evaluated

    def _fires(
        self, index: int, row1: Mapping[str, Any], row2: Mapping[str, Any]
    ) -> Tuple[bool, int]:
        """Whether rule *index* is TRUE on (row1, row2), and parts evaluated."""
        one, two, cross = self._parts[index]
        evaluated = 0
        if one:
            evaluated += 1
            if not _holds(one, row1):
                return False, evaluated
        if two:
            evaluated += 1
            if not _holds(two, row2):
                return False, evaluated
        if cross:
            evaluated += 1
            return _cross_holds(cross, row1, row2), evaluated
        return True, evaluated

    def firing(
        self, row1: Mapping[str, Any], row2: Mapping[str, Any]
    ) -> Tuple[List[int], int]:
        """``(rules TRUE on the pair in either orientation, parts evaluated)``.

        The rule indices are in rule order; an anchored rule is tried
        only in the orientations whose e1 tuple satisfies its anchor.
        """
        forward, backward = self._anchored(row1), self._anchored(row2)
        fired: List[int] = []
        evaluated = 0
        for index in _bits(forward | backward):
            bit = 1 << index
            for allowed, first, second in ((forward, row1, row2), (backward, row2, row1)):
                if bit & allowed:
                    hit, count = self._fires(index, first, second)
                    evaluated += count
                    if hit:
                        fired.append(index)
                        break
        return fired, evaluated
