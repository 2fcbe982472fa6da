"""Three-valued rule evaluation over tuple pairs.

Section 3.2: "The entity-identification process can be expressed as a
three-valued function that takes a pair of tuples and returns 'true' only
if they refer to the same real-world entity, 'false' only if they do not,
and 'unknown' otherwise."

:class:`RuleEngine` evaluates a pair against the DBA's identity and
distinctness rules and returns a :class:`MatchStatus`.  A pair satisfying
rules of both kinds means the rule set itself is unsound for the data and
raises :class:`~repro.rules.errors.RuleConflictError` (silently choosing
either answer would violate the consistency constraint).

Distinctness rules are indexed by one ``e1.A = literal`` conjunct each
(every ILFD dual has one): a rule is evaluated only in the orientations
whose e1 tuple binds A to that literal, and rules without such a
conjunct always.  :meth:`DistinctnessRule.applies` stays the semantics.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.errors import AttributeError_
from repro.relational.nulls import Maybe
from repro.rules.distinctness import DistinctnessRule
from repro.rules.errors import RuleConflictError
from repro.rules.identity import IdentityRule
from repro.rules.predicates import Comparator, Literal

__all__ = ["MatchStatus", "RuleEngine"]


class MatchStatus(enum.Enum):
    """The three-valued outcome of entity identification for a pair."""

    MATCH = "match"
    NON_MATCH = "non_match"
    UNKNOWN = "unknown"


class RuleEngine:
    """Evaluates identity and distinctness rules over tuple pairs.

    Distinctness rules are evaluated in both orientations (distinctness is
    symmetric; the rule text is not).  Identity rules are symmetric by
    construction — their well-formedness forces ``e1.A = e2.A`` for every
    mentioned attribute — so one orientation suffices.
    """

    def __init__(
        self,
        identity_rules: Iterable[IdentityRule] = (),
        distinctness_rules: Iterable[DistinctnessRule] = (),
        *,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._identity: Tuple[IdentityRule, ...] = tuple(identity_rules)
        self._distinctness: Tuple[DistinctnessRule, ...] = tuple(distinctness_rules)
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        # (attribute, literal) -> the rules whose first e1.A = literal
        # conjunct it is (literals sit on the right after normalisation).
        self._anchors: Dict[Tuple[str, Any], List[int]] = defaultdict(list)
        self._unanchored: Set[int] = set()
        for index, rule in enumerate(self._distinctness):
            anchor = next(
                (
                    (pred.left.attribute, pred.right.value)
                    for pred in rule.predicates
                    if pred.op is Comparator.EQ
                    and isinstance(pred.right, Literal)
                    and pred.left.entity == 1
                ),
                None,
            )
            if anchor is None:
                self._unanchored.add(index)
            else:
                self._anchors[anchor].append(index)
        self._anchor_attributes = {attribute for attribute, _ in self._anchors}

    @property
    def identity_rules(self) -> Tuple[IdentityRule, ...]:
        """The identity rules, in declaration order."""
        return self._identity

    @property
    def distinctness_rules(self) -> Tuple[DistinctnessRule, ...]:
        """The distinctness rules, in declaration order."""
        return self._distinctness

    def with_rules(
        self,
        identity_rules: Iterable[IdentityRule] = (),
        distinctness_rules: Iterable[DistinctnessRule] = (),
    ) -> "RuleEngine":
        """A new engine with extra rules appended (monotone growth)."""
        return RuleEngine(
            list(self._identity) + list(identity_rules),
            list(self._distinctness) + list(distinctness_rules),
            tracer=self._tracer,
        )

    # ------------------------------------------------------------------
    def firing_identity_rules(self, row1: Mapping, row2: Mapping) -> List[IdentityRule]:
        """Identity rules whose antecedent is TRUE for the pair."""
        fired = [
            rule
            for rule in self._identity
            if rule.applies(row1, row2) is Maybe.TRUE
        ]
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("rules.identity_evaluations", len(self._identity))
            metrics.inc("rules.identity_fired", len(fired))
        return fired

    def _anchored(self, row: Mapping) -> Set[int]:
        """Indices of the rules whose anchor *row* satisfies as e1."""
        found: Set[int] = set()
        for attribute in self._anchor_attributes:
            try:
                found.update(self._anchors.get((attribute, row[attribute]), ()))
            except TypeError:  # an unhashable value: evaluate every rule
                return set(range(len(self._distinctness)))
            except (KeyError, AttributeError_):  # absent: NULL equals no literal
                continue
        return found

    def firing_distinctness_rules(
        self, row1: Mapping, row2: Mapping
    ) -> List[DistinctnessRule]:
        """Distinctness rules TRUE for the pair, in either orientation.

        In declaration order.  An anchored rule is evaluated only in
        the orientations whose e1 tuple satisfies its anchor.
        """
        forward, backward = self._anchored(row1), self._anchored(row2)
        candidates = self._unanchored | forward | backward
        fired: List[DistinctnessRule] = []
        for index in sorted(candidates):
            rule = self._distinctness[index]
            unanchored = index in self._unanchored
            if (
                (unanchored or index in forward)
                and rule.applies(row1, row2) is Maybe.TRUE
            ) or (
                (unanchored or index in backward)
                and rule.applies(row2, row1) is Maybe.TRUE
            ):
                fired.append(rule)
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("rules.distinctness_evaluations", len(candidates))
            metrics.inc("rules.distinctness_fired", len(fired))
        return fired

    def classify(self, row1: Mapping, row2: Mapping) -> MatchStatus:
        """Three-valued classification of the pair.

        Raises :class:`RuleConflictError` when both an identity and a
        distinctness rule fire — the DBA's rule set is inconsistent for
        this pair and soundness cannot be guaranteed either way.
        """
        matches = self.firing_identity_rules(row1, row2)
        distinct = self.firing_distinctness_rules(row1, row2)
        if matches and distinct:
            if self._tracer.enabled:
                self._tracer.metrics.inc("rules.conflicts")
            raise RuleConflictError(
                f"pair satisfies identity rule(s) "
                f"{[r.name or repr(r) for r in matches]} and distinctness "
                f"rule(s) {[r.name or repr(r) for r in distinct]}"
            )
        if matches:
            status = MatchStatus.MATCH
        elif distinct:
            status = MatchStatus.NON_MATCH
        else:
            status = MatchStatus.UNKNOWN
        if self._tracer.enabled:
            self._tracer.metrics.inc(f"rules.outcome.{status.value}")
        return status

    def explain(self, row1: Mapping, row2: Mapping) -> str:
        """Human-readable account of why the pair classifies as it does."""
        try:
            status = self.classify(row1, row2)
        except RuleConflictError as exc:
            return f"CONFLICT: {exc}"
        if status is MatchStatus.MATCH:
            names = [r.name or repr(r) for r in self.firing_identity_rules(row1, row2)]
            return f"MATCH by identity rule(s): {', '.join(names)}"
        if status is MatchStatus.NON_MATCH:
            names = [
                r.name or repr(r)
                for r in self.firing_distinctness_rules(row1, row2)
            ]
            return f"NON-MATCH by distinctness rule(s): {', '.join(names)}"
        return "UNKNOWN: no rule fires for this pair"
