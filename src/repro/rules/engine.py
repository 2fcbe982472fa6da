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

Distinctness rules are evaluated in their compiled form
(:class:`~repro.rules.compiled.CompiledRules`, built once per engine),
indexed by one ``e1.A = literal`` conjunct each (every ILFD dual has
one): a rule is evaluated only in the orientations whose e1 tuple binds
A to that literal, and rules without such a conjunct always.
:meth:`DistinctnessRule.applies` stays the semantics.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.nulls import Maybe
from repro.rules.compiled import CompiledRules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.errors import RuleConflictError
from repro.rules.identity import IdentityRule

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
        self._compiled = CompiledRules(self._distinctness)

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

    def firing_distinctness_rules(
        self, row1: Mapping, row2: Mapping
    ) -> List[DistinctnessRule]:
        """Distinctness rules TRUE for the pair, in either orientation.

        In declaration order.  An anchored rule is evaluated only in
        the orientations whose e1 tuple satisfies its anchor.
        """
        indices, evaluated = self._compiled.firing(row1, row2)
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("rules.distinctness_evaluations", evaluated)
            metrics.inc("rules.distinctness_fired", len(indices))
        return [self._distinctness[index] for index in indices]

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
