"""Survivorship: which value makes it into the golden record.

A cluster's members may disagree on a non-key attribute; survivorship
is the deterministic policy that picks the surviving value and — just
as importantly — *records why*.  Following the logic-based merge
framing of Bienvenu et al. (PAPERS.md), every pick is attributed to a
named rule and journaled in the store's ``entity_resolution_log``, so a
golden value is never an unexplained artifact of dict ordering.

A :class:`SurvivorshipPolicy` is a first-rule-wins chain: each rule may
pick a candidate or abstain (return ``None``), and the first pick wins.
The terminal fallback — first candidate in source declaration order —
is always appended, so a decision is always made and always attributed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.entities.errors import SurvivorshipError
from repro.relational.nulls import NULL, is_null
from repro.relational.row import Row
from repro.store.codec import KeyValues

__all__ = [
    "Candidate",
    "Decision",
    "SurvivorshipRule",
    "SourcePriorityRule",
    "MostCompleteRule",
    "LongestValueRule",
    "NewestValueRule",
    "SurvivorshipPolicy",
    "SURVIVORSHIP_RULES",
    "decide_cluster",
    "make_survivorship",
]


@dataclass(frozen=True)
class Candidate:
    """One member's non-NULL value for one attribute.

    Carries the member's full row so rules can judge context (how
    complete the record is, what its timestamp attribute says) without
    the policy having to anticipate every rule's needs.
    """

    source: str
    key: KeyValues
    value: Any
    row: Row

    @property
    def completeness(self) -> int:
        """Number of non-NULL attributes in the member's row."""
        return sum(1 for attr in self.row if not is_null(self.row[attr]))


@dataclass(frozen=True)
class Decision:
    """One survivorship pick, fully attributed.

    ``source`` is ``None`` (and ``value`` NULL) when no member carried a
    value at all; ``contested`` is True when the candidates disagreed —
    the decisions worth auditing first.
    """

    attribute: str
    value: Any
    source: Optional[str]
    rule: str
    considered: Tuple[Tuple[str, Any], ...]
    contested: bool


class SurvivorshipRule(abc.ABC):
    """One link in the first-rule-wins chain."""

    name: str = "rule"

    @abc.abstractmethod
    def pick(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Optional[Candidate]:
        """The surviving candidate, or ``None`` to abstain."""


class SourcePriorityRule(SurvivorshipRule):
    """Highest-priority source wins.

    With an explicit *order*, sources listed earlier outrank later ones
    (unlisted sources rank last, in candidate order).  Without one, the
    candidate order itself — source declaration order — is the
    priority: the first non-NULL value wins, the empty chain's pick and
    so ``IdentityGraph.integrate``'s.
    """

    name = "source_priority"

    def __init__(self, order: Sequence[str] = ()) -> None:
        self._order = tuple(order)

    def pick(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Optional[Candidate]:
        if not candidates:
            return None
        if not self._order:
            return candidates[0]
        rank = {name: index for index, name in enumerate(self._order)}
        best = min(
            range(len(candidates)),
            key=lambda i: (rank.get(candidates[i].source, len(rank)), i),
        )
        return candidates[best]


class MostCompleteRule(SurvivorshipRule):
    """The value from the most complete member record wins (ties: first)."""

    name = "most_complete"

    def pick(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Optional[Candidate]:
        if not candidates:
            return None
        best = max(range(len(candidates)), key=lambda i: (candidates[i].completeness, -i))
        return candidates[best]


class LongestValueRule(SurvivorshipRule):
    """The longest value (by string form) wins (ties: first)."""

    name = "longest"

    def pick(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Optional[Candidate]:
        if not candidates:
            return None
        best = max(range(len(candidates)), key=lambda i: (len(str(candidates[i].value)), -i))
        return candidates[best]


class NewestValueRule(SurvivorshipRule):
    """The member with the greatest timestamp attribute wins.

    Abstains when no candidate's row carries a non-NULL value for the
    timestamp attribute (rows without one fall through to the next
    rule), and when two candidates tie for newest, the earlier one in
    source order is picked.
    """

    name = "newest"

    def __init__(self, timestamp_attribute: str) -> None:
        if not timestamp_attribute:
            raise SurvivorshipError("newest needs a timestamp attribute: newest:ATTR")
        self._attr = timestamp_attribute

    def pick(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Optional[Candidate]:
        stamped = [
            (index, candidate)
            for index, candidate in enumerate(candidates)
            if self._attr in candidate.row and not is_null(candidate.row[self._attr])
        ]
        if not stamped:
            return None
        best = max(stamped, key=lambda pair: (pair[1].row[self._attr], -pair[0]))
        return best[1]


class SurvivorshipPolicy:
    """A first-rule-wins chain of survivorship rules.

    The terminal fallback (first candidate, attributed as
    ``source_priority``) is implicit, so :meth:`decide` always decides.
    """

    def __init__(self, rules: Sequence[SurvivorshipRule] = ()) -> None:
        self._rules: Tuple[SurvivorshipRule, ...] = tuple(rules) or (
            SourcePriorityRule(),
        )

    @property
    def rules(self) -> Tuple[SurvivorshipRule, ...]:
        """The chain, in evaluation order."""
        return self._rules

    @property
    def rule_names(self) -> Tuple[str, ...]:
        """The chain's rule names, in evaluation order."""
        return tuple(rule.name for rule in self._rules)

    def decide(
        self, attribute: str, candidates: Sequence[Candidate]
    ) -> Decision:
        """Pick the surviving value for one attribute, attributed."""
        considered = tuple(
            (candidate.source, candidate.value) for candidate in candidates
        )
        contested = len({value for _, value in considered}) > 1
        if not candidates:
            return Decision(attribute, NULL, None, "no_candidates", (), False)
        for rule in self._rules:
            picked = rule.pick(attribute, candidates)
            if picked is not None:
                return Decision(
                    attribute, picked.value, picked.source, rule.name,
                    considered, contested,
                )
        picked = candidates[0]
        return Decision(
            attribute, picked.value, picked.source,
            SourcePriorityRule.name, considered, contested,
        )


def decide_cluster(
    members: Sequence[Tuple[str, Row]],
    member_keys: Sequence[KeyValues],
    attribute_order: Sequence[str],
    policy: SurvivorshipPolicy,
) -> Tuple[Decision, ...]:
    """One matched entity's decision per attribute, in *attribute_order*.

    *members* are the cluster's ``(source, row)`` tuples in member
    order and *member_keys* their primary-key values; each member's
    non-NULL values become that attribute's candidates, in member
    order.  The one value merge: golden records and the identity
    graph's ``integrate``/``conflicts`` are all read off these
    decisions.
    """
    candidates: Dict[str, List[Candidate]] = {}
    for (source, row), key in zip(members, member_keys):
        for attr in row:
            value = row[attr]
            if is_null(value):
                continue
            candidates.setdefault(attr, []).append(
                Candidate(source=source, key=key, value=value, row=row)
            )
    return tuple(
        policy.decide(attr, candidates.get(attr, ())) for attr in attribute_order
    )


SURVIVORSHIP_RULES = ("source_priority", "most_complete", "longest", "newest")
"""Rule names :func:`make_survivorship` understands."""


def make_survivorship(spec: str) -> SurvivorshipPolicy:
    """Parse a CLI survivorship spec into a policy.

    The spec is a comma-separated rule chain, first rule wins:
    ``"most_complete,longest"``.  ``newest`` takes its timestamp
    attribute after a colon (``"newest:updated_at"``); ``source_priority``
    optionally takes a ``>``-separated source order
    (``"source_priority:census>tax"``).
    """
    rules: List[SurvivorshipRule] = []
    for part in (p.strip() for p in spec.split(",")):
        if not part:
            continue
        name, _, arg = part.partition(":")
        if name == "source_priority":
            rules.append(
                SourcePriorityRule(
                    tuple(s for s in arg.split(">") if s) if arg else ()
                )
            )
        elif name == "most_complete":
            rules.append(MostCompleteRule())
        elif name == "longest":
            rules.append(LongestValueRule())
        elif name == "newest":
            rules.append(NewestValueRule(arg))
        else:
            raise SurvivorshipError(
                f"unknown survivorship rule {name!r}; "
                f"expected one of {SURVIVORSHIP_RULES}"
            )
    if not rules:
        raise SurvivorshipError(f"empty survivorship spec {spec!r}")
    return SurvivorshipPolicy(rules)
