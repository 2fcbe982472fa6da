"""The consistency verdict every path that records a match applies.

No pair may be both matched and declared distinct (Section 3.2), and
by Proposition 1 every ILFD is also a distinctness rule.  Batch runs,
incremental updates, serving ingest and the N-way identity graph all
judge new matches with :func:`check_matches`: a matched pair that fires
a distinctness rule raises :class:`~repro.core.errors.ConsistencyError`
unless it *witnesses* a uniqueness violation (its R or S tuple is also
matched to another tuple).  Then the extended key is unsound, the match
is its symptom, and the soundness report names the key instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Tuple

from repro.core.errors import ConsistencyError
from repro.core.matching_table import MatchingTable
from repro.ilfd.ilfd import ILFD
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.engine import RuleEngine

__all__ = ["MatchCheck", "check_matches", "check_table", "dual_rules"]

#: ``(label, R row, S row, witness)``; the label names the pair.
MatchCheck = Tuple[Any, Mapping[str, Any], Mapping[str, Any], bool]


def dual_rules(ilfds: Iterable[ILFD]) -> RuleEngine:
    """A rule engine holding the Proposition-1 duals of *ilfds*."""
    return RuleEngine(
        (), [rule for ilfd in ilfds for rule in ilfd_to_distinctness_rules(ilfd)]
    )


def check_matches(rules: RuleEngine, matches: Iterable[MatchCheck]) -> None:
    """Raise :class:`ConsistencyError` if a non-witness match is contradicted."""
    conflicts = []
    for label, r_row, s_row, witness in matches:
        fired = [] if witness else rules.firing_distinctness_rules(r_row, s_row)
        if fired:
            conflicts.append((label, fired))
    if conflicts:
        label, fired = conflicts[0]
        if isinstance(label, tuple):  # an (r_key, s_key) pair
            label = "R{} ↔ S{}".format(*map(dict, label))
        names = ", ".join(rule.name or repr(rule) for rule in fired)
        raise ConsistencyError(
            f"{len(conflicts)} matched pair(s) also fire a distinctness "
            f"rule, e.g. {label} fires {names}"
        )


def check_table(rules: RuleEngine, table: MatchingTable) -> None:
    """:func:`check_matches` over a matching table's entries."""
    r_counts = Counter(table.r_keys())
    s_counts = Counter(table.s_keys())
    check_matches(
        rules,
        (
            (e, e.r_row, e.s_row, r_counts[e.r_key] > 1 or s_counts[e.s_key] > 1)
            for e in table
        ),
    )
