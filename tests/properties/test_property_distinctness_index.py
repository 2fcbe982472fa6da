"""Property test: the anchored distinctness check ≡ evaluating every rule.

:meth:`RuleEngine.firing_distinctness_rules` only evaluates the rules a
pair's tuples can anchor (one ``e1.A = literal`` conjunct per rule) plus
the rules without such a conjunct.  Over random rule sets — ILFD duals,
DBA rules comparing the two entities with no literal at all, mixed
value types, NULLs and absent attributes — it must return exactly the
rules :meth:`DistinctnessRule.applies` makes TRUE in either orientation,
in declaration order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilfd.ilfd import ILFD
from repro.relational.nulls import NULL, Maybe
from repro.relational.row import Row
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.engine import RuleEngine
from repro.rules.errors import MalformedRuleError
from repro.rules.predicates import Comparator, EntityRef, Literal, Predicate

ATTRIBUTES = ("a", "b", "c")
VALUES = st.sampled_from([0, 1, "x", 1.0])

refs = st.builds(EntityRef, st.sampled_from([1, 2]), st.sampled_from(ATTRIBUTES))
terms = st.one_of(refs, st.builds(Literal, VALUES))
predicates = st.builds(Predicate, refs, st.sampled_from(list(Comparator)), terms)


@st.composite
def dba_rules(draw):
    preds = draw(st.lists(predicates, min_size=1, max_size=3))
    try:
        return DistinctnessRule(preds, name=f"dba{len(preds)}")
    except MalformedRuleError:
        # Not both entities mentioned: pin one cross-entity comparison.
        return DistinctnessRule(
            preds + [Predicate(EntityRef(1, "a"), Comparator.EQ, EntityRef(2, "a"))]
        )


ilfd_duals = st.builds(
    lambda attribute, value, consequent: ilfd_to_distinctness_rules(
        ILFD({attribute: value}, {"c": consequent})
    )[0],
    st.sampled_from(("a", "b")),
    VALUES,
    VALUES,
)

rows = st.builds(
    Row,
    st.dictionaries(
        st.sampled_from(ATTRIBUTES),
        st.one_of(VALUES, st.just(NULL)),
        min_size=2,
        max_size=3,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    rules=st.lists(st.one_of(dba_rules(), ilfd_duals), max_size=8),
    row1=rows,
    row2=rows,
)
def test_anchored_check_equals_every_rule(rules, row1, row2):
    expected = [
        rule
        for rule in rules
        if rule.applies(row1, row2) is Maybe.TRUE
        or rule.applies(row2, row1) is Maybe.TRUE
    ]
    engine = RuleEngine((), rules)
    assert engine.firing_distinctness_rules(row1, row2) == expected
    assert engine.firing_distinctness_rules(row2, row1) == expected
