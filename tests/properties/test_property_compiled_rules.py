"""Property tests: compiled distinctness rules ≡ the interpreter.

:class:`~repro.rules.compiled.CompiledRules` splits each rule into its
e1-only, e2-only and cross-entity predicates and evaluates them as plain
lookups; the pair executor classifies pairs from per-row signatures.
Both must agree exactly with :meth:`Predicate.evaluate` /
:meth:`DistinctnessRule.applies`:

(a) every compiled part, and the first firing rule of every pair, over
    rules with all six comparators, literals on either side, cross-entity
    and same-entity (``e1.A op e1.B``) predicates, and rows with NULLs,
    absent attributes, mixed types whose comparison raises ``TypeError``
    and unhashable values;
(b) the executor's ``distinct`` list, its order and ``distinct_rules``
    ≡ a nested interpreted loop over the same candidates, under both
    blockers, with ILFD duals mixed with unanchored and cross-predicate
    rules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import BlockingContext, PairExecutor, make_blocker
from repro.ilfd.ilfd import ILFD
from repro.relational.nulls import NULL, Maybe, three_valued_and
from repro.relational.row import Row
from repro.rules.compiled import CompiledRules
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.errors import MalformedRuleError
from repro.rules.predicates import Comparator, EntityRef, Literal, Predicate

ATTRIBUTES = ("a", "b", "c")
HASHABLE = [0, 1, 2, "x", "y", 1.0, None]
VALUES = st.sampled_from(HASHABLE + [[1], {"k": 1}])

refs = st.builds(EntityRef, st.sampled_from([1, 2]), st.sampled_from(ATTRIBUTES))
literals = st.builds(Literal, st.one_of(VALUES, st.just(NULL)))
comparators = st.sampled_from(list(Comparator))


@st.composite
def predicates(draw):
    """``ref op ref`` (same or other entity) or a literal on either side."""
    left, right = draw(refs), draw(st.one_of(refs, literals))
    if draw(st.booleans()):
        left, right = right, left
    return Predicate(left, draw(comparators), right)


@st.composite
def dba_rules(draw):
    preds = draw(st.lists(predicates(), min_size=1, max_size=4))
    try:
        return DistinctnessRule(preds, name=f"dba{len(preds)}")
    except MalformedRuleError:
        # Not both entities mentioned: add one cross-entity comparison.
        cross = Predicate(
            EntityRef(1, draw(st.sampled_from(ATTRIBUTES))),
            draw(comparators),
            EntityRef(2, draw(st.sampled_from(ATTRIBUTES))),
        )
        return DistinctnessRule(preds + [cross], name="dba-cross")


ilfds = st.builds(
    lambda attribute, value, consequent: ILFD({attribute: value}, {"c": consequent}),
    st.sampled_from(("a", "b")),
    st.sampled_from(HASHABLE[:5]),
    st.sampled_from(HASHABLE[:5]),
)
ilfd_duals = ilfds.map(lambda ilfd: ilfd_to_distinctness_rules(ilfd)[0])


@st.composite
def rows(draw, values=VALUES, required=()):
    """A mapping over ATTRIBUTES with NULLs and absent attributes.

    Rows holding only hashable values are sometimes ``Row`` objects (an
    absent attribute raises ``AttributeError_``), otherwise dicts
    (``KeyError``); a row holding a list or dict must stay a dict.
    """
    data = draw(
        st.dictionaries(
            st.sampled_from(ATTRIBUTES), st.one_of(values, st.just(NULL)), max_size=3
        )
    )
    for attribute in required:
        data.setdefault(attribute, draw(values))
    try:
        hash(frozenset(data.items()))
    except TypeError:
        return data
    return Row(data) if draw(st.booleans()) else data


def _interpreted_first(rules, row1, row2):
    """The first rule TRUE on the pair in either orientation, or -1."""
    for index, rule in enumerate(rules):
        if (
            rule.applies(row1, row2) is Maybe.TRUE
            or rule.applies(row2, row1) is Maybe.TRUE
        ):
            return index
    return -1


def _part_holds(preds, row, entity):
    """Interpreted truth of a single-entity part with *row* as e<entity>."""
    pair = (row, {}) if entity == 1 else ({}, row)
    return three_valued_and(*(p.evaluate(*pair) for p in preds)) is Maybe.TRUE


def _only(rule, entity):
    """The predicates of *rule* that mention only e<entity>."""
    return [
        p
        for p in rule.predicates
        if p.mentioned_attributes(entity) and not p.mentioned_attributes(3 - entity)
    ]


@settings(max_examples=400, deadline=None)
@given(
    rules=st.lists(st.one_of(dba_rules(), ilfd_duals), max_size=8),
    row1=rows(),
    row2=rows(),
)
def test_compiled_rules_equal_interpreter(rules, row1, row2):
    compiled = CompiledRules(rules)
    sig1, sig2 = compiled.signature(row1), compiled.signature(row2)
    for index, rule in enumerate(rules):
        bit = 1 << index
        # Each row's signature is its single-entity parts, interpreted.
        for row, sig in ((row1, sig1), (row2, sig2)):
            assert bool(sig[0] & bit) == _part_holds(_only(rule, 1), row, 1)
            assert bool(sig[1] & bit) == _part_holds(_only(rule, 2), row, 2)
    expected = [
        index
        for index, rule in enumerate(rules)
        if rule.applies(row1, row2) is Maybe.TRUE
        or rule.applies(row2, row1) is Maybe.TRUE
    ]
    # The single-pair path (RuleEngine) and the signature path (executor).
    assert compiled.firing(row1, row2)[0] == expected
    assert compiled.firing(row2, row1)[0] == expected
    first, _ = compiled.first_firing(
        sig1[0] & sig2[1], sig2[0] & sig1[1], row1, row2
    )
    assert first == (expected[0] if expected else -1)


@settings(max_examples=120, deadline=None)
@given(
    ilfd_list=st.lists(ilfds, min_size=1, max_size=5),
    extra=st.lists(dba_rules(), max_size=3),
    order=st.randoms(use_true_random=False),
    r_rows=st.lists(rows(st.sampled_from(HASHABLE), ("a",)).map(Row), max_size=7),
    s_rows=st.lists(rows(st.sampled_from(HASHABLE), ("a",)).map(Row), max_size=7),
    blocker=st.sampled_from(["cross", "hash"]),
)
def test_executor_equals_interpreted_loop(
    ilfd_list, extra, order, r_rows, s_rows, blocker
):
    rules = [rule for ilfd in ilfd_list for rule in ilfd_to_distinctness_rules(ilfd)]
    rules += extra
    order.shuffle(rules)
    context = BlockingContext.of(("a",))
    candidates = make_blocker(blocker).candidate_pairs(r_rows, s_rows, context)
    expected = [
        ((i, j), first)
        for i, j in candidates
        for first in [_interpreted_first(rules, r_rows[i], s_rows[j])]
        if first >= 0
    ]
    evaluation = PairExecutor().evaluate(candidates, r_rows, s_rows, (), rules)
    assert evaluation.distinct == [pair for pair, _ in expected]
    assert evaluation.distinct_rules == [first for _, first in expected]
    assert not evaluation.quarantined
