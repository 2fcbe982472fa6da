"""Tests for predicates, identity/distinctness rules, and the engine."""

import pytest

from repro.ilfd.ilfd import ILFD
from repro.relational.nulls import NULL, Maybe
from repro.rules.conversion import (
    distinctness_rule_to_ilfd,
    ilfd_to_distinctness_rules,
)
from repro.rules.distinctness import DistinctnessRule
from repro.rules.engine import MatchStatus, RuleEngine
from repro.rules.errors import MalformedRuleError, RuleConflictError
from repro.rules.identity import (
    IdentityRule,
    extended_key_rule,
    key_equivalence_rule,
)
from repro.rules.predicates import (
    Comparator,
    EntityRef,
    Literal,
    Predicate,
    attr1,
    attr2,
    equality_predicate,
    lit,
)


class TestPredicates:
    def test_equality_true(self):
        pred = equality_predicate("name")
        assert pred.evaluate({"name": "x"}, {"name": "x"}) is Maybe.TRUE

    def test_equality_false(self):
        pred = equality_predicate("name")
        assert pred.evaluate({"name": "x"}, {"name": "y"}) is Maybe.FALSE

    def test_null_is_unknown(self):
        pred = equality_predicate("name")
        assert pred.evaluate({"name": NULL}, {"name": "x"}) is Maybe.UNKNOWN
        assert pred.evaluate({}, {"name": "x"}) is Maybe.UNKNOWN

    def test_constant_comparison(self):
        pred = Predicate(attr1("cuisine"), Comparator.EQ, lit("Chinese"))
        assert pred.evaluate({"cuisine": "Chinese"}, {}) is Maybe.TRUE

    def test_constant_normalised_to_right(self):
        pred = Predicate(lit("Chinese"), Comparator.EQ, attr1("cuisine"))
        assert isinstance(pred.left, EntityRef)
        assert pred.evaluate({"cuisine": "Chinese"}, {}) is Maybe.TRUE

    def test_ordering_operators(self):
        pred = Predicate(attr1("age"), Comparator.LT, attr2("age"))
        assert pred.evaluate({"age": 1}, {"age": 2}) is Maybe.TRUE
        assert pred.evaluate({"age": 2}, {"age": 1}) is Maybe.FALSE

    def test_flip_on_normalisation(self):
        pred = Predicate(lit(5), Comparator.LT, attr1("age"))
        # 5 < age became age > 5
        assert pred.op is Comparator.GT
        assert pred.evaluate({"age": 6}, {}) is Maybe.TRUE

    def test_incomparable_types_unknown(self):
        pred = Predicate(attr1("age"), Comparator.LT, lit("abc"))
        assert pred.evaluate({"age": 1}, {}) is Maybe.UNKNOWN

    def test_two_constants_rejected(self):
        with pytest.raises(MalformedRuleError):
            Predicate(lit(1), Comparator.EQ, lit(2))

    def test_entity_ref_validation(self):
        with pytest.raises(MalformedRuleError):
            EntityRef(3, "a")

    def test_mentioned_attributes(self):
        pred = Predicate(attr1("a"), Comparator.EQ, attr2("b"))
        assert pred.mentioned_attributes(1) == ("a",)
        assert pred.mentioned_attributes(2) == ("b",)


class TestIdentityRule:
    def test_papers_r1_is_valid(self):
        rule = IdentityRule(
            [
                Predicate(attr1("cuisine"), Comparator.EQ, lit("Chinese")),
                Predicate(attr2("cuisine"), Comparator.EQ, lit("Chinese")),
            ],
            name="r1",
        )
        assert rule.applies({"cuisine": "Chinese"}, {"cuisine": "Chinese"}) is Maybe.TRUE
        assert rule.applies({"cuisine": "Chinese"}, {"cuisine": "Greek"}) is Maybe.FALSE

    def test_papers_r2_is_rejected(self):
        with pytest.raises(MalformedRuleError):
            IdentityRule(
                [Predicate(attr1("cuisine"), Comparator.EQ, lit("Chinese"))],
                name="r2",
            )

    def test_direct_equality_is_valid(self):
        rule = IdentityRule([equality_predicate("name")])
        assert rule.applies({"name": "x"}, {"name": "x"}) is Maybe.TRUE

    def test_le_ge_pair_counts_as_equality(self):
        rule = IdentityRule(
            [
                Predicate(attr1("age"), Comparator.LE, attr2("age")),
                Predicate(attr1("age"), Comparator.GE, attr2("age")),
            ]
        )
        assert rule.applies({"age": 3}, {"age": 3}) is Maybe.TRUE

    def test_inequality_alone_rejected(self):
        with pytest.raises(MalformedRuleError):
            IdentityRule([Predicate(attr1("age"), Comparator.LE, attr2("age"))])

    def test_extra_attribute_without_equality_rejected(self):
        with pytest.raises(MalformedRuleError):
            IdentityRule(
                [
                    equality_predicate("name"),
                    Predicate(attr1("age"), Comparator.GT, lit(10)),
                ]
            )

    def test_null_never_fires(self):
        rule = extended_key_rule(["name"])
        assert rule.applies({"name": NULL}, {"name": NULL}) is Maybe.UNKNOWN

    def test_extended_key_rule_attributes(self):
        rule = extended_key_rule(["name", "cuisine"])
        assert rule.attributes == {"name", "cuisine"}

    def test_extended_key_rule_rejects_duplicates(self):
        with pytest.raises(MalformedRuleError):
            extended_key_rule(["a", "a"])

    def test_extended_key_rule_rejects_empty(self):
        with pytest.raises(MalformedRuleError):
            extended_key_rule([])

    def test_key_equivalence_alias(self):
        rule = key_equivalence_rule(["id"])
        assert "key-equivalence" in rule.name

    def test_empty_rule_rejected(self):
        with pytest.raises(MalformedRuleError):
            IdentityRule([])


class TestDistinctnessRule:
    def _r3(self):
        return DistinctnessRule(
            [
                Predicate(attr1("speciality"), Comparator.EQ, lit("Mughalai")),
                Predicate(attr2("cuisine"), Comparator.NE, lit("Indian")),
            ],
            name="r3",
        )

    def test_papers_r3_fires(self):
        rule = self._r3()
        assert (
            rule.applies({"speciality": "Mughalai"}, {"cuisine": "Greek"})
            is Maybe.TRUE
        )
        assert (
            rule.applies({"speciality": "Mughalai"}, {"cuisine": "Indian"})
            is Maybe.FALSE
        )

    def test_must_involve_both_entities(self):
        with pytest.raises(MalformedRuleError):
            DistinctnessRule(
                [Predicate(attr1("a"), Comparator.EQ, lit("x"))]
            )

    def test_null_is_unknown(self):
        rule = self._r3()
        assert (
            rule.applies({"speciality": "Mughalai"}, {"cuisine": NULL})
            is Maybe.UNKNOWN
        )


class TestProposition1:
    def test_ilfd_to_distinctness(self):
        ilfd = ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"}, name="I4")
        (rule,) = ilfd_to_distinctness_rules(ilfd)
        assert rule.applies({"speciality": "Mughalai"}, {"cuisine": "Greek"}) is Maybe.TRUE
        assert rule.applies({"speciality": "Mughalai"}, {"cuisine": "Indian"}) is Maybe.FALSE

    def test_round_trip(self):
        ilfd = ILFD({"a": "1", "b": "2"}, {"c": "3"}, name="f")
        (rule,) = ilfd_to_distinctness_rules(ilfd)
        assert distinctness_rule_to_ilfd(rule) == ilfd

    def test_multi_consequent_splits(self):
        ilfd = ILFD({"a": "1"}, {"b": "2", "c": "3"})
        rules = ilfd_to_distinctness_rules(ilfd)
        assert len(rules) == 2

    def test_swapped_orientation_recognised(self):
        rule = DistinctnessRule(
            [
                Predicate(attr2("speciality"), Comparator.EQ, lit("Mughalai")),
                Predicate(attr1("cuisine"), Comparator.NE, lit("Indian")),
            ]
        )
        assert distinctness_rule_to_ilfd(rule) == ILFD(
            {"speciality": "Mughalai"}, {"cuisine": "Indian"}
        )

    def test_non_ilfd_shape_returns_none(self):
        rule = DistinctnessRule(
            [Predicate(attr1("a"), Comparator.LT, attr2("a"))]
        )
        assert distinctness_rule_to_ilfd(rule) is None

    def test_semantic_equivalence_exhaustive(self):
        """Prop 1 semantics on an exhaustive small domain.

        For every pair of tuples over speciality × cuisine, the ILFD's
        distinctness rule fires exactly when assuming e1 ≡ e2 would
        contradict the ILFD.
        """
        ilfd = ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"})
        (rule,) = ilfd_to_distinctness_rules(ilfd)
        specialities = ["Mughalai", "Gyros"]
        cuisines = ["Indian", "Greek"]
        for s1 in specialities:
            for c1 in cuisines:
                for s2 in specialities:
                    for c2 in cuisines:
                        e1 = {"speciality": s1, "cuisine": c1}
                        e2 = {"speciality": s2, "cuisine": c2}
                        fired = rule.applies(e1, e2) is Maybe.TRUE
                        # merged entity = same real-world entity wearing
                        # both tuples' values; contradiction iff e1 is
                        # Mughalai but e2's cuisine isn't Indian
                        contradiction = s1 == "Mughalai" and c2 != "Indian"
                        assert fired == contradiction


class TestRuleEngine:
    def _engine(self):
        identity = extended_key_rule(["name", "cuisine"])
        ilfd = ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"})
        return RuleEngine([identity], ilfd_to_distinctness_rules(ilfd))

    def test_match(self):
        engine = self._engine()
        a = {"name": "x", "cuisine": "Indian", "speciality": "Mughalai"}
        assert engine.classify(a, dict(a)) is MatchStatus.MATCH

    def test_non_match_either_orientation(self):
        engine = self._engine()
        mughalai = {"name": "x", "cuisine": "Indian", "speciality": "Mughalai"}
        greek = {"name": "x", "cuisine": "Greek", "speciality": "Gyros"}
        assert engine.classify(mughalai, greek) is MatchStatus.NON_MATCH
        assert engine.classify(greek, mughalai) is MatchStatus.NON_MATCH

    def test_unknown(self):
        engine = self._engine()
        a = {"name": "x", "cuisine": NULL, "speciality": NULL}
        b = {"name": "x", "cuisine": "Greek", "speciality": "Gyros"}
        assert engine.classify(a, b) is MatchStatus.UNKNOWN

    def test_conflict_raises(self):
        # identity rule on name only; distinctness disagrees
        identity = extended_key_rule(["name"])
        ilfd = ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"})
        engine = RuleEngine([identity], ilfd_to_distinctness_rules(ilfd))
        a = {"name": "x", "speciality": "Mughalai", "cuisine": "Indian"}
        b = {"name": "x", "speciality": "Gyros", "cuisine": "Greek"}
        with pytest.raises(RuleConflictError):
            engine.classify(a, b)

    def test_with_rules_grows_immutably(self):
        engine = self._engine()
        grown = engine.with_rules(identity_rules=[extended_key_rule(["name"])])
        assert len(grown.identity_rules) == 2
        assert len(engine.identity_rules) == 1
