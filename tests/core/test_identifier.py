"""Tests for the EntityIdentifier pipeline (the paper's Figure 4)."""

import pytest

from repro.blocking import CrossProductBlocker, ExtendedKeyHashBlocker
from repro.core.correspondence import AttributeCorrespondence
from repro.core.errors import ConsistencyError, CoreError
from repro.core.identifier import EntityIdentifier
from repro.ilfd.derivation import DerivationPolicy
from repro.ilfd.ilfd import ILFD
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.observability import Tracer
from repro.rules.distinctness import DistinctnessRule
from repro.rules.engine import MatchStatus
from repro.rules.identity import extended_key_rule
from repro.rules.predicates import equality_predicate
from repro.workloads import EmployeeWorkloadSpec, employee_workload

BLOCKERS = [None, CrossProductBlocker(), ExtendedKeyHashBlocker()]


def _blocker_id(blocker):
    return "default" if blocker is None else blocker.name


class TestExample2Pipeline:
    """Tables 2–4: extended key {name, cuisine} + the Mughalai ILFD."""

    def _identifier(self, example2):
        return EntityIdentifier(
            example2.r,
            example2.s,
            example2.extended_key,
            ilfds=list(example2.ilfds),
        )

    def test_matching_table_is_table3(self, example2):
        matching = self._identifier(example2).matching_table()
        assert matching.pairs() == example2.truth

    def test_matching_table_view(self, example2):
        view = self._identifier(example2).matching_table().to_relation()
        row = view.rows[0]
        assert row["R.name"] == "TwinCities"
        assert row["R.cuisine"] == "Indian"
        assert row["S.name"] == "TwinCities"

    def test_negative_table_is_table4(self, example2):
        negative = self._identifier(example2).negative_matching_table()
        # exactly the Chinese-TwinCities / Mughalai-TwinCities pair
        assert len(negative) == 1
        e = next(iter(negative))
        assert dict(e.r_key)["cuisine"] == "Chinese"
        assert dict(e.s_key)["speciality"] == "Mughalai"

    def test_soundness_report(self, example2):
        report = self._identifier(example2).verify()
        assert report.is_sound
        assert "verified" in report.message

    def test_run_bundles_counts(self, example2):
        result = self._identifier(example2).run()
        assert result.pair_count == 2
        assert len(result.matching) == 1
        assert len(result.negative) == 1
        assert result.undetermined_count == 0
        assert result.is_complete()


class TestExample3Pipeline:
    def _identifier(self, example3, **kwargs):
        return EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            **kwargs,
        )

    def test_extended_relations_are_table6(self, example3):
        extended_r, extended_s = self._identifier(example3).extended_relations()
        r_rows = {row["name"] + "/" + str(row["cuisine"]): row for row in extended_r}
        assert r_rows["TwinCities/Chinese"]["speciality"] == "Hunan"
        assert is_null(r_rows["TwinCities/Indian"]["speciality"])
        assert r_rows["It'sGreek/Greek"]["speciality"] == "Gyros"
        assert r_rows["Anjuman/Indian"]["speciality"] == "Mughalai"
        assert is_null(r_rows["VillageWok/Chinese"]["speciality"])
        s_rows = {row["name"] + "/" + row["speciality"]: row for row in extended_s}
        assert s_rows["TwinCities/Hunan"]["cuisine"] == "Chinese"
        assert s_rows["TwinCities/Sichuan"]["cuisine"] == "Chinese"
        assert s_rows["It'sGreek/Gyros"]["cuisine"] == "Greek"
        assert s_rows["Anjuman/Mughalai"]["cuisine"] == "Indian"

    def test_matching_table_is_table7(self, example3):
        matching = self._identifier(example3).matching_table()
        assert matching.pairs() == example3.truth
        assert len(matching) == 3

    def test_sound(self, example3):
        assert self._identifier(example3).verify().is_sound

    def test_all_consistent_policy_agrees(self, example3):
        first = self._identifier(example3).matching_table()
        chased = self._identifier(
            example3, policy=DerivationPolicy.ALL_CONSISTENT
        ).matching_table()
        assert first.pairs() == chased.pairs()

    def test_classify_pair(self, example3):
        identifier = self._identifier(example3)
        r_rows = {row["name"] + "/" + row["cuisine"]: row for row in example3.r}
        s_rows = {row["name"] + "/" + row["speciality"]: row for row in example3.s}
        assert (
            identifier.classify_pair(
                r_rows["TwinCities/Chinese"], s_rows["TwinCities/Hunan"]
            )
            is MatchStatus.MATCH
        )
        assert (
            identifier.classify_pair(
                r_rows["TwinCities/Indian"], s_rows["TwinCities/Hunan"]
            )
            is MatchStatus.NON_MATCH
        )
        assert (
            identifier.classify_pair(
                r_rows["VillageWok/Chinese"], s_rows["TwinCities/Sichuan"]
            )
            is MatchStatus.UNKNOWN
        )

    def test_consistency_between_tables(self, example3):
        result = self._identifier(example3).run()
        assert not (result.matching.pairs() & result.negative.pairs())

    def test_without_ilfd_distinctness(self, example3):
        identifier = self._identifier(example3, derive_ilfd_distinctness=False)
        assert len(identifier.negative_matching_table()) == 0


class TestUnsoundKeys:
    def test_name_only_key_is_unsound(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, ["name"], ilfds=list(example3.ilfds)
        )
        report = identifier.verify()
        assert not report.is_sound
        assert "unsound" in report.message
        with pytest.raises(Exception):
            report.raise_if_unsound()

    def test_name_cuisine_key_is_unsound(self, example3):
        # both TwinCities S-tuples derive cuisine=Chinese
        identifier = EntityIdentifier(
            example3.r, example3.s, ["name", "cuisine"], ilfds=list(example3.ilfds)
        )
        assert not identifier.verify().is_sound


    @pytest.mark.parametrize("blocker", BLOCKERS, ids=_blocker_id)
    def test_unsound_key_conflicts_are_reported_not_raised(
        self, example3, blocker
    ):
        # {name} matches pairs the ILFD duals declare distinct; the
        # uniqueness report names the key as the culprit on every blocker.
        identifier = EntityIdentifier(
            example3.r,
            example3.s,
            ["name"],
            ilfds=list(example3.ilfds),
            blocker=blocker,
        )
        result = identifier.run()
        assert not result.report.is_sound
        overlap = result.matching.pairs() & result.negative.pairs()
        assert overlap
        assert result.undetermined_count == (
            result.pair_count
            - len(result.matching.pairs() | result.negative.pairs())
        )


class TestRuleCandidates:
    """The MT is evaluated over the identity rules' own hash joins."""

    WORKLOAD = employee_workload(EmployeeWorkloadSpec(n_entities=30, seed=1))

    def _identifier(self, **kwargs):
        workload = self.WORKLOAD
        return EntityIdentifier(
            workload.r,
            workload.s,
            workload.extended_key,
            ilfds=workload.ilfds,
            **kwargs,
        )

    @pytest.mark.parametrize("blocker", BLOCKERS, ids=_blocker_id)
    def test_extra_identity_rules_match_like_classify_pair(self, blocker):
        identifier = self._identifier(
            identity_rules=[extended_key_rule(["name"])],
            derive_ilfd_distinctness=False,
            blocker=blocker,
        )
        matching = identifier.matching_table()
        r_keys = identifier.r_key_attributes
        s_keys = identifier.s_key_attributes
        expected = {
            (
                tuple((a, r_row[a]) for a in sorted(r_keys)),
                tuple((a, s_row[a]) for a in sorted(s_keys)),
            )
            for r_row in self.WORKLOAD.r
            for s_row in self.WORKLOAD.s
            if identifier.classify_pair(r_row, s_row) is MatchStatus.MATCH
        }
        assert matching.pairs() == expected
        # The name-only rule finds matches the extended key alone misses.
        assert len(matching) > len(self._identifier().matching_table())

    def test_matching_table_evaluates_only_hash_candidates(self):
        tracer = Tracer()
        identifier = self._identifier(tracer=tracer)
        matching = identifier.matching_table()
        evaluated = tracer.metrics.counter("executor.pairs_evaluated")
        # K_Ext alone: every hash candidate is a match.
        assert evaluated == len(matching)
        assert evaluated < len(self.WORKLOAD.r) * len(self.WORKLOAD.s)
        assert tracer.metrics.counter("blocking.pairs_generated") == 0

    @pytest.mark.parametrize("blocker", BLOCKERS, ids=_blocker_id)
    def test_conflict_raises_before_the_store(self, blocker):
        from repro.store.memory import MemoryStore

        store = MemoryStore()
        conflicting = DistinctnessRule(
            [equality_predicate(a) for a in self.WORKLOAD.extended_key],
            name="conflicts-with-identity",
        )
        identifier = self._identifier(
            distinctness_rules=[conflicting], blocker=blocker, store=store
        )
        with pytest.raises(ConsistencyError):
            identifier.matching_table()
        assert store.counts()["matches"] == 0
        assert store.counts()["non_matches"] == 0


class TestCorrespondences:
    def test_local_names_unified(self):
        r = Relation(
            Schema(
                [string_attribute("rname"), string_attribute("rcui")],
                keys=[("rname", "rcui")],
            ),
            [("TwinCities", "Indian")],
            name="R",
        )
        s = Relation(
            Schema(
                [string_attribute("sname"), string_attribute("sspec")],
                keys=[("sname", "sspec")],
            ),
            [("TwinCities", "Mughalai")],
            name="S",
        )
        correspondence = AttributeCorrespondence(
            r_map={"rname": "name", "rcui": "cuisine"},
            s_map={"sname": "name", "sspec": "speciality"},
        )
        identifier = EntityIdentifier(
            r,
            s,
            ["name", "cuisine"],
            ilfds=[ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"})],
            correspondence=correspondence,
        )
        assert len(identifier.matching_table()) == 1


class TestAssertedMatches:
    def test_user_asserted_entry_lands_in_table(self, example3):
        identifier = EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            ilfds=[],  # no ILFDs: nothing matches automatically
            asserted_matches=[
                (
                    {"name": "VillageWok", "cuisine": "Chinese"},
                    {"name": "TwinCities", "speciality": "Sichuan"},
                )
            ],
        )
        matching = identifier.matching_table()
        assert len(matching) == 1

    def test_unknown_assertion_rejected(self, example3):
        identifier = EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            asserted_matches=[({"name": "Nobody"}, {"name": "NoOne"})],
        )
        with pytest.raises(CoreError):
            identifier.matching_table()


class TestIncrementalKnowledge:
    def test_more_ilfds_more_matches(self, example3):
        ilfds = list(example3.ilfds)
        few = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=ilfds[:4]
        ).matching_table()
        all_ = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=ilfds
        ).matching_table()
        assert few.pairs() <= all_.pairs()
        assert len(all_) > len(few)
