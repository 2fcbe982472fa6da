"""Tests for the Section-4.2 algebraic path, T_RS, and monotonicity."""

import pytest

from repro.core.algebra_construction import (
    algebraic_matching_table,
    extend_relation_algebraically,
)
from repro.core.identifier import EntityIdentifier
from repro.core.integration import integrate
from repro.core.monotonicity import KnowledgeIncrement, MonotonicityTracker
from repro.core.soundness import (
    UNSOUND_MESSAGE,
    VERIFIED_MESSAGE,
    verify_soundness,
)
from repro.ilfd.errors import DerivationConflictError
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.ilfd.tables import ILFDTable, partition_into_tables
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class TestAlgebraicConstruction:
    def test_agrees_with_pipeline_on_example3(self, example3):
        pipeline = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).matching_table()
        tables = partition_into_tables(example3.ilfds)
        algebraic = algebraic_matching_table(
            example3.r, example3.s, example3.extended_key, tables
        )
        assert algebraic.pairs() == pipeline.pairs()

    def test_single_pass_misses_chained_derivation(self, example3):
        tables = partition_into_tables(example3.ilfds)
        single = algebraic_matching_table(
            example3.r, example3.s, example3.extended_key, tables, max_rounds=1
        )
        full = algebraic_matching_table(
            example3.r, example3.s, example3.extended_key, tables
        )
        assert len(single) == len(full) - 1  # It'sGreek needs round 2 (I7→I8)
        assert single.pairs() < full.pairs()

    def test_extend_relation_adds_null_columns(self, example3):
        tables = partition_into_tables(example3.ilfds)
        extended = extend_relation_algebraically(
            example3.r, ["speciality"], tables
        )
        assert "speciality" in extended.schema
        by_name = {row["name"] + "/" + row["cuisine"]: row for row in extended}
        assert by_name["TwinCities/Chinese"]["speciality"] == "Hunan"
        assert is_null(by_name["VillageWok/Chinese"]["speciality"])

    def test_intermediate_attributes_projected_away(self, example3):
        tables = partition_into_tables(example3.ilfds)
        extended = extend_relation_algebraically(
            example3.r, ["speciality"], tables
        )
        assert "county" not in extended.schema

    def test_strict_conflict_detection(self):
        schema = Schema(
            [string_attribute("k"), string_attribute("a")], keys=[("k",)]
        )
        relation = Relation(schema, [("1", "x")], name="R")
        tables = [
            ILFDTable(["a"], "b", [("x", "first")]),
            ILFDTable(["k"], "b", [("1", "second")]),
        ]
        with pytest.raises(DerivationConflictError):
            extend_relation_algebraically(relation, ["b"], tables, strict=True)
        relaxed = extend_relation_algebraically(
            relation, ["b"], tables, strict=False
        )
        assert len(relaxed) == 2  # the paper's expressions duplicate the tuple


class TestIntegration:
    def test_trs_row_count(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        integrated = identifier.integrate()
        # 3 matched + 2 unmatched R + 1 unmatched S
        assert len(integrated) == 6

    def test_trs_matched_rows_carry_both_sides(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        integrated = identifier.integrate()
        matched = [
            row
            for row in integrated
            if not is_null(row["r_name"]) and not is_null(row["s_name"])
        ]
        assert len(matched) == 3
        for row in matched:
            assert row["r_name"] == row["s_name"]

    def test_trs_unmatched_padded_with_nulls(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        integrated = identifier.integrate()
        unmatched_r = [row for row in integrated if is_null(row["s_name"])]
        assert {row["r_name"] for row in unmatched_r} == {
            "TwinCities",
            "VillageWok",
        }

    def test_no_conflicts_on_consistent_data(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        assert identifier.integrate().conflicts() == []

    def test_merged_view_coalesces(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        merged = identifier.integrate().merged_view()
        assert "name" in merged.schema and "r_name" not in merged.schema
        assert len(merged) == 6

    def test_conflict_detection(self):
        schema_r = Schema(
            [string_attribute("k"), string_attribute("v")], keys=[("k",)]
        )
        schema_s = Schema(
            [string_attribute("k"), string_attribute("v")], keys=[("k",)]
        )
        r = Relation(schema_r, [("1", "x")], name="R")
        s = Relation(schema_s, [("1", "DIFFERENT")], name="S")
        identifier = EntityIdentifier(r, s, ["k"])
        integrated = identifier.integrate()
        conflicts = integrated.conflicts()
        assert len(conflicts) == 1
        assert conflicts[0].attribute == "v"
        assert conflicts[0].values == (("R", "x"), ("S", "DIFFERENT"))
        assert str(conflicts[0]) == "conflict on 'v': R says 'x', S says 'DIFFERENT'"

    def test_core_exports_the_integration_conflict(self):
        import repro.core
        from repro.core import integration
        from repro.entities import graph

        assert repro.core.__all__.count("AttributeConflict") == 1
        assert repro.core.AttributeConflict is integration.AttributeConflict
        assert graph.AttributeConflict is integration.AttributeConflict


class TestSoundnessReport:
    def test_messages_match_prototype(self, example3):
        sound = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).verify()
        assert str(sound) == VERIFIED_MESSAGE
        unsound = EntityIdentifier(
            example3.r, example3.s, ["name"], ilfds=list(example3.ilfds)
        ).verify()
        assert str(unsound) == UNSOUND_MESSAGE

    def test_report_witnesses(self, example3):
        report = EntityIdentifier(
            example3.r, example3.s, ["name"], ilfds=list(example3.ilfds)
        ).verify()
        assert report.r_violations or report.s_violations


class TestMonotonicity:
    def _tracker(self, example3):
        return MonotonicityTracker(
            example3.r, example3.s, example3.extended_key
        )

    def _increments(self, example3):
        ilfds = {f.name: f for f in example3.ilfds}
        return [
            KnowledgeIncrement.of("family", [ilfds[n] for n in ("I1", "I2", "I3", "I4")]),
            KnowledgeIncrement.of("locations", [ilfds[n] for n in ("I5", "I6")]),
            KnowledgeIncrement.of("county", [ilfds[n] for n in ("I7", "I8")]),
        ]

    def test_snapshot_counts(self, example3):
        snapshots = self._tracker(example3).run(self._increments(example3))
        assert [s.matching_count for s in snapshots] == [0, 0, 2, 3]
        assert snapshots[0].undetermined_count == 20  # 5 × 4 pairs

    def test_monotone(self, example3):
        snapshots = self._tracker(example3).run(self._increments(example3))
        assert MonotonicityTracker.is_monotonic(snapshots)
        assert MonotonicityTracker.violations(snapshots) == []

    def test_undetermined_shrinks(self, example3):
        snapshots = self._tracker(example3).run(self._increments(example3))
        counts = [s.undetermined_count for s in snapshots]
        assert counts == sorted(counts, reverse=True)

    def test_violation_reporting(self):
        from repro.core.monotonicity import Snapshot

        first = Snapshot("a", frozenset({("x", "y")}), frozenset(), 0)
        second = Snapshot("b", frozenset(), frozenset(), 1)
        assert not MonotonicityTracker.is_monotonic([first, second])
        assert MonotonicityTracker.violations([first, second])
