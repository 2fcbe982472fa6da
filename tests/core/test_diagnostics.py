"""Tests for homonym diagnostics and attribute-value conflict resolution."""

import pytest

from repro.core.diagnostics import homonym_candidates
from repro.core.identifier import EntityIdentifier
from repro.entities import GraphError, IdentityGraph, build_golden, make_survivorship
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema


def rel(names, rows, key, name="T"):
    schema = Schema([string_attribute(n) for n in names], keys=[key])
    return Relation(schema, rows, name=name)


class TestHomonymCandidates:
    def test_example3_homonyms(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        matching = identifier.matching_table()
        candidates = homonym_candidates(
            example3.r, example3.s, matching, attributes=["name"]
        )
        # TwinCities appears 2× in R and 2× in S; 4 pairs agree on name,
        # 1 is the true match, so 3 homonym candidates remain for it.
        twincities = [
            c for c in candidates if dict(c.r_key)["name"] == "TwinCities"
        ]
        assert len(twincities) == 3
        for candidate in candidates:
            assert "name" in candidate.agreeing_attributes

    def test_no_common_attributes_no_candidates(self):
        r = rel(["a"], [("1",)], ("a",), "R")
        s = rel(["b"], [("1",)], ("b",), "S")
        identifier = EntityIdentifier(r, s, ["a", "b"])
        assert homonym_candidates(r, s, identifier.matching_table()) == []

    def test_min_agreeing_threshold(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        )
        matching = identifier.matching_table()
        loose = homonym_candidates(
            example3.r, example3.s, matching, attributes=["name"], min_agreeing=1
        )
        tight = homonym_candidates(
            example3.r, example3.s, matching, attributes=["name"], min_agreeing=2
        )
        assert len(tight) == 0 < len(loose)


class TestConflictResolution:
    """The two-source conflict choices, on the identity graph's value merge:
    ``first`` keeps R's value, a ``source_priority:S>R`` chain S's,
    ``null`` blanks it and ``error`` refuses it."""

    def _graph(self, r_value="x", s_value="y"):
        r = rel(["k", "v"], [("1", r_value)], ("k",), "R")
        s = rel(["k", "v"], [("1", s_value)], ("k",), "S")
        return IdentityGraph({"R": r, "S": s}, ["k"])

    def test_prefer_r(self):
        resolved = self._graph().integrate(on_conflict="first")
        assert resolved.rows[0]["v"] == "x"

    def test_prefer_s(self):
        graph = self._graph()
        golden = build_golden(
            graph.clusters()[0],
            attribute_order=graph.attribute_order(),
            source_key_attributes={"R": ("k",), "S": ("k",)},
            policy=make_survivorship("source_priority:S>R"),
        )
        assert golden.record["v"] == "y"

    def test_null_out(self):
        resolved = self._graph().integrate(on_conflict="null")
        assert is_null(resolved.rows[0]["v"])

    def test_strict_raises(self):
        with pytest.raises(GraphError):
            self._graph().integrate(on_conflict="error")

    def test_strict_passes_without_conflicts(self):
        graph = self._graph(r_value="same", s_value="same")
        resolved = graph.integrate(on_conflict="error")
        assert resolved.rows[0]["v"] == "same"

    def test_null_sides_are_not_conflicts(self):
        r = rel(["k", "v"], [("1", "x")], ("k",), "R")
        s_schema = Schema(
            [string_attribute("k"), string_attribute("v")], keys=[("k",)]
        )
        s = Relation(s_schema, [{"k": "1", "v": NULL}], name="S")
        graph = IdentityGraph({"R": r, "S": s}, ["k"])
        assert graph.conflicts() == []
        assert EntityIdentifier(r, s, ["k"]).integrate().conflicts() == []
        resolved = graph.integrate(on_conflict="error")
        assert resolved.rows[0]["v"] == "x"

    def test_conflict_log(self):
        conflicts = self._graph().conflicts()
        assert len(conflicts) == 1
        assert str(conflicts[0]) == "conflict on 'v': R says 'x', S says 'y'"

    def test_default_policy_matches_merged_view(self, example3):
        """On conflict-free data the two-source graph's rows are T_RS's
        merged view plus the provenance column."""
        merged = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).integrate().merged_view()
        graph = IdentityGraph(
            {"R": example3.r, "S": example3.s},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        resolved = graph.integrate()
        assert set(resolved.schema.names) == set(merged.schema.names) | {"sources"}
        assert {
            Row({attr: row[attr] for attr in merged.schema.names}) for row in resolved
        } == set(merged)
