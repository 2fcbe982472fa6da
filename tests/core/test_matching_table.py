"""Tests for matching / negative matching tables and their constraints."""

import pytest

from repro.core.errors import ConsistencyError, SoundnessError
from repro.core.matching_table import (
    MatchEntry,
    MatchingTable,
    NegativeMatchingTable,
    build_matching_table,
    check_consistency,
    key_values,
)
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema


def entry(r_name, s_name, r_extra="", s_extra=""):
    r_row = Row({"name": r_name, "cuisine": r_extra})
    s_row = Row({"name": s_name, "speciality": s_extra})
    return MatchEntry(
        r_row,
        s_row,
        key_values(r_row, ["name", "cuisine"]),
        key_values(s_row, ["name", "speciality"]),
    )


def table(entries=()):
    return MatchingTable(
        entries,
        r_key_attributes=("name", "cuisine"),
        s_key_attributes=("name", "speciality"),
    )


class TestMatchingTable:
    def test_add_and_contains(self):
        mt = table([entry("a", "a")])
        assert len(mt) == 1
        e = next(iter(mt))
        assert mt.contains_pair(e.r_key, e.s_key)

    def test_duplicate_pairs_ignored(self):
        mt = table([entry("a", "a"), entry("a", "a")])
        assert len(mt) == 1

    def test_uniqueness_ok(self):
        mt = table([entry("a", "a"), entry("b", "b")])
        assert mt.is_sound()
        mt.verify()

    def test_uniqueness_violation_r_side(self):
        mt = table([entry("a", "x"), entry("a", "y")])
        violations = mt.uniqueness_violations()
        assert len(violations["R"]) == 1 and not violations["S"]
        with pytest.raises(SoundnessError):
            mt.verify()

    def test_uniqueness_violation_s_side(self):
        mt = table([entry("x", "a"), entry("y", "a")])
        violations = mt.uniqueness_violations()
        assert len(violations["S"]) == 1 and not violations["R"]

    def test_to_relation_layout(self):
        mt = table([entry("a", "b", "Chinese", "Hunan")])
        view = mt.to_relation()
        assert view.schema.names == (
            "R.name",
            "R.cuisine",
            "S.name",
            "S.speciality",
        )
        assert view.rows[0]["R.cuisine"] == "Chinese"

    def test_consistency_check(self):
        shared = entry("a", "a")
        mt = table([shared])
        nmt = NegativeMatchingTable(
            [shared],
            r_key_attributes=("name", "cuisine"),
            s_key_attributes=("name", "speciality"),
        )
        with pytest.raises(ConsistencyError):
            check_consistency(mt, nmt)

    def test_consistency_ok_when_disjoint(self):
        mt = table([entry("a", "a")])
        nmt = NegativeMatchingTable(
            [entry("b", "c")],
            r_key_attributes=("name", "cuisine"),
            s_key_attributes=("name", "speciality"),
        )
        check_consistency(mt, nmt)


class TestEntryEqualityAndRepr:
    def test_eq_is_pair_based(self):
        # Same keys, different non-key row payloads: still equal — the
        # entry's identity is the (R key, S key) pair.
        a = MatchEntry(
            Row({"name": "a", "cuisine": "Chinese", "rating": 1}),
            Row({"name": "a", "speciality": "Hunan"}),
            (("cuisine", "Chinese"), ("name", "a")),
            (("name", "a"), ("speciality", "Hunan")),
        )
        b = MatchEntry(
            Row({"name": "a", "cuisine": "Chinese", "rating": 9}),
            Row({"name": "a", "speciality": "Hunan"}),
            (("cuisine", "Chinese"), ("name", "a")),
            (("name", "a"), ("speciality", "Hunan")),
        )
        assert a == b and not (a != b)

    def test_eq_hash_consistency(self):
        a, b = entry("a", "b"), entry("a", "b")
        assert a == b and hash(a) == hash(b)
        c = entry("a", "c")
        assert a != c
        assert len({a, b, c}) == 2

    def test_eq_rejects_other_types(self):
        e = entry("a", "b")
        assert e != "not an entry"
        assert (e == object()) is False

    def test_entries_usable_as_dict_keys(self):
        a, b = entry("a", "b"), entry("a", "b")
        seen = {a: "first"}
        seen[b] = "second"  # same pair → same slot
        assert len(seen) == 1 and seen[a] == "second"

    def test_entry_repr_round_trips_keys(self):
        e = entry("Dragon", "Dragon", "Chinese", "Hunan")
        text = repr(e)
        # Every key attribute and value must be recoverable from the repr.
        for attr, value in e.r_key + e.s_key:
            assert f"{attr}={value!r}" in text
        assert repr(e) == repr(entry("Dragon", "Dragon", "Chinese", "Hunan"))

    def test_equal_entries_have_equal_reprs(self):
        assert repr(entry("a", "b")) == repr(entry("a", "b"))
        assert repr(entry("a", "b")) != repr(entry("a", "c"))

    def test_table_repr_reports_kind_and_size(self):
        mt = table([entry("a", "a"), entry("b", "b")])
        assert repr(mt) == "<MatchingTable with 2 entries>"
        nmt = NegativeMatchingTable()
        assert repr(nmt) == "<NegativeMatchingTable with 0 entries>"

    def test_table_membership_uses_entry_pairs(self):
        mt = table([entry("a", "a")])
        e = next(iter(mt))
        assert e.pair in mt
        assert (e.r_key, (("name", "zz"), ("speciality", ""))) not in mt

    def test_tables_with_equal_entries_compare_equal_pairwise(self):
        left = table([entry("a", "a"), entry("b", "b")])
        right = table([entry("b", "b"), entry("a", "a")])
        assert left.pairs() == right.pairs()
        assert set(left) == set(right)


class TestBuildMatchingTable:
    def _relations(self):
        r = Relation(
            Schema(
                [string_attribute("k"), string_attribute("v")], keys=[("k",)]
            ),
            [("1", "a"), ("2", "b"), {"k": "3", "v": NULL}],
            name="R",
        )
        s = Relation(
            Schema(
                [string_attribute("k2"), string_attribute("v")], keys=[("k2",)]
            ),
            [("x", "a"), ("y", "zz"), {"k2": "z", "v": NULL}],
            name="S",
        )
        return r, s

    def test_non_null_eq_join(self):
        r, s = self._relations()
        mt = build_matching_table(r, s, ["v"], ("k",), ("k2",))
        assert len(mt) == 1
        e = next(iter(mt))
        assert e.r_key == (("k", "1"),) and e.s_key == (("k2", "x"),)

    def test_nulls_never_match(self):
        r, s = self._relations()
        mt = build_matching_table(r, s, ["v"], ("k",), ("k2",))
        assert all(
            dict(e.r_key)["k"] != "3" and dict(e.s_key)["k2"] != "z"
            for e in mt
        )

    def test_key_values_sorted_canonical(self):
        row = Row({"b": 2, "a": 1})
        assert key_values(row, ["b", "a"]) == (("a", 1), ("b", 2))
