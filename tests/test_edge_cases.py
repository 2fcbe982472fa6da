"""Cross-module edge cases not covered by the per-module suites."""

import pytest

from repro.baselines.evaluation import MatchQuality
from repro.cli import main, parse_ilfd
from repro.core.identifier import EntityIdentifier
from repro.core.monotonicity import KnowledgeIncrement, MonotonicityTracker
from repro.discovery import suggest_extended_keys
from repro.ilfd.closure import closure, conflicting_attributes
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.prolog.engine import Database, PrologEngine
from repro.prolog.terms import Atom, Struct, Var
from repro.relational.attribute import string_attribute
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.identity import extended_key_rule


def rel(names, rows, key, name="T"):
    schema = Schema([string_attribute(n) for n in names], keys=[key])
    return Relation(schema, rows, name=name)


class TestCliErrors:
    def test_missing_file(self, tmp_path, capsys):
        status = main(
            [
                str(tmp_path / "missing.csv"),
                str(tmp_path / "missing2.csv"),
                "--r-key", "a",
                "--s-key", "a",
                "--extended-key", "a",
            ]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("repro identify: ")
        assert "missing.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_inline_ilfd(self):
        with pytest.raises(ValueError):
            parse_ilfd("no arrow here")

    def test_empty_extended_key(self, tmp_path, capsys):
        r = tmp_path / "r.csv"
        r.write_text("a\nx\n")
        s = tmp_path / "s.csv"
        s.write_text("a\nx\n")
        status = main(
            [
                str(r), str(s),
                "--r-key", "a",
                "--s-key", "a",
                "--extended-key", "",
            ]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err == "repro identify: extended key cannot be empty\n"


class TestClosureDiagnostics:
    def test_rounds_counted(self):
        chain = ILFDSet(
            [ILFD({"a": "1"}, {"b": "1"}), ILFD({"b": "1"}, {"c": "1"})]
        )
        result = closure({"a": "1"}, chain)
        assert result.rounds == 2

    def test_conflicting_attributes_rendering(self):
        ilfds = ILFDSet(
            [ILFD({"a": "1"}, {"b": "x"}), ILFD({"c": "1"}, {"b": "y"})]
        )
        result = closure({"a": "1", "c": "1"}, ilfds)
        conflicts = conflicting_attributes(result.symbols)
        assert set(conflicts) == {"b"}
        assert len(conflicts["b"]) == 2


class TestMatchQualityEdges:
    def test_f1_zero_when_nothing_right(self):
        quality = MatchQuality("m", 0, 5, 5, 0)
        assert quality.f1 == 0.0
        assert quality.precision == 0.0
        assert quality.recall == 0.0


class TestMonotonicityWithRules:
    def test_distinctness_rule_increments(self, example3):
        """Increments may carry rules, not just ILFDs."""
        ilfd = next(iter(example3.ilfds))
        rules = ilfd_to_distinctness_rules(ilfd)
        tracker = MonotonicityTracker(
            example3.r, example3.s, example3.extended_key
        )
        snapshots = tracker.run(
            [KnowledgeIncrement.of("rules", distinctness_rules=rules)]
        )
        assert snapshots[1].non_matching_count >= snapshots[0].non_matching_count
        assert MonotonicityTracker.is_monotonic(snapshots)

    def test_identity_rule_increments(self, example3):
        extra = extended_key_rule(["name", "street"])
        tracker = MonotonicityTracker(
            example3.r, example3.s, example3.extended_key
        )
        snapshots = tracker.run(
            [KnowledgeIncrement.of("identity", identity_rules=[extra])]
        )
        assert MonotonicityTracker.is_monotonic(snapshots)


class TestKeySuggesterOptions:
    def test_max_size_limits_search(self, example3):
        suggestions = suggest_extended_keys(
            example3.r,
            example3.s,
            ["name", "cuisine", "speciality"],
            ilfds=example3.ilfds,
            max_size=1,
            include_unsound=True,
        )
        assert all(len(s.key) == 1 for s in suggestions)


class TestPrologEngineEdges:
    def test_print_of_struct(self):
        db = Database()
        engine = PrologEngine(db)
        goal = Struct("print", (Struct("f", (Atom("a"),)),))
        assert list(engine.solve([goal]))
        assert engine.take_output() == "f(a)"

    def test_name_with_non_atom_fails(self):
        db = Database()
        engine = PrologEngine(db)
        goal = Struct("name", (Var("X"), Struct("f", (Atom("a"),))))
        assert not list(engine.solve([goal]))

    def test_take_output_drains(self):
        db = Database()
        engine = PrologEngine(db)
        list(engine.solve([Struct("print", (Atom("hi"),))]))
        assert engine.take_output() == "hi"
        assert engine.take_output() == ""

    def test_bagof_with_unbound_template_var(self):
        db = Database()
        db.consult("p(a, b). p(a, c).")
        engine = PrologEngine(db)
        rows = engine.query("bagof(Y, p(a, Y), L)")
        assert str(rows[0]["L"]) == "[b,c]"


class TestIdentifierEdges:
    def test_empty_sources(self):
        r = Relation(
            Schema([string_attribute("a")], keys=[("a",)]), [], name="R"
        )
        s = Relation(
            Schema([string_attribute("a")], keys=[("a",)]), [], name="S"
        )
        identifier = EntityIdentifier(r, s, ["a"])
        result = identifier.run()
        assert len(result.matching) == 0
        assert result.report.is_sound
        assert result.pair_count == 0
        assert result.is_complete()

    def test_single_attribute_everything(self):
        r = rel(["a"], [("x",)], ("a",), "R")
        s = rel(["a"], [("x",)], ("a",), "S")
        identifier = EntityIdentifier(r, s, ["a"])
        assert len(identifier.matching_table()) == 1
        integrated = identifier.integrate()
        assert len(integrated) == 1

    def test_overlapping_nonkey_attribute_names_merge(self):
        """Same-named non-key attributes are treated as semantically
        equivalent (the unified-namespace contract)."""
        r = rel(["k", "shared"], [("1", "v")], ("k",), "R")
        s = rel(["k2", "shared"], [("x", "v")], ("k2",), "S")
        identifier = EntityIdentifier(r, s, ["shared"])
        assert len(identifier.matching_table()) == 1
