"""build_entity_store: one transactional pass, verifiable forever after."""

import pytest

from repro.entities import (
    DECISION_LOGGING,
    EntityBuildError,
    IdentityGraph,
    build_entity_store,
    entities_fingerprint,
    load_entities,
    make_survivorship,
    verify_entity_store,
)
from repro.entities.build import (
    META_ENTITY_FINGERPRINT,
    META_ENTITY_PREFIX,
    META_ENTITY_SOURCES,
    META_ENTITY_SURVIVORSHIP,
)
from repro.observability import Tracer
from repro.store import MemoryStore, SqliteStore
from repro.store.journal import KIND_ENTITY, explain_entity

from tests.entities.conftest import rel


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return SqliteStore(tmp_path / "entities.sqlite")


@pytest.fixture
def built(graph, store):
    report = build_entity_store(graph, store, timestamp=1000.0)
    return report, store


class TestBuildReport:
    def test_numbers(self, built):
        report, _ = built
        assert report.sources == ("R", "S", "T")
        assert report.entities == 3  # TwinCities, Anjuman, It'sGreek
        assert report.members == 8  # 3 + 3 + 2
        assert report.violations == 0
        assert report.is_sound
        assert report.survivorship == ("source_priority",)

    def test_fingerprint_matches_persisted_entities(self, built):
        report, store = built
        assert report.fingerprint == entities_fingerprint(load_entities(store))

    def test_decisions_logged_bounded_by_entities_times_attributes(self, built):
        report, store = built
        # "all" logs every decided (non-null) attribute of every entity
        assert report.decisions_logged > 0
        decisions = [
            entry
            for entry in store.journal_entries()
            if entry.kind == KIND_ENTITY
            and entry.payload.get("event") == "decision"
        ]
        assert len(decisions) == report.decisions_logged


class TestDeterminism:
    def test_fingerprint_stable_across_rebuilds(self, graph, three_sources, example3):
        first = build_entity_store(graph, MemoryStore(), timestamp=1.0)
        again = IdentityGraph(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        )
        second = build_entity_store(again, MemoryStore(), timestamp=2.0)
        assert first.fingerprint == second.fingerprint

    def test_ids_stable_across_backends(self, graph, three_sources, example3, tmp_path):
        mem = MemoryStore()
        build_entity_store(graph, mem)
        sql = SqliteStore(tmp_path / "again.sqlite")
        again = IdentityGraph(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        )
        build_entity_store(again, sql)
        assert [e.entity_id for e in load_entities(mem)] == [
            e.entity_id for e in load_entities(sql)
        ]


class TestPersistedShape:
    def test_meta_and_sides(self, built):
        _, store = built
        assert store.sides() == ("R", "S", "T")
        assert store.get_meta(META_ENTITY_SOURCES) is not None
        assert store.get_meta(META_ENTITY_PREFIX) == "ent-"
        assert store.get_meta(META_ENTITY_SURVIVORSHIP) is not None
        assert store.get_meta(META_ENTITY_FINGERPRINT) is not None

    def test_counts_include_entities(self, built):
        _, store = built
        assert store.counts()["entities"] == 3

    def test_entities_listed_in_id_order(self, built):
        _, store = built
        ids = [record.entity_id for record in load_entities(store)]
        assert ids == sorted(ids)

    def test_lookup_by_ext_key(self, built):
        _, store = built
        record = load_entities(store)[0]
        assert record.ext_key is not None
        assert store.entity_by_ext_key(record.ext_key).entity_id == record.entity_id

    def test_custom_prefix_round_trips(self, graph):
        store = MemoryStore()
        build_entity_store(graph, store, prefix="rest-")
        assert store.get_meta(META_ENTITY_PREFIX) == "rest-"
        assert all(
            record.entity_id.startswith("rest-")
            for record in load_entities(store)
        )


class TestVerify:
    def test_verify_passes_and_matches_report(self, built):
        report, store = built
        count, fingerprint = verify_entity_store(store)
        assert count == report.entities
        assert fingerprint == report.fingerprint

    def test_empty_store_carries_no_build(self):
        with pytest.raises(EntityBuildError):
            verify_entity_store(MemoryStore())

    def test_tampered_entities_detected(self, built):
        _, store = built
        victim = load_entities(store)[0]
        store.delete_entity(victim.entity_id)
        with pytest.raises(EntityBuildError):
            verify_entity_store(store)

    def test_journal_audit_still_passes(self, built):
        # entity_resolution entries carry no pair keys: replay unaffected
        _, store = built
        store.verify_journal()


class TestDecisionLogging:
    def test_modes_are_ordered_by_verbosity(self, graph):
        logged = {}
        for mode in DECISION_LOGGING:
            store = MemoryStore()
            report = build_entity_store(graph, store, log_decisions=mode)
            logged[mode] = report.decisions_logged
        assert logged["none"] == 0
        assert logged["contested"] <= logged["all"]

    def test_none_still_journals_golden_events(self, graph):
        store = MemoryStore()
        build_entity_store(graph, store, log_decisions="none")
        goldens = [
            entry
            for entry in store.journal_entries()
            if entry.kind == KIND_ENTITY
            and entry.payload.get("event") == "golden"
        ]
        assert len(goldens) == 3

    def test_unknown_mode_rejected(self, graph):
        with pytest.raises(EntityBuildError):
            build_entity_store(graph, MemoryStore(), log_decisions="verbose")

    def test_contested_mode_logs_only_disagreements(self, example3):
        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        graph = IdentityGraph(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        store = MemoryStore()
        report = build_entity_store(graph, store, log_decisions="contested")
        assert report.contested >= 1
        decisions = [
            entry
            for entry in store.journal_entries()
            if entry.kind == KIND_ENTITY
            and entry.payload.get("event") == "decision"
        ]
        assert decisions and all(
            entry.payload["contested"] for entry in decisions
        )


class TestViolations:
    @pytest.fixture
    def unsound_graph(self, example3):
        bad = rel(
            ["name", "speciality", "cuisine", "note"],
            [
                ("TwinCities", "Hunan", "Chinese", "a"),
                ("TwinCities", "Hunan", "Chinese", "b"),
            ],
            ("name", "speciality", "note"),
            "Bad",
        )
        return IdentityGraph(
            {"R": example3.r, "Bad": bad},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )

    def test_violations_reported_and_journaled(self, unsound_graph):
        store = MemoryStore()
        report = build_entity_store(unsound_graph, store)
        assert not report.is_sound
        assert report.violations == 1
        violations = [
            entry
            for entry in store.journal_entries()
            if entry.kind == KIND_ENTITY
            and entry.payload.get("event") == "violation"
        ]
        [entry] = violations
        assert entry.rule == "uniqueness"
        assert entry.payload["source"] == "Bad"
        assert entry.payload["count"] == 2


class TestResolutionLog:
    def test_entity_log_covers_golden_and_decisions(self, built):
        report, store = built
        record = load_entities(store)[0]
        log = store.entity_log(record.entity_id)
        events = [entry.payload.get("event") for entry in log]
        assert events[0] == "golden"
        assert "decision" in events[1:]

    def test_explain_entity_renders_the_story(self, built):
        _, store = built
        record = load_entities(store)[0]
        text = explain_entity(store.journal_entries(), record.entity_id)
        assert record.entity_id in text
        assert "golden record built from" in text
        assert "survived from" in text

    def test_explain_unknown_entity(self, built):
        _, store = built
        text = explain_entity(store.journal_entries(), "ent-ffffffffffffffff")
        assert "never built" in text

    def test_survivorship_spec_respected(self, graph):
        store = MemoryStore()
        report = build_entity_store(
            graph, store, policy=make_survivorship("source_priority:T>S>R")
        )
        assert report.survivorship == ("source_priority",)
        anjuman = next(
            record
            for record in load_entities(store)
            if record.golden["name"] == "Anjuman"
        )
        assert anjuman.golden["phone"] == "555-0202"  # only T carries phone


class TestObservability:
    def test_build_metrics(self, graph):
        tracer = Tracer()
        build_entity_store(graph, MemoryStore(), tracer=tracer)
        assert tracer.metrics.counter("entities.golden_built") == 3
        assert tracer.metrics.counter("entities.decisions_logged") > 0
        assert "entities.build" in {span.name for span in tracer.spans()}

    def test_traced_build_runs_no_pairwise_pipeline(self, three_sources, example3):
        tracer = Tracer()
        graph = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        build_entity_store(graph, MemoryStore(), tracer=tracer)
        names = {span.name for span in tracer.spans()}
        assert tracer.metrics.counter("entities.pairwise_runs") == 0
        assert not {name for name in names if name.startswith("identify.")}
        assert {"entities.closure", "entities.build"} <= names
