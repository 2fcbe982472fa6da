"""IdentityGraph: one extended-key grouping ≡ closure of pairwise runs."""

import pytest

from repro.blocking import make_blocker
from repro.conformance import pairwise_reference
from repro.core.errors import ConsistencyError, ExtendedKeyError
from repro.core.identifier import EntityIdentifier
from repro.entities import (
    GraphError,
    IdentityGraph,
    cluster_fingerprint,
)
from repro.observability import Tracer

from tests.entities.conftest import rel


class TestConstruction:
    def test_needs_two_sources(self, example3):
        with pytest.raises(GraphError):
            IdentityGraph({"R": example3.r}, example3.extended_key)

    def test_source_names_in_declaration_order(self, graph):
        assert graph.source_names == ("R", "S", "T")

    def test_source_key_attributes_in_schema_order(self, graph):
        assert graph.source_key_attributes("T") == ("name", "speciality")
        with pytest.raises(GraphError):
            graph.source_key_attributes("nope")

    def test_pair_names_are_all_combinations(self, graph):
        assert graph.pair_names() == [("R", "S"), ("R", "T"), ("S", "T")]


class TestMultiwayEquivalence:
    """The graph's grouping ≡ connected components of pairwise runs, bitwise."""

    def test_clusters_equal_pairwise_components(self, graph, three_sources, example3):
        reference, _ = pairwise_reference(
            three_sources, example3.extended_key, list(example3.ilfds)
        )
        assert cluster_fingerprint(graph.clusters()) == cluster_fingerprint(reference)
        assert graph.fingerprint() == cluster_fingerprint(reference)

    def test_clusters_span_expected_sources(self, graph):
        spans = {c.key[0]: set(c.sources) for c in graph.clusters()}
        assert spans["TwinCities"] == {"R", "S", "T"}
        assert spans["Anjuman"] == {"R", "S", "T"}
        assert spans["It'sGreek"] == {"R", "S"}

    def test_cluster_order_sorted_by_key_text(self, graph):
        keys = [str(c.key) for c in graph.clusters()]
        assert keys == sorted(keys)

    def test_source_order_does_not_change_clusters(self, three_sources, example3):
        forward = IdentityGraph(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        )
        backward = IdentityGraph(
            dict(reversed(list(three_sources.items()))),
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        assert [c.key for c in forward.clusters()] == [
            c.key for c in backward.clusters()
        ]



class TestPairwiseProjections:
    def test_every_projection_matches_fresh_pairwise_run(
        self, graph, three_sources, example3
    ):
        for first, second in graph.pair_names():
            fresh = EntityIdentifier(
                three_sources[first],
                three_sources[second],
                example3.extended_key,
                ilfds=list(example3.ilfds),
            ).matching_table()
            assert graph.pairwise_pairs(first, second) == fresh.pairs(), (
                first,
                second,
            )

    def test_blocked_pair_runs_agree_with_projection(self, three_sources, example3):
        blocked = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            blocker_factory=lambda: make_blocker("hash"),
        )
        for first, second in blocked.pair_names():
            result = blocked.pair_result(first, second)
            assert blocked.pair_identifier(first, second).blocker is not None
            assert result.matching.pairs() == blocked.pairwise_pairs(first, second)

    def test_pair_lookup_symmetric_and_cached(self, graph):
        assert graph.pair_identifier("R", "S") is graph.pair_identifier("S", "R")
        assert graph.pair_result("R", "S") is graph.pair_result("S", "R")

    def test_unknown_pair_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.pairwise_pairs("R", "nope")
        with pytest.raises(GraphError):
            graph.pairwise_pairs("R", "R")
        with pytest.raises(GraphError):
            graph.pair_identifier("R", "R")


class TestSoundness:
    def test_sound_graph(self, graph):
        report = graph.verify()
        assert report.is_sound
        assert report.by_source() == {}
        report.raise_if_unsound()

    def test_duplicate_entity_within_source_reported(self, example3):
        bad = rel(
            ["name", "speciality", "cuisine", "note"],
            [
                ("TwinCities", "Hunan", "Chinese", "a"),
                ("TwinCities", "Hunan", "Chinese", "b"),
            ],
            ("name", "speciality", "note"),
            "Bad",
        )
        graph = IdentityGraph(
            {"R": example3.r, "Bad": bad},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        report = graph.verify()
        assert not report.is_sound
        [violation] = report.violations
        assert violation.source == "Bad"
        assert len(violation.members) == 2
        assert set(report.by_source()) == {"Bad"}
        with pytest.raises(GraphError):
            report.raise_if_unsound()


class TestPairwiseChecks:
    """What a pairwise run rejected, the single grouping still rejects."""

    @staticmethod
    def thai_twincities(name):
        # Stored cuisine contradicts I1 (speciality=Hunan -> cuisine=Chinese).
        return rel(
            ["name", "speciality", "cuisine"],
            [("TwinCities", "Hunan", "Thai")],
            ("name", "speciality"),
            name,
        )

    def test_matched_pair_declared_distinct_raises(self, example3):
        graph = IdentityGraph(
            {"A": self.thai_twincities("A"), "B": self.thai_twincities("B")},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        with pytest.raises(ConsistencyError, match="I1"):
            graph.clusters()
        with pytest.raises(ConsistencyError):
            graph.pairwise_pairs("A", "B")

    def test_same_source_pairs_are_not_checked(self, example3):
        # I7's dual (street=FrontAve. vs county≠Ramsey) fires only between
        # A's two tuples: a uniqueness breach, not a consistency one — no
        # pairwise run ever compares two tuples of one source.
        a = rel(
            ["name", "street", "county"],
            [("Zorba", "FrontAve.", "Ramsey"), ("Zorba", "Elm", "Hennepin")],
            ("name", "street"),
            "A",
        )
        b = rel(["name", "county"], [("Zorba", "Ramsey")], ("name",), "B")
        graph = IdentityGraph(
            {"A": a, "B": b}, ["name"], ilfds=list(example3.ilfds)
        )
        [cluster] = graph.clusters()
        assert cluster.sources == ("A", "A", "B")
        assert set(graph.verify().by_source()) == {"A"}

    def test_unusable_extended_key_raises(self, three_sources, example3):
        graph = IdentityGraph(
            three_sources, ["name", "nope"], ilfds=list(example3.ilfds)
        )
        with pytest.raises(ExtendedKeyError, match="nope"):
            graph.clusters()


class TestObservability:
    def test_metrics_emitted(self, three_sources, example3):
        tracer = Tracer()
        graph = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        clusters = graph.clusters()
        metrics = tracer.metrics
        assert metrics.counter("entities.sources") == 3
        assert metrics.counter("entities.pairwise_runs") == 0
        assert metrics.counter("entities.clusters") == len(clusters)
        assert metrics.counter("entities.members") == sum(
            len(c) for c in clusters
        )
        assert metrics.counter("ilfd.rows_extended") == sum(
            len(relation) for relation in three_sources.values()
        )
        assert metrics.counter("ilfd.firings") > 0

    def test_spans_cover_the_phases(self, three_sources, example3):
        tracer = Tracer()
        IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        ).clusters()
        names = {span.name for span in tracer.spans()}
        assert {"entities.extend", "entities.closure"} <= names
        assert not {name for name in names if name.startswith("multiway.")}
        assert not {name for name in names if name.startswith("identify.")}
        assert "entities.pairwise" not in names

    def test_pair_result_is_the_only_pairwise_run(self, three_sources, example3):
        tracer = Tracer()
        graph = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        graph.pair_result("R", "S")
        assert tracer.metrics.counter("entities.pairwise_runs") == 1
