"""Tests for identification across more than two databases."""

import pytest

from repro.core.identifier import EntityIdentifier
from repro.entities import GraphError, IdentityGraph
from repro.relational.attribute import string_attribute
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def rel(names, rows, key, name):
    schema = Schema([string_attribute(n) for n in names], keys=[key])
    return Relation(schema, rows, name=name)


@pytest.fixture
def three_sources(example3):
    """Example 3's R and S plus a third database T(name, speciality, phone)."""
    t = rel(
        ["name", "speciality", "phone"],
        [
            ("TwinCities", "Hunan", "555-0101"),
            ("Anjuman", "Mughalai", "555-0202"),
            ("VillageWok", "Cantonese", "555-0303"),
        ],
        ("name", "speciality"),
        "T",
    )
    return {"R": example3.r, "S": example3.s, "T": t}


@pytest.fixture
def graph(three_sources, example3):
    return IdentityGraph(
        three_sources,
        example3.extended_key,
        ilfds=list(example3.ilfds),
    )


class TestClusters:
    def test_cluster_contents(self, graph):
        clusters = graph.clusters()
        by_name = {dict(zip(("name",), c.key[:1]))["name"]: c for c in clusters}
        # keys are (name, cuisine, speciality) value tuples in K_Ext order
        spans = {c.key[0]: set(c.sources) for c in clusters}
        assert spans["TwinCities"] == {"R", "S", "T"}
        assert spans["Anjuman"] == {"R", "S", "T"}
        assert spans["It'sGreek"] == {"R", "S"}

    def test_three_way_cluster_size(self, graph):
        three_way = [c for c in graph.clusters() if len(c) == 3]
        assert len(three_way) == 2  # TwinCities-Hunan and Anjuman-Mughalai

    def test_member_lookup(self, graph):
        cluster = next(c for c in graph.clusters() if c.key[0] == "Anjuman")
        t_row = cluster.member_of("T")
        assert t_row is not None and t_row["phone"] == "555-0202"
        assert cluster.member_of("nope") is None

    def test_soundness(self, graph):
        report = graph.verify()
        assert report.is_sound
        report.raise_if_unsound()

    def test_unsound_source_detected(self, example3):
        # a source with two tuples deriving the same complete K_Ext
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
        assert report.by_source()["Bad"]


class TestPairwiseConsistency:
    def test_rs_projection_matches_entity_identifier(self, graph, example3):
        pairwise = graph.pairwise_pairs("R", "S")
        two_way = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).matching_table()
        assert pairwise == two_way.pairs()

    def test_transitivity_within_clusters(self, graph):
        """If R~S and S~T within a cluster then R~T (equality of K_Ext)."""
        rs = graph.pairwise_pairs("R", "S")
        st = graph.pairwise_pairs("S", "T")
        rt = graph.pairwise_pairs("R", "T")
        s_to_r = {s_key: r_key for r_key, s_key in rs}
        for s_key, t_key in st:
            if s_key in s_to_r:
                assert (s_to_r[s_key], t_key) in rt

    def test_unknown_source_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.pairwise_pairs("R", "nope")


class TestMultiwayIntegration:
    def test_row_count(self, graph, three_sources):
        integrated = graph.integrate()
        total = sum(len(rel) for rel in three_sources.values())
        in_clusters = sum(len(c) for c in graph.clusters())
        expected = len(graph.clusters()) + (total - in_clusters)
        assert len(integrated) == expected

    def test_cluster_rows_coalesce(self, graph):
        integrated = graph.integrate()
        anjuman = [
            row for row in integrated
            if row["name"] == "Anjuman" and row["sources"] == "R,S,T"
        ]
        assert len(anjuman) == 1
        row = anjuman[0]
        assert row["street"] == "LeSalleAve."   # from R
        assert row["county"] == "Mpls."          # from S
        assert row["phone"] == "555-0202"        # from T

    def test_unmatched_rows_padded(self, graph):
        integrated = graph.integrate()
        cantonese = [
            row for row in integrated if row["speciality"] == "Cantonese"
        ]
        assert len(cantonese) == 1
        assert cantonese[0]["sources"] == "T"
        assert is_null(cantonese[0]["street"])

    def test_source_column_collision_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.integrate(source_column="name")


class TestEntityClusterEdgeCases:
    def test_single_source_groups_excluded(self, example3):
        """A K_Ext group whose members all come from one source is no match."""
        lonely = rel(
            ["name", "speciality", "cuisine"],
            [("OnlyHere", "Fusion", "Modern")],
            ("name", "speciality"),
            "L",
        )
        graph = IdentityGraph(
            {"R": example3.r, "L": lonely},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        assert all(
            len(set(c.sources)) >= 2 for c in graph.clusters()
        )
        assert not any(
            c.key[0] == "OnlyHere" for c in graph.clusters()
        )

    def test_member_of_absent_source_is_none(self, graph):
        greek = next(
            c for c in graph.clusters() if c.key[0] == "It'sGreek"
        )
        assert greek.member_of("T") is None
        assert set(greek.sources) == {"R", "S"}

    def test_cluster_ordering_deterministic(self, three_sources, example3):
        """Cluster order is a pure function of the inputs, not dict order."""
        runs = [
            IdentityGraph(
                dict(order),
                example3.extended_key,
                ilfds=list(example3.ilfds),
            ).clusters()
            for order in (
                list(three_sources.items()),
                list(reversed(list(three_sources.items()))),
            )
        ]
        assert [c.key for c in runs[0]] == [c.key for c in runs[1]]
        keys = [str(c.key) for c in runs[0]]
        assert keys == sorted(keys)


class TestConflictPolicies:
    @pytest.fixture
    def disagreeing(self, example3):
        """T disagrees with R on Anjuman's street."""
        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        return IdentityGraph(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )

    def test_conflicts_enumerated(self, disagreeing):
        conflicts = disagreeing.conflicts()
        assert len(conflicts) == 1
        conflict = conflicts[0]
        assert conflict.attribute == "street"
        assert dict(conflict.values) == {"R": "LeSalleAve.", "T": "ElmSt"}

    def test_first_policy_keeps_declaration_order_winner(self, disagreeing):
        integrated = disagreeing.integrate(on_conflict="first")
        row = next(
            r for r in integrated
            if r["name"] == "Anjuman" and "T" in r["sources"]
        )
        assert row["street"] == "LeSalleAve."  # R declared before T

    def test_error_policy_raises_naming_the_conflict(self, disagreeing):
        with pytest.raises(GraphError) as excinfo:
            disagreeing.integrate(on_conflict="error")
        message = str(excinfo.value)
        assert "street" in message and "ElmSt" in message

    def test_null_policy_blanks_contested_attribute(self, disagreeing):
        integrated = disagreeing.integrate(on_conflict="null")
        row = next(
            r for r in integrated
            if r["name"] == "Anjuman" and "T" in r["sources"]
        )
        assert is_null(row["street"])
        assert row["county"] == "Mpls."  # uncontested values survive

    def test_unknown_policy_rejected(self, disagreeing):
        with pytest.raises(GraphError):
            disagreeing.integrate(on_conflict="vote")

    def test_conflict_metrics_emitted(self, example3):
        from repro.observability import Tracer

        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        tracer = Tracer()
        graph = IdentityGraph(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        graph.integrate()
        metrics = tracer.metrics
        assert metrics.counter("entities.sources") == 3
        assert metrics.counter("entities.clusters") >= 1
        assert metrics.counter("entities.conflicts") >= 1


class TestMultiwayMetrics:
    @pytest.fixture
    def traced(self, three_sources, example3):
        from repro.observability import Tracer

        tracer = Tracer()
        graph = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        return graph, tracer.metrics

    def test_conflicts_counted_once(self, example3):
        from repro.observability import Tracer

        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        tracer = Tracer()
        graph = IdentityGraph(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        graph.conflicts()
        graph.integrate()
        graph.integrate(on_conflict="null")
        assert tracer.metrics.counter("entities.conflicts") == len(graph.conflicts())
        assert len(graph.conflicts()) == 1

    def test_clusters_counted_once(self, traced):
        graph, metrics = traced
        graph.clusters()
        graph.conflicts()
        graph.integrate()
        assert metrics.counter("entities.clusters") == len(graph.clusters())

    def test_ilfd_metrics_emitted(self, traced, three_sources):
        graph, metrics = traced
        graph.clusters()
        assert metrics.counter("ilfd.rows_extended") == sum(
            len(relation) for relation in three_sources.values()
        )
        assert metrics.counter("ilfd.firings") > 0

    def test_violations_in_order_of_first_appearance(self, example3):
        # B's Mughalai duplicates come first within B, though R's tuples
        # put the Hunan key first in the shared grouping.
        b = rel(
            ["name", "speciality", "note"],
            [
                ("Anjuman", "Mughalai", "a"),
                ("TwinCities", "Hunan", "b"),
                ("Anjuman", "Mughalai", "c"),
                ("TwinCities", "Hunan", "d"),
            ],
            ("name", "speciality", "note"),
            "B",
        )
        graph = IdentityGraph(
            {"R": example3.r, "B": b},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        assert [v.key[0] for v in graph.verify().by_source()["B"]] == [
            "Anjuman",
            "TwinCities",
        ]
