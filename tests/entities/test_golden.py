"""Golden records: canonical ids, survivorship-merged rows, provenance."""

import pytest

from repro.entities import GoldenEntity, build_golden, make_survivorship
from repro.entities.survivorship import SurvivorshipPolicy
from repro.relational.nulls import is_null
from repro.store.entity import canonical_entity_id


@pytest.fixture
def cluster_tools(graph):
    attribute_order = tuple(graph.attribute_order())
    key_attrs = {
        name: graph.source_key_attributes(name) for name in graph.source_names
    }
    return attribute_order, key_attrs


def golden_for(graph, cluster_tools, key_name, policy=None, prefix="ent-"):
    attribute_order, key_attrs = cluster_tools
    cluster = next(c for c in graph.clusters() if c.key[0] == key_name)
    return build_golden(
        cluster,
        attribute_order=attribute_order,
        source_key_attributes=key_attrs,
        policy=policy or SurvivorshipPolicy(),
        prefix=prefix,
    )


class TestCanonicalIds:
    def test_id_has_prefix_and_hex_tail(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert golden.entity_id.startswith("ent-")
        tail = golden.entity_id[len("ent-"):]
        assert len(tail) == 16
        int(tail, 16)  # hex-decodable

    def test_id_stable_across_rebuilds(self, graph, cluster_tools):
        first = golden_for(graph, cluster_tools, "Anjuman")
        second = golden_for(graph, cluster_tools, "Anjuman")
        assert first.entity_id == second.entity_id

    def test_id_independent_of_member_order(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert canonical_entity_id(golden.members) == canonical_entity_id(
            tuple(reversed(golden.members))
        )

    def test_custom_prefix(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman", prefix="rest-")
        assert golden.entity_id.startswith("rest-")

    def test_distinct_clusters_distinct_ids(self, graph, cluster_tools):
        ids = {
            golden_for(graph, cluster_tools, name).entity_id
            for name in ("Anjuman", "TwinCities", "It'sGreek")
        }
        assert len(ids) == 3


class TestRecordLayout:
    def test_record_follows_attribute_order(self, graph, cluster_tools):
        attribute_order, _ = cluster_tools
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert tuple(golden.record) == attribute_order

    def test_merged_values_come_from_contributing_sources(
        self, graph, cluster_tools
    ):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert golden.record["street"] == "LeSalleAve."  # only R has it
        assert golden.record["county"] == "Mpls."        # only S has it
        assert golden.record["phone"] == "555-0202"      # only T has it

    def test_missing_everywhere_stays_null(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "It'sGreek")  # R+S only
        assert is_null(golden.record["phone"])  # phone lives only in T

    def test_members_and_sources(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert golden.sources == ("R", "S", "T")
        assert all(isinstance(key, tuple) for _, key in golden.members)


class TestDecisions:
    def test_one_decision_per_attribute(self, graph, cluster_tools):
        attribute_order, _ = cluster_tools
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert tuple(d.attribute for d in golden.decisions) == attribute_order

    def test_no_candidates_decision_for_absent_attribute(
        self, graph, cluster_tools
    ):
        golden = golden_for(graph, cluster_tools, "It'sGreek")
        phone = next(d for d in golden.decisions if d.attribute == "phone")
        assert phone.rule == "no_candidates"
        assert phone.source is None

    def test_survivorship_priority_reflected(self, graph, cluster_tools):
        policy = make_survivorship("source_priority:T>S>R")
        golden = golden_for(graph, cluster_tools, "Anjuman", policy=policy)
        name = next(d for d in golden.decisions if d.attribute == "name")
        assert name.source == "T"

    def test_contested_decisions_subset(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        assert set(golden.contested_decisions()) <= set(golden.decisions)
        assert all(d.contested for d in golden.contested_decisions())


class TestToRecord:
    def test_round_trip_shape(self, graph, cluster_tools):
        golden = golden_for(graph, cluster_tools, "Anjuman")
        record = golden.to_record("ext-text")
        assert record.entity_id == golden.entity_id
        assert record.ext_key == "ext-text"
        assert record.golden is golden.record
        assert record.members == golden.members
        assert record.sources == golden.sources
        assert len(record) == len(golden.members)
        assert record.member_keys("T") and record.member_keys("nope") == []
