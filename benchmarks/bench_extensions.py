"""X4–X6 — the extension surface the paper points at.

- **X4 knowledge discovery** (Sections 3.2/7: "knowledge acquisition
  tools"): the miner must rediscover the generating ILFD families of the
  synthetic workloads with precision 1.0 at confidence 1.0, and the key
  suggester must find the paper's extended key.
- **X5 derived-ILFD saturation**: materialising derived ILFDs (the I9
  mechanism) makes the *single-pass* Section-4.2 construction complete —
  trading ILFD-set size for construction rounds.
- **X6 incremental identification** (the paper's "ongoing research"):
  maintaining the matching table under single-tuple inserts must beat a
  from-scratch batch run by a growing factor.
"""

import pytest

from repro.core.algebra_construction import algebraic_matching_table
from repro.core.identifier import EntityIdentifier
from repro.discovery import mine_ilfds, suggest_extended_keys
from repro.discovery.ilfd_miner import as_ilfd_set
from repro.federation import IncrementalIdentifier
from repro.ilfd.saturation import derived_only, saturate
from repro.ilfd.tables import partition_into_tables
from repro.relational.attribute import string_attribute
from repro.relational.relation import Relation, RelationBuilder
from repro.relational.schema import Schema
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload
from repro.workloads.restaurants import SPECIALITY_CUISINE


def _menu_instance(n_rows: int, seed: int = 5) -> Relation:
    """An instance of (id, speciality, cuisine) consistent with Table 8's
    generating family."""
    import random

    rng = random.Random(seed)
    schema = Schema(
        [string_attribute("id"), string_attribute("speciality"),
         string_attribute("cuisine")],
        keys=[("id",)],
    )
    builder = RelationBuilder(schema, name="Menu")
    specialities = sorted(SPECIALITY_CUISINE)
    for index in range(n_rows):
        speciality = rng.choice(specialities)
        builder.add((str(index), speciality, SPECIALITY_CUISINE[speciality]))
    return builder.build()


def test_x4_miner_rediscovers_generating_family(benchmark):
    instance = _menu_instance(500)

    def run():
        return mine_ilfds(
            instance, max_antecedent=1, min_support=2, targets=["cuisine"]
        )

    mined = benchmark(run)
    assert mined, "nothing mined"
    for candidate in mined:
        if candidate.ilfd.antecedent_attributes == {"speciality"}:
            (ante,) = candidate.ilfd.antecedent
            (cons,) = candidate.ilfd.consequent
            # precision 1.0: every mined speciality rule is a true rule
            assert SPECIALITY_CUISINE[ante.value] == cons.value
    mined_pairs = {
        (next(iter(m.ilfd.antecedent)).value, next(iter(m.ilfd.consequent)).value)
        for m in mined
        if m.ilfd.antecedent_attributes == {"speciality"}
    }
    present = {s for s in instance.distinct_values("speciality")}
    expected = {(s, SPECIALITY_CUISINE[s]) for s in present}
    # recall: every family member with support ≥ 2 in the instance is found
    well_supported = {
        pair for pair in expected
        if sum(1 for row in instance if row["speciality"] == pair[0]) >= 2
    }
    assert well_supported <= mined_pairs


def test_x4_key_suggester_finds_papers_key(benchmark, example3):
    def run():
        return suggest_extended_keys(
            example3.r,
            example3.s,
            ["name", "cuisine", "speciality"],
            ilfds=example3.ilfds,
            require_covering=True,
        )

    suggestions = benchmark(run)
    assert [set(s.key) for s in suggestions if s.is_sound] == [
        {"name", "cuisine", "speciality"}
    ]


def test_x5_saturation_completes_single_pass(benchmark, example3):
    def run():
        saturated = saturate(
            example3.ilfds, base_attributes=["name", "cuisine", "street"]
        )
        tables = partition_into_tables(saturated)
        return saturated, algebraic_matching_table(
            example3.r, example3.s, example3.extended_key, tables, max_rounds=1
        )

    saturated, single = benchmark(run)
    pipeline = EntityIdentifier(
        example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
    ).matching_table()
    assert single.pairs() == pipeline.pairs()
    derived = derived_only(example3.ilfds, saturated)
    assert any(f.name == "I7*I8" for f in derived)  # the paper's I9


@pytest.mark.parametrize("n_entities", [100, 400])
def test_x6_incremental_single_insert(benchmark, n_entities):
    workload = restaurant_workload(
        RestaurantWorkloadSpec(
            n_entities=n_entities, name_pool=max(25, n_entities // 2), seed=37
        )
    )
    identifier = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        workload.extended_key,
        ilfds=list(workload.ilfds),
    )
    identifier.load(workload.r, workload.s)
    fresh = {
        "name": "BrandNew",
        "speciality": "PadThai",
        "county": "Ramsey",
    }

    def run():
        delta = identifier.insert_s(fresh)
        identifier.delete_s({"name": "BrandNew", "speciality": "PadThai"})
        return delta

    delta = benchmark(run)
    assert delta.is_empty()  # no matching R tuple exists for it
    assert identifier.verify().is_sound


@pytest.mark.parametrize("n_entities", [50, 200])
def test_x8_sqlite_execution(benchmark, n_entities):
    """X8: the generated-SQL construction on SQLite vs the native result —
    an independent engine validating (and timing) the same algebra."""
    from repro.core.sql_construction import sql_matching_pairs
    from repro.ilfd.tables import partition_into_tables

    workload = restaurant_workload(
        RestaurantWorkloadSpec(
            n_entities=n_entities, name_pool=max(25, n_entities // 2), seed=71
        )
    )
    tables = partition_into_tables(workload.ilfds)

    def run():
        return sql_matching_pairs(
            workload.r, workload.s, workload.extended_key, tables
        )

    sql_pairs = benchmark(run)
    native = EntityIdentifier(
        workload.r,
        workload.s,
        workload.extended_key,
        ilfds=list(workload.ilfds),
        derive_ilfd_distinctness=False,
    ).matching_table()
    assert sql_pairs == native.pairs()


def test_x7_multiway_three_sources(benchmark, example3):
    """X7: three-way identification — clusters span sources, pairwise
    projections agree with the two-way identifier, uniqueness holds."""
    from repro.entities import IdentityGraph
    from repro.relational.attribute import string_attribute
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema

    t = Relation(
        Schema(
            [string_attribute("name"), string_attribute("speciality"),
             string_attribute("phone")],
            keys=[("name", "speciality")],
        ),
        [
            ("TwinCities", "Hunan", "555-0101"),
            ("Anjuman", "Mughalai", "555-0202"),
            ("VillageWok", "Cantonese", "555-0303"),
        ],
        name="T",
    )

    def run():
        graph = IdentityGraph(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        return (
            graph.clusters(),
            graph.verify(),
            graph.pairwise_pairs("R", "S"),
            graph.integrate(),
        )

    clusters, report, rs_pairs, integrated = benchmark(run)
    assert report.is_sound
    assert len([c for c in clusters if len(c) == 3]) == 2
    two_way = EntityIdentifier(
        example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
    ).matching_table()
    assert rs_pairs == two_way.pairs()
    assert len(integrated) == 4 + 2 + 1  # 4 clusters + TwinCities-Indian,
    # VillageWok (R-only) + Sichuan (S-only)... see assertion below
    assert len(integrated) == 7


@pytest.mark.parametrize("n_entities", [100, 400])
def test_x6_batch_rerun_cost(benchmark, n_entities):
    """The comparison point for X6: a full batch run at the same size."""
    workload = restaurant_workload(
        RestaurantWorkloadSpec(
            n_entities=n_entities, name_pool=max(25, n_entities // 2), seed=37
        )
    )

    def run():
        return EntityIdentifier(
            workload.r,
            workload.s,
            workload.extended_key,
            ilfds=list(workload.ilfds),
            derive_ilfd_distinctness=False,
        ).matching_table()

    matching = benchmark(run)
    assert matching.pairs() == workload.truth
