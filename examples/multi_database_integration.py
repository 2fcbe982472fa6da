"""Integrating three autonomous databases at once.

The paper's opening sentence allows "two (or more) independently
developed databases"; because extended-key matching is an equality (and
thus transitive), the technique scales to any number of sources without
pairwise reconciliation.  This example integrates Example 3's R and S
with a third database T(name, speciality, phone): entity clusters span
up to all three sources, pairwise projections agree with the two-way
identifier, and the integrated table coalesces each entity's attributes
from every database that models it.

Run:  python examples/multi_database_integration.py
"""

from repro import EntityIdentifier, Relation, Schema, Attribute, format_relation
from repro.entities import IdentityGraph
from repro.workloads import restaurant_example_3


def main() -> None:
    workload = restaurant_example_3()
    t = Relation(
        Schema(
            [Attribute("name"), Attribute("speciality"), Attribute("phone")],
            keys=[("name", "speciality")],
        ),
        [
            ("TwinCities", "Hunan", "555-0101"),
            ("Anjuman", "Mughalai", "555-0202"),
            ("VillageWok", "Cantonese", "555-0303"),
        ],
        name="T",
    )

    graph = IdentityGraph(
        {"R": workload.r, "S": workload.s, "T": t},
        workload.extended_key,
        ilfds=list(workload.ilfds),
    )

    print("entity clusters (tuples sharing complete extended-key values):")
    for cluster in graph.clusters():
        print(f"  {cluster.key}: sources {', '.join(cluster.sources)}")

    report = graph.verify()
    print(f"\ngeneralised uniqueness constraint holds: {report.is_sound}")

    two_way = EntityIdentifier(
        workload.r, workload.s, workload.extended_key, ilfds=list(workload.ilfds)
    ).matching_table()
    agrees = graph.pairwise_pairs("R", "S") == two_way.pairs()
    print(f"R-S projection agrees with the two-way identifier: {agrees}")

    print()
    integrated = graph.integrate()
    print(format_relation(integrated, title="three-way integrated table"))


if __name__ == "__main__":
    main()
