"""Property tests: N-way identification on generated 3-way splits.

For any seeded universe split into three overlapping sources:

- every pairwise projection of the identity-graph clusters equals the
  corresponding two-way EntityIdentifier run,
- every pairwise projection is sound against the split's ground truth,
- cluster membership is transitive by construction.

On generated three-source inputs whose members disagree, the graph's
value merge — ``integrate`` under each ``on_conflict`` and
``conflicts`` — equals :func:`reference_integrate` /
:func:`reference_conflicts`, a direct per-cluster merge loop kept as an
oracle, and its ``"first"`` matched rows are the golden records of the
empty survivorship chain.
"""

from typing import Any, Dict, List, Tuple

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.identifier import EntityIdentifier
from repro.entities import GraphError, IdentityGraph, SurvivorshipPolicy, build_golden
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.workloads import SideSpec, split_universe_many
from repro.workloads.restaurants import RestaurantWorkloadSpec, _generate_universe

SIDES = [
    SideSpec("A", ("name", "cuisine", "street"), ("name", "cuisine"), 0.7),
    SideSpec("B", ("name", "speciality", "county"), ("name", "speciality"), 0.7),
    SideSpec("C", ("name", "cuisine", "speciality"), ("name", "cuisine"), 0.5),
]


def _build(seed):
    spec = RestaurantWorkloadSpec(
        n_entities=15, name_pool=25, derivable_fraction=1.0, seed=seed
    )
    universe, ilfds = _generate_universe(spec)
    relations, truth = split_universe_many(universe, SIDES, seed=seed)
    return relations, truth, ilfds


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_pairwise_projection_equals_two_way(seed):
    relations, _, ilfds = _build(seed)
    graph = IdentityGraph(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    for first, second in (("A", "B"), ("A", "C"), ("B", "C")):
        two_way = EntityIdentifier(
            relations[first],
            relations[second],
            ("name", "cuisine", "speciality"),
            ilfds=ilfds,
            derive_ilfd_distinctness=False,
        ).matching_table()
        assert graph.pairwise_pairs(first, second) == two_way.pairs()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_pairwise_projection_sound_against_truth(seed):
    relations, truth, ilfds = _build(seed)
    graph = IdentityGraph(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    for (first, second), expected in truth.items():
        declared = graph.pairwise_pairs(first, second)
        assert declared <= expected  # soundness on every source pair


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=3_000))
def test_cluster_transitivity(seed):
    relations, _, ilfds = _build(seed)
    graph = IdentityGraph(
        relations, ("name", "cuisine", "speciality"), ilfds=ilfds
    )
    ab = graph.pairwise_pairs("A", "B")
    bc = graph.pairwise_pairs("B", "C")
    ac = graph.pairwise_pairs("A", "C")
    b_to_a = {}
    for a_key, b_key in ab:
        b_to_a.setdefault(b_key, set()).add(a_key)
    for b_key, c_key in bc:
        for a_key in b_to_a.get(b_key, ()):
            assert (a_key, c_key) in ac


# ----------------------------------------------------------------------
# The value merge against a reference merge loop
# ----------------------------------------------------------------------
def _candidates(cluster) -> Dict[str, List[Tuple[str, Any]]]:
    """Non-NULL candidate values per attribute, in member order."""
    candidates: Dict[str, List[Tuple[str, Any]]] = {}
    for source, row in cluster.members:
        for attr in row:
            if not is_null(row[attr]):
                candidates.setdefault(attr, []).append((source, row[attr]))
    return candidates


def reference_conflicts(graph):
    """``(key, attribute, values)`` of every attribute whose candidates
    hold two distinct values, clusters then attributes in order."""
    out = []
    for cluster in graph.clusters():
        candidates = _candidates(cluster)
        for attr in graph.attribute_order():
            values = candidates.get(attr, [])
            if len({value for _, value in values}) > 1:
                out.append((cluster.key, attr, tuple(values)))
    return out


def reference_integrate(graph, *, on_conflict, source_column="sources"):
    """The integrated rows by a direct merge loop: first non-NULL value
    in member order; blank when contested (``"null"``); raise
    ``GraphError`` when contested (``"error"``)."""
    ordered = graph.attribute_order()
    rows = []
    clustered = set()
    for cluster in graph.clusters():
        clustered.update(row for _, row in cluster.members)
        candidates = _candidates(cluster)
        values = {attr: NULL for attr in ordered}
        for attr in ordered:
            attr_values = candidates.get(attr, [])
            if len({value for _, value in attr_values}) > 1:
                if on_conflict == "error":
                    raise GraphError(
                        f"sources disagree on {attr!r} for entity "
                        f"{cluster.key!r}: "
                        + ", ".join(f"{s}={v!r}" for s, v in attr_values)
                    )
                if on_conflict == "null":
                    continue
            if attr_values:
                values[attr] = attr_values[0][1]
        values[source_column] = ",".join(cluster.sources)
        rows.append(Row(values))
    for name, relation in graph.extended().items():
        for row in relation:
            if row not in clustered:
                values = {attr: NULL for attr in ordered}
                values.update(row)
                values[source_column] = name
                rows.append(Row(values))
    return list(dict.fromkeys(rows))


MERGE_SOURCES = {"A": ("k", "v", "w"), "B": ("k", "v", "u"), "C": ("k", "w", "u")}
_value = st.sampled_from(["x", "y", NULL])


@st.composite
def disagreeing_sources(draw):
    relations = {}
    for name, attrs in MERGE_SOURCES.items():
        keys = draw(st.sets(st.sampled_from(["k0", "k1", "k2", "k3"]), min_size=1))
        rows = [
            {"k": key, **{attr: draw(_value) for attr in attrs[1:]}}
            for key in sorted(keys)
        ]
        schema = Schema([string_attribute(a) for a in attrs], keys=[("k",)])
        relations[name] = Relation(schema, rows, name=name)
    return relations


def _outcome(merge):
    try:
        return "rows", merge()
    except GraphError as error:
        return "error", str(error)


@settings(max_examples=40, deadline=None)
@given(sources=disagreeing_sources())
def test_value_merge_equals_reference(sources):
    graph = IdentityGraph(sources, ("k",))
    expected_conflicts = reference_conflicts(graph)
    assume(expected_conflicts)
    for on_conflict in ("first", "null", "error"):
        assert _outcome(
            lambda: list(graph.integrate(on_conflict=on_conflict))
        ) == _outcome(lambda: reference_integrate(graph, on_conflict=on_conflict))
    assert [
        (conflict.key, conflict.attribute, conflict.values)
        for conflict in graph.conflicts()
    ] == expected_conflicts

    ordered = graph.attribute_order()
    matched = [
        Row({attr: row[attr] for attr in ordered})
        for row in graph.integrate(on_conflict="first")
        if "," in row["sources"]
    ]
    key_attrs = {name: graph.source_key_attributes(name) for name in sources}
    assert matched == [
        build_golden(
            cluster,
            attribute_order=ordered,
            source_key_attributes=key_attrs,
            policy=SurvivorshipPolicy(),
        ).record
        for cluster in graph.clusters()
    ]
