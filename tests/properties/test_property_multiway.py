"""Property tests: N-way identification on generated 3-way splits.

For any seeded universe split into three overlapping sources:

- every pairwise projection of the identity-graph clusters equals the
  corresponding two-way EntityIdentifier run,
- every pairwise projection is sound against the split's ground truth,
- cluster membership is transitive by construction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identifier import EntityIdentifier
from repro.entities import IdentityGraph
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
