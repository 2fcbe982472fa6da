"""Property-based recall guarantees of the blocking subsystem.

On generated restaurant workloads, for the hash blocker:

- **superset**: the candidate set contains every true match pair the
  exhaustive :class:`CrossProductBlocker` evaluation declares matching,
- hence the blocked matching table equals the cross-product one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    BlockingContext,
    CrossProductBlocker,
    ExtendedKeyHashBlocker,
    PairExecutor,
)
from repro.core.identifier import EntityIdentifier
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload

specs = st.builds(
    RestaurantWorkloadSpec,
    n_entities=st.integers(min_value=5, max_value=40),
    name_pool=st.just(25),
    derivable_fraction=st.floats(min_value=0.0, max_value=1.0),
    overlap=st.floats(min_value=0.0, max_value=0.6),
    r_only=st.floats(min_value=0.0, max_value=0.2),
    s_only=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=10_000),
)

BLOCKER_FACTORIES = [ExtendedKeyHashBlocker]


def _identifier(workload, **kwargs):
    kwargs.setdefault("derive_ilfd_distinctness", False)
    return EntityIdentifier(
        workload.r,
        workload.s,
        workload.extended_key,
        ilfds=list(workload.ilfds),
        **kwargs,
    )


def _true_match_pairs(workload):
    """Index pairs the exhaustive cross-product evaluation matches."""
    identifier = _identifier(workload)
    extended_r, extended_s = identifier.extended_relations()
    r_rows, s_rows = list(extended_r), list(extended_s)
    context = BlockingContext.of(identifier.extended_key.attributes)
    candidates = CrossProductBlocker().block(r_rows, s_rows, context)
    evaluation = PairExecutor().evaluate(
        candidates, r_rows, s_rows, identifier.rules.identity_rules
    )
    return r_rows, s_rows, context, set(evaluation.matches)


@settings(max_examples=20, deadline=None)
@given(spec=specs)
def test_every_blocker_covers_all_true_matches(spec):
    workload = restaurant_workload(spec)
    r_rows, s_rows, context, truth = _true_match_pairs(workload)
    for factory in BLOCKER_FACTORIES:
        blocker = factory()
        candidates = set(blocker.block(r_rows, s_rows, context))
        missed = truth - candidates
        assert not missed, f"{blocker.name} pruned true matches: {missed}"


@settings(max_examples=10, deadline=None)
@given(spec=specs)
def test_blocked_matching_table_equals_cross_product(spec):
    workload = restaurant_workload(spec)
    legacy = _identifier(workload).matching_table().pairs()
    for factory in BLOCKER_FACTORIES:
        blocked = _identifier(workload, blocker=factory()).matching_table().pairs()
        assert blocked == legacy

