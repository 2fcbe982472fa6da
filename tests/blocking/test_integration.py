"""Blocking wired through the identifier."""

import pytest

from repro.blocking import CrossProductBlocker, ExtendedKeyHashBlocker, PairExecutor
from repro.core.errors import ConsistencyError
from repro.core.identifier import EntityIdentifier
from repro.observability import Tracer
from repro.rules.distinctness import DistinctnessRule
from repro.rules.predicates import equality_predicate
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload

WORKLOAD = restaurant_workload(RestaurantWorkloadSpec(n_entities=50, seed=11))

ALL_BLOCKERS = [CrossProductBlocker(), ExtendedKeyHashBlocker()]


def _identifier(**kwargs):
    return EntityIdentifier(
        WORKLOAD.r,
        WORKLOAD.s,
        WORKLOAD.extended_key,
        ilfds=WORKLOAD.ilfds,
        **kwargs,
    )


class TestIdentifierEquivalence:
    DEFAULT_MT = _identifier().matching_table().pairs()
    DEFAULT_NMT = _identifier().negative_matching_table().pairs()

    @pytest.mark.parametrize("blocker", ALL_BLOCKERS, ids=lambda b: b.name)
    def test_matching_table_identical(self, blocker):
        blocked = _identifier(blocker=blocker).matching_table().pairs()
        assert blocked == self.DEFAULT_MT

    def test_cross_product_negative_table_identical(self):
        blocked = (
            _identifier(blocker=CrossProductBlocker())
            .negative_matching_table()
            .pairs()
        )
        assert blocked == self.DEFAULT_NMT

    @pytest.mark.parametrize(
        "blocker", [ExtendedKeyHashBlocker()], ids=lambda b: b.name
    )
    def test_pruning_blockers_restrict_negative_table(self, blocker):
        blocked = _identifier(blocker=blocker).negative_matching_table().pairs()
        assert blocked <= self.DEFAULT_NMT

    def test_explicit_executor(self):
        executor = PairExecutor()
        identifier = _identifier(blocker=ExtendedKeyHashBlocker(), executor=executor)
        assert identifier.executor is executor
        assert identifier.matching_table().pairs() == self.DEFAULT_MT

    def test_blocking_metrics_flow_to_tracer(self):
        tracer = Tracer()
        _identifier(blocker=ExtendedKeyHashBlocker(), tracer=tracer).run()
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["blocking.pairs_generated"] > 0
        assert counters["blocking.pairs_pruned"] > 0
        # One executor pass per table: the MT pass over the identity
        # rules' hash-join candidates (here exactly the matches), then
        # the NMT pass over the blocker's candidates.
        mt_candidates = len(self.DEFAULT_MT)
        assert counters["executor.pairs_evaluated"] == (
            counters["blocking.pairs_generated"] + mt_candidates
        )

    def test_merge_conflict_surfaces_as_core_error(self):
        conflicting = DistinctnessRule(
            [equality_predicate(attr) for attr in WORKLOAD.extended_key],
            name="conflicts-with-identity",
        )
        identifier = _identifier(
            blocker=ExtendedKeyHashBlocker(),
            distinctness_rules=[conflicting],
            derive_ilfd_distinctness=False,
        )
        with pytest.raises(ConsistencyError):
            identifier.matching_table()

