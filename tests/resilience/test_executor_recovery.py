"""Pair quarantine and store-write retry in PairExecutor."""

import pytest

from repro.blocking import BlockingContext, CrossProductBlocker, PairExecutor
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import key_values
from repro.observability import Tracer
from repro.relational.row import Row
from repro.resilience import (
    SITE_STORE_COMMIT,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
)
from repro.rules.identity import IdentityRule
from repro.rules.predicates import equality_predicate
from repro.store import MemoryStore

KEY = ExtendedKey(["name", "cuisine"])
IDENTITY = (KEY.identity_rule(),)

R_ROWS = [{"name": f"r{i}", "cuisine": "Indian"} for i in range(10)] + [
    {"name": "shared", "cuisine": "Thai"}
]
S_ROWS = [{"name": f"s{i}", "cuisine": "Chinese"} for i in range(10)] + [
    {"name": "shared", "cuisine": "Thai"}
]


def _candidates():
    return CrossProductBlocker().candidate_pairs(
        R_ROWS, S_ROWS, BlockingContext.of(KEY.attributes)
    )


class _PoisonRule(IdentityRule):
    """Raises on one specific pair; classifies every other pair normally."""

    def __init__(self):
        super().__init__(
            [equality_predicate("name"), equality_predicate("cuisine")],
            name="poison",
        )

    def applies(self, row1, row2):
        if row1.get("name") == "r3" and row2.get("name") == "s5":
            raise RuntimeError("poisoned pair")
        return super().applies(row1, row2)


class TestQuarantine:
    def test_poisoned_pair_is_isolated_serially(self):
        tracer = Tracer()
        evaluation = PairExecutor(tracer=tracer).evaluate(
            _candidates(), R_ROWS, S_ROWS, (_PoisonRule(),)
        )
        assert len(evaluation.quarantined) == 1
        (pair, reason) = evaluation.quarantined[0]
        assert pair == (3, 5)
        assert "RuntimeError" in reason
        assert evaluation.degraded
        # Everything else still classified: the identity pair survives.
        assert evaluation.matches == [(10, 10)]
        assert evaluation.unknown == 121 - 1 - 1
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.pairs_quarantined"] == 1


class TestStoreWriteRetry:
    def _keys(self, rows):
        return [key_values(Row(row), KEY.attributes) for row in rows]

    def test_commit_fault_is_retried_to_success(self):
        injector = FaultInjector(FaultPlan.parse(f"{SITE_STORE_COMMIT}@0"))
        store = MemoryStore(fault_injector=injector)
        store.set_key_attributes(KEY.attributes, KEY.attributes)
        PairExecutor(retry_policy=RetryPolicy.fast(3)).evaluate(
            _candidates(),
            R_ROWS,
            S_ROWS,
            IDENTITY,
            store=store,
            r_keys=self._keys(R_ROWS),
            s_keys=self._keys(S_ROWS),
        )
        assert len(store.match_pairs()) == 1
        store.verify_journal()

    def test_commit_fault_without_retry_raises_and_rolls_back(self):
        store = MemoryStore(
            fault_injector=FaultInjector(
                FaultPlan.parse(f"{SITE_STORE_COMMIT}@0")
            )
        )
        store.set_key_attributes(KEY.attributes, KEY.attributes)
        with pytest.raises(InjectedFault):
            PairExecutor().evaluate(
                _candidates(),
                R_ROWS,
                S_ROWS,
                IDENTITY,
                store=store,
                r_keys=self._keys(R_ROWS),
                s_keys=self._keys(S_ROWS),
            )
        assert store.match_pairs() == set()
