"""Tests for PairExecutor: the serial pair kernel."""

from repro.blocking import BlockingContext, CrossProductBlocker, PairExecutor
from repro.core.extended_key import ExtendedKey
from repro.observability import Tracer

KEY = ExtendedKey(["name", "cuisine"])
IDENTITY = (KEY.identity_rule(),)

R_ROWS = [
    {"name": f"r{i}", "cuisine": "Indian"} for i in range(10)
] + [{"name": "shared", "cuisine": "Thai"}]
S_ROWS = [
    {"name": f"s{i}", "cuisine": "Chinese"} for i in range(10)
] + [{"name": "shared", "cuisine": "Thai"}]


def _candidates():
    return CrossProductBlocker().candidate_pairs(
        R_ROWS, S_ROWS, BlockingContext.of(KEY.attributes)
    )


class TestBackends:
    def test_serial_matches_expected(self):
        evaluation = PairExecutor().evaluate(
            _candidates(), R_ROWS, S_ROWS, IDENTITY
        )
        assert evaluation.matches == [(10, 10)]
        assert evaluation.pairs_evaluated == 121

    def test_unknown_counts_residue(self):
        evaluation = PairExecutor().evaluate(
            _candidates(), R_ROWS, S_ROWS, IDENTITY
        )
        assert evaluation.unknown == 121 - 1


class TestMetrics:
    def test_executor_counters_recorded(self):
        tracer = Tracer()
        PairExecutor(tracer=tracer).evaluate(
            _candidates(), R_ROWS, S_ROWS, IDENTITY
        )
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["executor.pairs_evaluated"] == 121
        assert counters["rules.identity_evaluations"] == 121
