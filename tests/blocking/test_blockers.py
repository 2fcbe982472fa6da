"""Unit tests for the blocking strategies and CandidatePairs."""

import pytest

from repro.blocking import (
    BLOCKERS,
    BlockingContext,
    BlockingError,
    CrossProductBlocker,
    ExtendedKeyHashBlocker,
    UnknownBlockerError,
    make_blocker,
)
from repro.relational.nulls import NULL

R_ROWS = [
    {"name": "Cafe", "cuisine": "Indian"},
    {"name": "Cafe", "cuisine": NULL},
    {"name": "Diner", "cuisine": "Chinese"},
]
S_ROWS = [
    {"name": "Cafe", "cuisine": "Indian"},
    {"name": "Diner", "cuisine": "Chinese"},
    {"name": "Diner", "cuisine": "Thai"},
    {"name": "Grill", "cuisine": NULL},
]
CONTEXT = BlockingContext.of(["name", "cuisine"])


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(BLOCKERS) == {"cross", "hash"}

    def test_make_blocker(self):
        assert isinstance(make_blocker("hash"), ExtendedKeyHashBlocker)
        assert isinstance(make_blocker("cross"), CrossProductBlocker)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownBlockerError):
            make_blocker("bogus")


class TestCrossProduct:
    def test_full_r_major_order(self):
        candidates = CrossProductBlocker().candidate_pairs(R_ROWS, S_ROWS, CONTEXT)
        assert candidates.pair_list() == [
            (i, j) for i in range(3) for j in range(4)
        ]
        assert candidates.count == 12
        assert candidates.pruned == 0
        assert candidates.reduction_ratio == 0.0

    def test_empty_sides(self):
        candidates = CrossProductBlocker().candidate_pairs([], S_ROWS, CONTEXT)
        assert candidates.count == 0
        assert candidates.reduction_ratio == 0.0


class TestCandidatePairsStream:
    def test_reiterable(self):
        candidates = CrossProductBlocker().candidate_pairs(R_ROWS, S_ROWS, CONTEXT)
        assert list(candidates) == list(candidates)

    def test_stats_payload(self):
        stats = ExtendedKeyHashBlocker().candidate_pairs(
            R_ROWS, S_ROWS, CONTEXT
        ).stats()
        assert stats["blocker"] == "extended-key-hash"
        assert stats["pairs_generated"] + stats["pairs_pruned"] == stats["total_pairs"]
        assert 0.0 <= stats["reduction_ratio"] <= 1.0


class TestExtendedKeyHash:
    def test_exact_equality_pairs_only(self):
        candidates = ExtendedKeyHashBlocker().candidate_pairs(
            R_ROWS, S_ROWS, CONTEXT
        )
        # (0,0): Cafe/Indian both sides; (2,1): Diner/Chinese.  Rows with a
        # NULL key attribute (r1, s3) never block anywhere.
        assert candidates.pair_list() == [(0, 0), (2, 1)]
        assert candidates.pruned == 10

    def test_requires_key_attributes(self):
        with pytest.raises(BlockingError):
            ExtendedKeyHashBlocker().candidate_pairs(
                R_ROWS, S_ROWS, BlockingContext.of([])
            )

    def test_missing_attribute_treated_as_null(self):
        candidates = ExtendedKeyHashBlocker().candidate_pairs(
            [{"name": "Cafe"}], [{"name": "Cafe", "cuisine": "Indian"}], CONTEXT
        )
        assert candidates.count == 0

