"""Tests for the noise injectors and conflict detection end to end."""

import random

import pytest

from repro.core.identifier import EntityIdentifier
from repro.entities import IdentityGraph
from repro.relational.nulls import NULL, is_null
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload
from repro.workloads.noise import (
    Corruption,
    NoiseSpec,
    apply_noise,
    corrupt_values,
    drop_values,
    format_drift_values,
    transpose_values,
    typo_values,
)


@pytest.fixture
def workload():
    return restaurant_workload(
        RestaurantWorkloadSpec(n_entities=40, derivable_fraction=1.0, seed=51)
    )


class TestCorruptValues:
    def test_rate_zero_is_identity(self, workload):
        corrupted, log = corrupt_values(workload.s, 0.0, seed=1)
        assert corrupted.row_set == workload.s.row_set
        assert log == []

    def test_rate_one_corrupts_everything_non_key(self, workload):
        corrupted, log = corrupt_values(
            workload.s, 1.0, seed=1, attributes=["county"]
        )
        assert all(row["county"].startswith("~corrupted~") for row in corrupted)
        assert len(log) == len(workload.s)

    def test_keys_never_touched(self, workload):
        corrupted, log = corrupt_values(workload.s, 1.0, seed=1)
        for original, noisy in zip(workload.s, corrupted):
            assert original["name"] == noisy["name"]
            assert original["speciality"] == noisy["speciality"]

    def test_deterministic(self, workload):
        first = corrupt_values(workload.s, 0.5, seed=7)
        second = corrupt_values(workload.s, 0.5, seed=7)
        assert first[0].row_set == second[0].row_set
        assert first[1] == second[1]

    def test_log_entries(self, workload):
        _, log = corrupt_values(workload.s, 0.5, seed=7)
        for entry in log:
            assert isinstance(entry, Corruption)
            assert entry.new_value == f"~corrupted~{entry.old_value}"

    def test_bad_rate(self, workload):
        with pytest.raises(ValueError):
            corrupt_values(workload.s, 1.5)

    def test_no_eligible_attributes(self, workload):
        with pytest.raises(ValueError):
            corrupt_values(workload.s, 0.5, attributes=["name"])  # key attr


class TestDropValues:
    def test_drops_to_null(self, workload):
        sparse, log = drop_values(workload.s, 1.0, seed=3, attributes=["county"])
        assert all(is_null(row["county"]) for row in sparse)
        assert len(log) == len(workload.s)

    def test_missing_data_reduces_recall_not_precision(self, workload):
        """Dropping the county S-column breaks no matching here (county is
        not in the extended key), but dropping R's street kills the
        (name, street) → speciality derivations: recall drops, precision
        stays 1.0 — the paper's soundness-first behaviour under missing
        data."""
        sparse_r, _ = drop_values(workload.r, 1.0, seed=3, attributes=["street"])
        identifier = EntityIdentifier(
            sparse_r,
            workload.s,
            workload.extended_key,
            ilfds=list(workload.ilfds),
            derive_ilfd_distinctness=False,
        )
        pairs = identifier.matching_table().pairs()
        assert pairs <= workload.truth
        assert len(pairs) < len(workload.truth)


class TestCharacterLevelNoise:
    def test_typos_change_exactly_one_edit(self, workload):
        noisy, log = typo_values(
            workload.s, 1.0, seed=5, attributes=["county"]
        )
        assert log
        for entry in log:
            assert entry.kind == "typo"
            assert entry.new_value != entry.old_value
            # substitution keeps the length; deletion shortens by one
            assert len(entry.new_value) in (
                len(entry.old_value), len(entry.old_value) - 1
            )

    def test_transpositions_preserve_the_multiset(self, workload):
        _, log = transpose_values(
            workload.s, 1.0, seed=5, attributes=["county"]
        )
        assert log
        for entry in log:
            assert entry.kind == "transposition"
            assert sorted(entry.new_value) == sorted(entry.old_value)
            assert entry.new_value != entry.old_value

    def test_format_drift_preserves_content(self, workload):
        _, log = format_drift_values(
            workload.s, 1.0, seed=5, attributes=["county"]
        )
        assert log
        for entry in log:
            assert entry.kind == "format-drift"
            normalized_old = "".join(
                ch for ch in entry.old_value.lower() if ch.isalnum()
            )
            normalized_new = "".join(
                ch for ch in entry.new_value.lower() if ch.isalnum()
            )
            assert normalized_old == normalized_new


class TestCorruptionJson:
    def test_round_trip(self):
        entry = Corruption(3, "street", "11 LakeSt.", "11 LakeSt", "typo")
        assert Corruption.from_json(entry.to_json()) == entry

    def test_round_trip_null(self):
        entry = Corruption(0, "county", "Anoka", NULL, "drop")
        restored = Corruption.from_json(entry.to_json())
        assert is_null(restored.new_value)
        assert restored == entry

    def test_json_is_serializable(self):
        import json

        entry = Corruption(0, "county", "Anoka", NULL, "drop")
        payload = json.loads(json.dumps(entry.to_json()))
        assert Corruption.from_json(payload) == entry


class TestSharedRng:
    def test_explicit_rng_is_the_only_randomness_source(self, workload):
        state = random.getstate()
        try:
            random.seed(12345)
            first, _ = typo_values(workload.s, 0.5, seed=9)
            random.seed(54321)
            second, _ = typo_values(workload.s, 0.5, seed=9)
        finally:
            random.setstate(state)
        assert list(first) == list(second)

    def test_rng_threads_across_calls(self, workload):
        rng_a = random.Random(77)
        one, log_one = typo_values(workload.s, 0.3, rng=rng_a)
        two, log_two = drop_values(one, 0.3, rng=rng_a)
        rng_b = random.Random(77)
        one_again, log_one_again = typo_values(workload.s, 0.3, rng=rng_b)
        two_again, log_two_again = drop_values(one_again, 0.3, rng=rng_b)
        assert list(two) == list(two_again)
        assert log_one + log_two == log_one_again + log_two_again

    def test_apply_noise_equals_manual_staging(self, workload):
        spec = NoiseSpec(typo=0.2, drop=0.2, seed=13)
        composed, composed_log = apply_noise(workload.s, spec)
        rng = random.Random(13)
        staged, staged_log_a = typo_values(workload.s, 0.2, rng=rng)
        staged, staged_log_b = drop_values(staged, 0.2, rng=rng)
        assert list(composed) == list(staged)
        assert composed_log == staged_log_a + staged_log_b

    def test_clean_spec_is_identity(self, workload):
        noisy, log = apply_noise(workload.s, NoiseSpec())
        assert NoiseSpec().is_clean
        assert list(noisy) == list(workload.s)
        assert log == []


class TestConflictDetectionEndToEnd:
    def test_corrupted_matches_surface_conflicts(self, workload):
        """Corrupt S's county; identification is untouched (county not in
        K_Ext) but the integrated table reports no conflicts since county
        is S-only; corrupting a *shared-meaning* attribute does."""
        identifier = EntityIdentifier(
            workload.r,
            workload.s,
            workload.extended_key,
            ilfds=list(workload.ilfds),
            derive_ilfd_distinctness=False,
        )
        clean_integrated = identifier.integrate()
        assert clean_integrated.conflicts() == []

    def test_null_out_policy_on_conflicts(self):
        from repro.relational.attribute import string_attribute
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema

        schema = Schema(
            [string_attribute("k"), string_attribute("v")], keys=[("k",)]
        )
        r = Relation(schema, [("1", "good")], name="R")
        s_noisy, _ = corrupt_values(
            Relation(schema, [("1", "good")], name="S"), 1.0, seed=1
        )
        graph = IdentityGraph({"R": r, "S": s_noisy}, ["k"])
        assert len(graph.conflicts()) == 1
        resolved = graph.integrate(on_conflict="null")
        assert len(resolved) == 1
        assert is_null(resolved.rows[0]["v"])
