"""Differential matrix: every configuration computes the same tables."""

import pytest

from repro.conformance import differential
from repro.conformance import (
    CanonicalTables,
    ConfigCell,
    ConformanceError,
    compare_with_prototype,
    diff_journals,
    full_matrix,
    pruning_cells,
    reference_tables,
    run_cell,
    run_matrix,
    strict_matrix,
)
from repro.resilience import FaultInjector
from repro.workloads import (
    EmployeeWorkloadSpec,
    PublicationWorkloadSpec,
    RestaurantWorkloadSpec,
    employee_workload,
    publication_workload,
    restaurant_workload,
)

WORKLOADS = {
    "restaurants": lambda n, seed: restaurant_workload(
        RestaurantWorkloadSpec(n_entities=n, seed=seed)
    ),
    "employees": lambda n, seed: employee_workload(
        EmployeeWorkloadSpec(n_entities=n, seed=seed)
    ),
    "publications": lambda n, seed: publication_workload(
        PublicationWorkloadSpec(n_entities=n, seed=seed)
    ),
}


STRICT_CELLS = [
    "default-serial-memory",
    "cross-serial-memory",
    "default-serial-sqlite",
    "cross-serial-sqlite",
    "default-resume-memory",
    "cross-resume-sqlite",
    "cross-serial-sqlite-commitfault",
    "serving-ingest-sqlite",
    "entities-graph",
    "serving-chaos-sqlite",
]


class TestMatrixDefinitions:
    def test_strict_matrix_pins_its_ten_cells(self):
        cells = strict_matrix()
        assert all(cell.strict for cell in cells)
        assert [cell.name for cell in cells] == STRICT_CELLS

    def test_matrix_covers_every_dimension(self):
        cells = full_matrix()
        assert {c.blocker for c in cells} == {None, "cross", "hash"}
        assert {c.store for c in cells} == {"memory", "sqlite"}
        assert any(c.resume for c in cells)
        assert any(c.faults for c in cells)

    def test_pruning_cells_are_not_strict(self):
        assert all(not cell.strict for cell in pruning_cells())


@pytest.mark.parametrize("family", sorted(WORKLOADS))
class TestStrictMatrix:
    """Acceptance: every strict cell bit-identical on >= 3 workloads."""

    def test_all_strict_cells_agree(self, family):
        workload = WORKLOADS[family](10, 3)
        report = run_matrix(
            workload, strict_matrix(), name=family, include_prototype=True
        )
        assert report.is_green, report.summary()
        assert [outcome.name for outcome in report.outcomes] == STRICT_CELLS
        assert report.prototype_agrees is True
        baseline = report.baseline.tables
        for outcome in report.outcomes:
            assert outcome.tables == baseline
            assert outcome.sound
            assert outcome.resume_consistent


class TestFullMatrix:
    def test_pruning_cells_agree_on_matching_table(self):
        workload = WORKLOADS["restaurants"](10, 3)
        report = run_matrix(workload, full_matrix(), name="restaurants")
        assert report.is_green, report.summary()
        baseline = report.baseline.tables
        for outcome in report.outcomes:
            assert outcome.tables.mt == baseline.mt
            if not outcome.cell.strict:
                assert set(outcome.tables.nmt) <= set(baseline.nmt)

    @pytest.mark.slow
    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_full_matrix_at_scale(self, family):
        workload = WORKLOADS[family](30, 7)
        report = run_matrix(
            workload, full_matrix(), name=family, include_prototype=True
        )
        assert report.is_green, report.summary()


class TestRunCell:
    def test_cold_cell_outcome(self):
        workload = WORKLOADS["restaurants"](8, 3)
        outcome = run_cell(workload, ConfigCell("default-serial-memory"))
        assert outcome.name == "default-serial-memory"
        assert outcome.sound
        assert outcome.journal, "journal summary must not be empty"
        kinds = {kind for kind, _, _, _ in outcome.journal}
        assert "identity" in kinds

    def test_resume_cell_is_consistent(self):
        workload = WORKLOADS["restaurants"](8, 3)
        outcome = run_cell(
            workload, ConfigCell("resume", resume=True, store="sqlite")
        )
        assert outcome.resume_consistent
        assert outcome.sound

    def test_fault_cell_recovers_to_identical_tables(self, monkeypatch):
        injectors = []

        def recording_injector(plan, **kwargs):
            injectors.append(FaultInjector(plan, **kwargs))
            return injectors[-1]

        monkeypatch.setattr(differential, "FaultInjector", recording_injector)
        workload = WORKLOADS["restaurants"](8, 3)
        clean = run_cell(workload, ConfigCell("clean", blocker="cross"))
        # Commit #1 is the negative table, the pair executor's store
        # write, which the cell's retry policy retries.
        faulted = run_cell(
            workload,
            ConfigCell("faulted", blocker="cross", faults="store.commit:error@1"),
        )
        assert faulted.tables == clean.tables
        (injector,) = injectors
        assert [str(spec) for spec in injector.fired] == ["store.commit:error@1"]

    def test_unknown_store_kind_raises(self):
        workload = WORKLOADS["restaurants"](6, 3)
        with pytest.raises(ConformanceError):
            run_cell(workload, ConfigCell("bad", store="parquet"))


class TestRunMatrixValidation:
    def test_empty_matrix_rejected(self):
        workload = WORKLOADS["restaurants"](6, 3)
        with pytest.raises(ConformanceError):
            run_matrix(workload, [])

    def test_non_strict_baseline_rejected(self):
        workload = WORKLOADS["restaurants"](6, 3)
        with pytest.raises(ConformanceError):
            run_matrix(
                workload,
                [ConfigCell("hash-first", blocker="hash", strict=False)],
            )

    def test_mismatch_reporting(self):
        """Cells run on different inputs must be flagged, with diffs."""
        small = WORKLOADS["restaurants"](6, 3)
        large = WORKLOADS["restaurants"](10, 3)
        small_outcome = run_cell(small, ConfigCell("baseline"))
        large_outcome = run_cell(large, ConfigCell("other"))
        from repro.conformance.differential import _compare

        mismatch = _compare(small_outcome, large_outcome)
        assert mismatch is not None
        assert mismatch.cell == "other"
        assert mismatch.mt_diff["only_b"] or mismatch.nmt_diff["only_b"]
        assert "differs" in mismatch.summary()
        # Journals are diffed alongside the tables.
        assert (
            mismatch.journal_diff["only_a"] or mismatch.journal_diff["only_b"]
        )

    def test_metrics_emitted(self):
        from repro.observability import Tracer

        workload = WORKLOADS["restaurants"](6, 3)
        tracer = Tracer()
        run_matrix(
            workload,
            [ConfigCell("a"), ConfigCell("b", blocker="cross")],
            tracer=tracer,
        )
        assert tracer.metrics.counter("conformance.cells") == 2
        assert tracer.metrics.counter("conformance.cell_mismatches") == 0

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_baseline_equals_reference_tables(self, family):
        workload = WORKLOADS[family](10, 3)
        outcome = run_cell(workload, ConfigCell("default-serial-memory"))
        assert reference_tables(workload) == outcome.tables
        report = run_matrix(workload, [outcome.cell])
        assert report.reference_agrees is True
        assert "reference tables: agree" in report.summary()

    def test_reference_disagreement_fails_the_matrix(self, monkeypatch):
        import repro.conformance.differential as differential

        workload = WORKLOADS["restaurants"](6, 3)
        reference = reference_tables(workload)
        wrong = CanonicalTables(mt=reference.mt[1:], nmt=reference.nmt)
        monkeypatch.setattr(
            differential, "reference_tables", lambda _workload: wrong
        )
        report = run_matrix(workload, [ConfigCell("baseline")])
        assert not report.mismatches
        assert report.reference_agrees is False
        assert not report.is_green
        assert "reference tables: DISAGREE" in report.summary()

    def test_summary_names_baseline_and_fingerprints(self):
        workload = WORKLOADS["restaurants"](6, 3)
        report = run_matrix(workload, [ConfigCell("only-cell")], name="r")
        text = report.summary()
        assert "only-cell" in text
        assert "MT" in text and "NMT" in text


class TestJournalDiff:
    def test_equal_journals_diff_empty(self):
        journal = (("identity", "k_ext", "[]", "[]"),)
        assert diff_journals(journal, journal) == {
            "only_a": [],
            "only_b": [],
        }

    def test_differing_journals_named_both_ways(self):
        a = (("identity", "k_ext", "[1]", "[1]"),)
        b = (("distinctness", "dual", "[2]", "[2]"),)
        diff = diff_journals(a, b)
        assert diff["only_a"] == [a[0]]
        assert diff["only_b"] == [b[0]]


class TestPrototypeComparison:
    def test_prototype_matches_native_engine(self, ):
        workload = WORKLOADS["restaurants"](8, 3)
        native = run_cell(workload, ConfigCell("native"))
        assert compare_with_prototype(workload) == native.tables.mt

    @pytest.mark.slow
    def test_prototype_matches_on_all_families(self):
        for family in sorted(WORKLOADS):
            workload = WORKLOADS[family](12, 5)
            native = run_cell(workload, ConfigCell("native"))
            assert compare_with_prototype(workload) == native.tables.mt, family


class TestEntitiesCell:
    def test_strict_matrix_carries_the_entities_cell(self):
        [cell] = [c for c in strict_matrix() if c.entities]
        assert cell.name == "entities-graph"
        assert cell.store == "sqlite"
        assert cell.strict

    def test_entities_cell_proves_graph_multiway_equivalence(self):
        workload = WORKLOADS["restaurants"](8, 3)
        outcome = run_cell(
            workload, ConfigCell("entities-graph", store="sqlite", entities=True)
        )
        assert outcome.sound
        assert outcome.resume_consistent, (
            "graph clusters, pairwise projections, persisted build, and "
            "/resolve must all agree"
        )

    def test_entities_cell_agrees_with_a_plain_baseline(self):
        workload = WORKLOADS["restaurants"](8, 3)
        baseline = run_cell(workload, ConfigCell("default-serial-memory"))
        entities = run_cell(
            workload, ConfigCell("entities-graph", store="sqlite", entities=True)
        )
        assert entities.tables == baseline.tables
