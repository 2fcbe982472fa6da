"""Conformance suite: executable form of the paper's Section-3 contract.

The subsystem has four layers, one per way the contract can be broken:

- :mod:`~repro.conformance.oracles` — standalone checkers for soundness,
  completeness w.r.t. the supplied rules, monotonicity under knowledge
  growth, and the uniqueness/consistency constraints on MT_RS/NMT_RS,
  each returning structured :class:`Violation` reports;
- :mod:`~repro.conformance.differential` — one workload through the full
  configuration matrix (blockers × stores × resume × serving × fault
  schedules, plus the Prolog prototype), asserting bit-identical
  canonical tables and diffing derivation journals on mismatch;
- :mod:`~repro.conformance.metamorphic` — input transformations with
  known output transformations (tuple shuffling, attribute renaming,
  R↔S swap, union split);
- :mod:`~repro.conformance.golden` — frozen workload fingerprints
  committed to the repository, catching unintended semantic drift.

``repro conform`` drives all four from the command line.
"""

from repro.conformance.canonical import (
    CanonicalPair,
    CanonicalTables,
    canonical_pairs,
    canonical_table,
    canonicalise,
    diff_pairs,
    fingerprint_pairs,
)
from repro.conformance.differential import (
    CellMismatch,
    CellOutcome,
    ConfigCell,
    MatrixReport,
    compare_with_prototype,
    diff_journals,
    full_matrix,
    pairwise_reference,
    pruning_cells,
    reference_tables,
    run_cell,
    run_matrix,
    strict_matrix,
)
from repro.conformance.errors import ConformanceError, GoldenCorpusError
from repro.conformance.golden import (
    GOLDEN_WORKLOADS,
    GoldenRecord,
    check_golden,
    golden_record,
    load_golden,
    update_golden,
    write_golden,
)
from repro.conformance.metamorphic import (
    MetamorphicCase,
    MetamorphicOutcome,
    MetamorphicReport,
    default_cases,
    rename_attributes,
    run_metamorphic,
    shuffle_tuples,
    swap_sides,
    union_split,
)
from repro.conformance.oracles import (
    Knowledge,
    TableSnapshot,
    check_completeness,
    check_consistency,
    check_monotonicity,
    check_soundness,
    check_uniqueness,
    monotonicity_snapshots,
    run_oracles,
)
from repro.conformance.violations import (
    ConformanceReport,
    OracleReport,
    Violation,
)
from repro.observability.metrics import register_metric

for _name, _description in (
    ("conformance.cells", "differential-matrix configuration cells executed"),
    ("conformance.cell_mismatches", "cells disagreeing with the baseline tables"),
    ("conformance.oracle_checks", "units examined by the Section-3 oracles"),
    ("conformance.oracle_violations", "oracle counterexamples reported"),
    ("conformance.metamorphic_cases", "metamorphic relations executed"),
    ("conformance.metamorphic_failures", "metamorphic relations that did not hold"),
    ("conformance.golden_drift", "golden-corpus workloads whose fingerprints drifted"),
):
    register_metric(_name, _description)
del _name, _description

__all__ = [
    # canonical
    "CanonicalPair",
    "CanonicalTables",
    "canonical_pairs",
    "canonical_table",
    "canonicalise",
    "diff_pairs",
    "fingerprint_pairs",
    # differential
    "CellMismatch",
    "CellOutcome",
    "ConfigCell",
    "MatrixReport",
    "compare_with_prototype",
    "diff_journals",
    "full_matrix",
    "pairwise_reference",
    "pruning_cells",
    "reference_tables",
    "run_cell",
    "run_matrix",
    "strict_matrix",
    # errors
    "ConformanceError",
    "GoldenCorpusError",
    # golden
    "GOLDEN_WORKLOADS",
    "GoldenRecord",
    "check_golden",
    "golden_record",
    "load_golden",
    "update_golden",
    "write_golden",
    # metamorphic
    "MetamorphicCase",
    "MetamorphicOutcome",
    "MetamorphicReport",
    "default_cases",
    "rename_attributes",
    "run_metamorphic",
    "shuffle_tuples",
    "swap_sides",
    "union_split",
    # oracles
    "Knowledge",
    "TableSnapshot",
    "check_completeness",
    "check_consistency",
    "check_monotonicity",
    "check_soundness",
    "check_uniqueness",
    "monotonicity_snapshots",
    "run_oracles",
    # violations
    "ConformanceReport",
    "OracleReport",
    "Violation",
]
