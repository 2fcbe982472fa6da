"""The entity-identification core (Sections 3, 4, and 6 of the paper).

This package assembles the substrates into the paper's proposed solution:

- :mod:`repro.core.correspondence` -- semantic attribute equivalences
  between the two source relations (assumed resolved at schema-integration
  time), realised as renamings into a unified namespace,
- :mod:`repro.core.extended_key` -- the extended key ``K_Ext`` and its
  induced identity rule,
- :mod:`repro.core.matching_table` -- matching and negative matching
  tables with the uniqueness and consistency constraints of Section 3.2,
- :mod:`repro.core.identifier` -- :class:`EntityIdentifier`, the Figure-4
  pipeline: extend the sources with NULLs, chase ILFDs, join over the
  extended key, verify soundness,
- :mod:`repro.core.algebra_construction` -- the same construction as pure
  relational-algebra expressions (Section 4.2's equation series),
- :mod:`repro.core.integration` -- the integrated table
  ``T_RS = MT_RS ⋈ R ⟗ S``,
- :mod:`repro.core.soundness` -- soundness verification (the prototype's
  ``verify`` command),
- :mod:`repro.core.monotonicity` -- tracking match/non-match/undetermined
  evolution as semantic knowledge is added (Figure 3).
"""

from repro.core.correspondence import AttributeCorrespondence
from repro.core.errors import (
    ConsistencyError,
    CoreError,
    ExtendedKeyError,
    SoundnessError,
)
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import (
    MatchEntry,
    MatchingTable,
    NegativeMatchingTable,
)
from repro.core.identifier import EntityIdentifier, IdentificationResult
from repro.core.algebra_construction import (
    algebraic_matching_table,
    extend_relation_algebraically,
)
from repro.core.integration import (
    AttributeConflict,
    IntegratedTable,
    PossibleIntraMatch,
    integrate,
)
from repro.core.report import identification_report
from repro.core.explain import MatchExplanation, ValueProvenance, explain_match
from repro.core.soundness import SoundnessReport, verify_soundness
from repro.core.monotonicity import KnowledgeIncrement, MonotonicityTracker
from repro.core.diagnostics import (
    HomonymCandidate,
    homonym_candidates,
)
from repro.rules.engine import MatchStatus

__all__ = [
    "AttributeConflict",
    "AttributeCorrespondence",
    "ConsistencyError",
    "CoreError",
    "HomonymCandidate",
    "EntityIdentifier",
    "ExtendedKey",
    "ExtendedKeyError",
    "IdentificationResult",
    "IntegratedTable",
    "KnowledgeIncrement",
    "MatchEntry",
    "MatchExplanation",
    "MatchStatus",
    "MatchingTable",
    "MonotonicityTracker",
    "NegativeMatchingTable",
    "PossibleIntraMatch",
    "SoundnessError",
    "SoundnessReport",
    "ValueProvenance",
    "algebraic_matching_table",
    "explain_match",
    "extend_relation_algebraically",
    "homonym_candidates",
    "identification_report",
    "integrate",
    "verify_soundness",
]
