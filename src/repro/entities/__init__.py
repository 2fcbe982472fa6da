"""``repro.entities`` — N-way resolution: identity graph + golden records.

The paper's machinery is pairwise (one MT_RS per R,S); real
integrations have N sources.  This package generalizes the platform:

- :class:`~repro.entities.graph.IdentityGraph` — the one N-way
  identifier: a group-by on complete extended-key values whose clusters
  are **bit-identical** to the closure of all N·(N−1)/2 pairwise runs
  (the ``entities-graph`` conformance cell proves it against fresh
  pairwise runs), with the pairwise consistency check, the generalized
  uniqueness constraint (≤ 1 tuple per source per cluster) verified via
  structured reports, and a flat integrated table,
- **survivorship** (:mod:`repro.entities.survivorship`) — a pluggable,
  fully attributed first-rule-wins chain (source priority,
  most-complete, longest, newest) deciding every golden value,
- **golden entities** (:mod:`repro.entities.golden`) — canonical
  records with deterministic prefixed ids stable across runs and
  resumes,
- **persistence** (:mod:`repro.entities.build`) — one transactional
  build into any :class:`~repro.store.MatchStore`, journaling a
  per-decision ``entity_resolution_log`` the serving layer returns as
  ``/resolve`` provenance, sealed with a fingerprint reloads are
  audited against.
"""

from __future__ import annotations

from repro.entities.build import (
    DECISION_LOGGING,
    META_ENTITY_FINGERPRINT,
    META_ENTITY_PREFIX,
    META_ENTITY_SOURCES,
    META_ENTITY_SURVIVORSHIP,
    BuildReport,
    build_entity_store,
    entities_fingerprint,
    load_entities,
    verify_entity_store,
)
from repro.entities.errors import (
    EntitiesError,
    EntityBuildError,
    GraphError,
    SurvivorshipError,
)
from repro.entities.golden import GoldenEntity, build_golden
from repro.entities.graph import (
    GraphSoundnessReport,
    IdentityGraph,
    UniquenessViolation,
    cluster_fingerprint,
)
from repro.entities.survivorship import (
    SURVIVORSHIP_RULES,
    Candidate,
    Decision,
    LongestValueRule,
    MostCompleteRule,
    NewestValueRule,
    SourcePriorityRule,
    SurvivorshipPolicy,
    SurvivorshipRule,
    make_survivorship,
)
from repro.observability.metrics import register_metric

__all__ = [
    "BuildReport",
    "Candidate",
    "DECISION_LOGGING",
    "Decision",
    "EntitiesError",
    "EntityBuildError",
    "GoldenEntity",
    "GraphError",
    "GraphSoundnessReport",
    "IdentityGraph",
    "LongestValueRule",
    "META_ENTITY_FINGERPRINT",
    "META_ENTITY_PREFIX",
    "META_ENTITY_SOURCES",
    "META_ENTITY_SURVIVORSHIP",
    "MostCompleteRule",
    "NewestValueRule",
    "SURVIVORSHIP_RULES",
    "SourcePriorityRule",
    "SurvivorshipError",
    "SurvivorshipPolicy",
    "SurvivorshipRule",
    "UniquenessViolation",
    "build_entity_store",
    "build_golden",
    "cluster_fingerprint",
    "entities_fingerprint",
    "load_entities",
    "make_survivorship",
    "verify_entity_store",
]

for _name, _description in (
    ("entities.sources", "sources declared to identity graphs"),
    (
        "entities.pairwise_runs",
        "on-demand pairwise runs (pair_result); resolution itself runs none",
    ),
    ("entities.tuples", "tuples with a complete extended-key value, grouped"),
    ("entities.clusters", "entity clusters produced by the extended-key grouping"),
    ("entities.members", "member tuples across all produced clusters"),
    ("entities.violations", "generalized uniqueness violations detected"),
    ("entities.conflicts", "attribute conflicts between matched sources"),
    ("entities.golden_built", "golden entity records built and persisted"),
    ("entities.decisions_logged", "survivorship decisions journaled"),
    ("entities.contested", "survivorship decisions where sources disagreed"),
    ("entities.build_resumes", "interrupted entity builds resumed to completion"),
):
    register_metric(_name, _description)
del _name, _description
