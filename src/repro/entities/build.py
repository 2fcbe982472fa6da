"""Build a persisted entity store from an identity graph.

One transactional pass turns a resolved :class:`IdentityGraph` into a
durable artifact the serving layer can answer ``/resolve`` from with no
sources loaded:

- the source-side vocabulary (``MatchStore.set_sides``) and every
  extended tuple, per source, indexed by extended key,
- one :class:`~repro.store.entity.EntityRecord` per cluster (golden
  record, member identities, deterministic canonical id),
- the ``entity_resolution_log``: a journaled ``golden`` event per
  entity, a ``decision`` event per survivorship pick, and a
  ``violation`` event per generalized-uniqueness breach,
- metadata enough to audit the build offline — source names, schemas
  and key attributes per source, survivorship chain, and a canonical
  fingerprint a reload can be checked against
  (:func:`verify_entity_store`).

Because canonical ids hash member identities and the journal is
append-only, rebuilding from the same sources produces bit-identical
entities — the stability the conformance cell and the store round-trip
tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.matching_table import key_values
from repro.entities.errors import EntityBuildError
from repro.entities.golden import GoldenEntity, build_golden
from repro.entities.graph import IdentityGraph
from repro.entities.survivorship import SurvivorshipPolicy
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.faults import (
    NO_OP_INJECTOR,
    SITE_ENTITY_PERSIST,
    FaultInjector,
)
from repro.store.base import MatchStore
from repro.store.codec import encode_key, encode_row, encode_schema, encode_value
from repro.store.entity import ENTITY_ID_PREFIX, EntityRecord, canonical_entity_id

__all__ = [
    "META_ENTITY_SOURCES",
    "META_ENTITY_PREFIX",
    "META_ENTITY_SURVIVORSHIP",
    "META_ENTITY_FINGERPRINT",
    "META_ENTITY_PROGRESS",
    "DECISION_LOGGING",
    "BuildReport",
    "build_entity_store",
    "load_entities",
    "entities_fingerprint",
    "verify_entity_store",
]

META_ENTITY_SOURCES = "entity_sources"
META_ENTITY_PREFIX = "entity_prefix"
META_ENTITY_SURVIVORSHIP = "entity_survivorship"
META_ENTITY_FINGERPRINT = "entity_fingerprint"
META_ENTITY_PROGRESS = "entity_build_progress"
META_ENTITY_SCHEMA = "entity_schema:"  # + source name
META_ENTITY_KEY = "entity_key_attributes:"  # + source name

DECISION_LOGGING = ("all", "contested", "none")
"""How much of the survivorship trail lands in the journal."""


@dataclass(frozen=True)
class BuildReport:
    """What one entity build produced."""

    sources: Tuple[str, ...]
    entities: int
    members: int
    violations: int
    contested: int
    decisions_logged: int
    fingerprint: str
    survivorship: Tuple[str, ...]

    @property
    def is_sound(self) -> bool:
        """True iff the generalized uniqueness constraint held."""
        return self.violations == 0


def entities_fingerprint(records: Sequence[EntityRecord]) -> str:
    """Canonical SHA-256 over entity records, order-independent.

    Hashes the sorted ``(id, ext key, golden row, members)`` quadruples,
    so a build and its reload fingerprint equal iff the persisted
    entities are bit-identical.
    """
    material = json.dumps(
        sorted(
            [
                record.entity_id,
                record.ext_key,
                encode_row(record.golden),
                [[source, encode_key(key)] for source, key in record.members],
            ]
            for record in records
        ),
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _ext_key_text(attributes: Sequence[str], values: Tuple) -> str:
    """Canonical text of one cluster key (same form the store indexes)."""
    return encode_key(tuple(sorted(zip(attributes, values), key=lambda p: p[0])))


def build_entity_store(
    graph: IdentityGraph,
    store: MatchStore,
    *,
    policy: Optional[SurvivorshipPolicy] = None,
    prefix: str = ENTITY_ID_PREFIX,
    log_decisions: str = "all",
    tracer: Optional[Tracer] = None,
    timestamp: Optional[float] = None,
    batch_size: Optional[int] = None,
    fault_injector: Optional[FaultInjector] = None,
    resume: bool = True,
) -> BuildReport:
    """Resolve *graph* and persist everything into *store*, atomically.

    *log_decisions* bounds the resolution log: ``"all"`` journals every
    survivorship pick, ``"contested"`` only the ones sources disagreed
    on, ``"none"`` only the per-entity ``golden`` events.  Violations
    are always journaled.

    With *batch_size* the persist becomes **crash-safe and resumable**:
    entities land in batches of that many, each batch one transaction
    committed atomically with a progress record
    (:data:`META_ENTITY_PROGRESS`), so a build killed mid-way — even
    SIGKILL mid-transaction — leaves either a fully-committed prefix or
    nothing of the torn batch.  Re-running the same build against the
    same store (*resume* = True, the default) verifies the interrupted
    build targeted the same result (the expected fingerprint is
    recorded up front, every golden id is content-addressed), skips the
    committed prefix, and finishes to the **bit-identical**
    ``entities_fingerprint`` a fault-free run seals.  *fault_injector*
    fires the ``entities.persist`` site before every batch commit — the
    chaos harness's hook.  Without *batch_size* the build is the
    original single transaction.
    """
    if log_decisions not in DECISION_LOGGING:
        raise EntityBuildError(
            f"unknown decision-logging mode {log_decisions!r}; "
            f"expected one of {DECISION_LOGGING}"
        )
    if batch_size is not None and batch_size < 1:
        raise EntityBuildError(f"batch_size must be >= 1, got {batch_size}")
    policy = policy if policy is not None else SurvivorshipPolicy()
    tracer = tracer if tracer is not None else NO_OP_TRACER
    injector = fault_injector if fault_injector is not None else NO_OP_INJECTOR
    now = timestamp if timestamp is not None else time.time()

    names = graph.source_names
    extended = graph.extended()
    key_attrs = list(graph.extended_key.attributes)
    attribute_order = graph.attribute_order()
    source_keys: Dict[str, Tuple[str, ...]] = {
        name: graph.source_key_attributes(name) for name in names
    }

    with tracer.span("entities.build", sources=len(names)):
        clusters = graph.clusters()
        goldens: List[GoldenEntity] = [
            build_golden(
                cluster,
                attribute_order=attribute_order,
                source_key_attributes=source_keys,
                policy=policy,
                prefix=prefix,
            )
            for cluster in clusters
        ]
        report = graph.verify()

        # The whole result is computable before anything is persisted —
        # golden ids are content-addressed and the journal is derived —
        # which is what makes batched resume trivially bit-identical:
        # the expected fingerprint is known up front and every batch is
        # a pure slice of this list.
        records: List[EntityRecord] = [
            golden.to_record(_ext_key_text(key_attrs, golden.key))
            for golden in goldens
        ]
        fingerprint = entities_fingerprint(records)
        contested = sum(
            1
            for golden in goldens
            for decision in golden.decisions
            if decision.contested
        )
        logged = 0

        def persist_setup() -> None:
            store.set_sides(names)
            store.set_extended_key_attributes(tuple(key_attrs))
            store.set_meta(META_ENTITY_SOURCES, json.dumps(list(names)))
            store.set_meta(META_ENTITY_PREFIX, prefix)
            store.set_meta(
                META_ENTITY_SURVIVORSHIP, json.dumps(list(policy.rule_names))
            )
            for name in names:
                store.set_meta(
                    META_ENTITY_SCHEMA + name,
                    encode_schema(extended[name].schema),
                )
                store.set_meta(
                    META_ENTITY_KEY + name, json.dumps(list(source_keys[name]))
                )
                for raw, ext_row in zip(graph.sources[name], extended[name]):
                    store.put_row(
                        name, key_values(ext_row, source_keys[name]), raw, ext_row
                    )

        def persist_entity(golden: GoldenEntity, record: EntityRecord) -> int:
            store.record_entity(
                record,
                rule=",".join(policy.rule_names),
                payload={"key": record.ext_key},
                timestamp=now,
            )
            count = 0
            for decision in golden.decisions:
                if log_decisions == "none" or decision.source is None:
                    continue
                if log_decisions == "contested" and not decision.contested:
                    continue
                store.record_entity_decision(
                    golden.entity_id,
                    rule=decision.rule,
                    payload={
                        "event": "decision",
                        "attribute": decision.attribute,
                        "value": encode_value(decision.value),
                        "source": decision.source,
                        "contested": decision.contested,
                        "considered": [
                            [source, encode_value(value)]
                            for source, value in decision.considered
                        ],
                    },
                    timestamp=now,
                )
                count += 1
            return count

        def count_logged(golden: GoldenEntity) -> int:
            return sum(
                1
                for decision in golden.decisions
                if decision.source is not None
                and log_decisions != "none"
                and (log_decisions != "contested" or decision.contested)
            )

        def persist_violations() -> None:
            ext_text_to_id = {record.ext_key: record.entity_id for record in records}
            for violation in report.violations:
                ext_text = _ext_key_text(key_attrs, violation.key)
                entity_id = ext_text_to_id.get(
                    ext_text,
                    # No cluster spans ≥2 sources here: mint a stable id
                    # from the offending members so the log still has a
                    # durable handle for the breach.
                    canonical_entity_id(
                        [(violation.source, key) for key in violation.members],
                        prefix=prefix,
                    ),
                )
                store.record_entity_decision(
                    entity_id,
                    rule="uniqueness",
                    payload={
                        "event": "violation",
                        "source": violation.source,
                        "count": len(violation.members),
                        "key": ext_text,
                        "members": [encode_key(key) for key in violation.members],
                    },
                    timestamp=now,
                )

        if batch_size is None:
            injector.fire(SITE_ENTITY_PERSIST)
            with store.transaction():
                persist_setup()
                for golden, record in zip(goldens, records):
                    logged += persist_entity(golden, record)
                persist_violations()
                store.set_meta(META_ENTITY_FINGERPRINT, fingerprint)
        else:
            logged = _persist_batched(
                store,
                goldens,
                records,
                fingerprint=fingerprint,
                batch_size=batch_size,
                resume=resume,
                persist_setup=persist_setup,
                persist_entity=persist_entity,
                persist_violations=persist_violations,
                count_logged=count_logged,
                injector=injector,
                tracer=tracer,
            )

    if tracer.enabled:
        tracer.metrics.inc("entities.golden_built", len(records))
        tracer.metrics.inc("entities.decisions_logged", logged)
        if contested:
            tracer.metrics.inc("entities.contested", contested)

    return BuildReport(
        sources=names,
        entities=len(records),
        members=sum(len(record.members) for record in records),
        violations=len(report.violations),
        contested=contested,
        decisions_logged=logged,
        fingerprint=fingerprint,
        survivorship=policy.rule_names,
    )


def _persist_batched(
    store: MatchStore,
    goldens: Sequence[GoldenEntity],
    records: Sequence[EntityRecord],
    *,
    fingerprint: str,
    batch_size: int,
    resume: bool,
    persist_setup,
    persist_entity,
    persist_violations,
    count_logged,
    injector: FaultInjector,
    tracer: Tracer,
) -> int:
    """Crash-safe batched persist; returns the decisions-logged count.

    Invariant: every transaction that lands a batch of entities also
    lands the progress record saying so, so after *any* interruption the
    store holds exactly the entities of batches ``[0, next)`` and
    nothing of a torn one — the property that makes resume reach the
    bit-identical fingerprint (``tests/entities/test_resume.py``).
    """
    total = len(records)
    start = 0
    progress_text = store.get_meta(META_ENTITY_PROGRESS, "") or ""
    if progress_text:
        state = json.loads(progress_text)
        if not resume:
            raise EntityBuildError(
                "an interrupted entity build is in progress "
                f"({state.get('next', 0)}/{state.get('total', '?')} batches "
                "committed); pass resume=True to finish it"
            )
        if state.get("fingerprint") != fingerprint:
            raise EntityBuildError(
                "the interrupted build in this store targeted a different "
                f"result (sealed-ahead fingerprint "
                f"{str(state.get('fingerprint'))[:16]}…, this build "
                f"{fingerprint[:16]}…); rebuild into a fresh store"
            )
        start = int(state.get("next", 0))
        if tracer.enabled:
            tracer.metrics.inc("entities.build_resumes")

    def progress(next_index: int) -> str:
        return json.dumps(
            {"fingerprint": fingerprint, "next": next_index, "total": total},
            separators=(",", ":"),
        )

    if not progress_text:
        injector.fire(SITE_ENTITY_PERSIST)
        with store.transaction():
            persist_setup()
            # Unsealed while building: verify refuses the store until
            # the final batch reseals it.
            store.set_meta(META_ENTITY_FINGERPRINT, "")
            store.set_meta(META_ENTITY_PROGRESS, progress(0))

    # The interrupted run already journaled the committed prefix's
    # decisions; count them (don't re-write) so the report describes
    # the complete build either way.
    logged = sum(count_logged(golden) for golden in goldens[:start])

    for lo in range(start, total, batch_size):
        hi = min(lo + batch_size, total)
        injector.fire(SITE_ENTITY_PERSIST)
        with store.transaction():
            for golden, record in zip(goldens[lo:hi], records[lo:hi]):
                logged += persist_entity(golden, record)
            store.set_meta(META_ENTITY_PROGRESS, progress(hi))

    injector.fire(SITE_ENTITY_PERSIST)
    with store.transaction():
        persist_violations()
        store.set_meta(META_ENTITY_FINGERPRINT, fingerprint)
        store.set_meta(META_ENTITY_PROGRESS, "")
    return logged


def load_entities(store: MatchStore) -> List[EntityRecord]:
    """All persisted canonical entities, in entity-id order."""
    return list(store.entity_items())


def verify_entity_store(store: MatchStore) -> Tuple[int, str]:
    """Audit a persisted entity build: recompute and check its fingerprint.

    Returns ``(entity_count, fingerprint)`` on success; raises
    :class:`EntityBuildError` when the store carries no build or the
    stored entities no longer hash to the fingerprint sealed at build
    time — the entity-layer analogue of ``verify_journal``.
    """
    progress = store.get_meta(META_ENTITY_PROGRESS, "") or ""
    if progress:
        state = json.loads(progress)
        raise EntityBuildError(
            "the store carries an interrupted entity build "
            f"({state.get('next', 0)}/{state.get('total', '?')} entities "
            "committed); re-run the build to finish it before verifying"
        )
    sealed = store.get_meta(META_ENTITY_FINGERPRINT)
    if not sealed:
        raise EntityBuildError(
            "the store carries no entity build (no sealed fingerprint)"
        )
    records = load_entities(store)
    actual = entities_fingerprint(records)
    if actual != sealed:
        raise EntityBuildError(
            "persisted entities do not match the build fingerprint: "
            f"sealed {sealed[:16]}…, recomputed {actual[:16]}…"
        )
    return len(records), actual
