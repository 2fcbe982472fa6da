"""Golden entities: one canonical record per resolved cluster.

Where ``IdentityGraph.integrate`` flattens clusters into one wide
relation, a :class:`GoldenEntity` keeps the entity as a first-class
object: the deterministic canonical id, the survivorship-merged record,
the member identities, and — crucially — every per-attribute
:class:`~repro.entities.survivorship.Decision` that produced the record,
so the persisted resolution log can explain each golden value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence, Tuple

from repro.core.matching_table import key_values
from repro.entities.graph import EntityCluster
from repro.entities.survivorship import Decision, SurvivorshipPolicy, decide_cluster
from repro.relational.row import Row
from repro.store.codec import KeyValues
from repro.store.entity import (
    ENTITY_ID_PREFIX,
    EntityRecord,
    canonical_entity_id,
)

__all__ = ["GoldenEntity", "build_golden"]


@dataclass(frozen=True)
class GoldenEntity:
    """One resolved entity: cluster + canonical record + provenance."""

    entity_id: str
    key: Tuple[Any, ...]
    cluster: EntityCluster
    record: Row
    members: Tuple[Tuple[str, KeyValues], ...]
    decisions: Tuple[Decision, ...]

    @property
    def sources(self) -> Tuple[str, ...]:
        """Source names contributing a member, in member order."""
        return tuple(source for source, _ in self.members)

    def contested_decisions(self) -> Tuple[Decision, ...]:
        """The decisions where sources disagreed."""
        return tuple(d for d in self.decisions if d.contested)

    def to_record(self, ext_key: str) -> EntityRecord:
        """The storage form (:class:`~repro.store.entity.EntityRecord`)."""
        return EntityRecord(
            entity_id=self.entity_id,
            ext_key=ext_key,
            golden=self.record,
            members=self.members,
        )


def build_golden(
    cluster: EntityCluster,
    *,
    attribute_order: Sequence[str],
    source_key_attributes: Mapping[str, Tuple[str, ...]],
    policy: SurvivorshipPolicy,
    prefix: str = ENTITY_ID_PREFIX,
) -> GoldenEntity:
    """Merge one cluster into its golden entity.

    *attribute_order* fixes the record's attribute layout
    (:meth:`IdentityGraph.attribute_order`); *source_key_attributes*
    maps each source to its primary-key attributes so member identities
    — and through them the canonical entity id — are key-based, not
    row-content-based.
    """
    members = tuple(
        (source, key_values(row, source_key_attributes[source]))
        for source, row in cluster.members
    )
    entity_id = canonical_entity_id(members, prefix=prefix)

    decisions = decide_cluster(
        cluster.members, [key for _, key in members], attribute_order, policy
    )
    return GoldenEntity(
        entity_id=entity_id,
        key=cluster.key,
        cluster=cluster,
        record=Row({decision.attribute: decision.value for decision in decisions}),
        members=members,
        decisions=decisions,
    )
