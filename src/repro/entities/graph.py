"""The identity graph: N-way entity identification by one grouping.

The paper opens with "taking two (or more) independently developed
databases" but develops the machinery for two relations.  The
generalisation is direct: a match is equality of complete, non-NULL
extended-key values (§4.1) and equality is transitive, so entities are
the groups of tuples, across all sources, sharing a complete
extended-key value — hash buckets, with no pairwise fix-ups or cluster
repair.  :class:`IdentityGraph`:

1. extends every source with ILFD-derived extended-key values,
2. groups all tuples by complete extended-key value — groups spanning
   ≥2 sources are the entity clusters — and applies the checks a
   pairwise run would make,
3. verifies the generalized uniqueness constraint: within one source,
   no two tuples share a complete extended-key value (§3.1),
4. integrates: one row per entity over the union of the source schemas,
   read off the survivorship decisions
   (:func:`~repro.entities.survivorship.decide_cluster`) golden records
   are made from,

and offers an on-demand pairwise pipeline
(:meth:`IdentityGraph.pair_result`) that resolution itself never runs.
Golden records (:mod:`repro.entities.golden`) and the persisted entity
store (:mod:`repro.entities.build`) are made from it.

The consistency verdict is the pairwise one
(:func:`~repro.core.consistency.check_matches`): a matched
cross-source pair that fires an ILFD dual raises ``ConsistencyError``
unless it *witnesses* a uniqueness violation (one of its two sources
has a second tuple in the cluster); then :meth:`IdentityGraph.verify`
reports the unsound key, as a pairwise run would.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.blocking.base import Blocker
from repro.core.consistency import MatchCheck, check_matches, dual_rules
from repro.core.extended_key import ExtendedKey
from repro.core.identifier import EntityIdentifier, IdentificationResult
from repro.core.integration import AttributeConflict
from repro.core.matching_table import KeyValues, key_values
from repro.entities.errors import GraphError
from repro.entities.survivorship import Decision, SurvivorshipPolicy, decide_cluster
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.attribute import Attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.store.codec import encode_row

__all__ = [
    "AttributeConflict",
    "CONFLICT_POLICIES",
    "EntityCluster",
    "IdentityGraph",
    "UniquenessViolation",
    "GraphSoundnessReport",
    "cluster_fingerprint",
]

CONFLICT_POLICIES = ("first", "error", "null")
"""Integrate's terminal behaviours over the empty survivorship chain's
decisions: keep each pick (first non-NULL in source order) / raise at
the first contested decision / blank contested decisions."""


@dataclass(frozen=True)
class EntityCluster:
    """One matched entity: tuples from ≥2 sources sharing K_Ext values."""

    key: Tuple[Any, ...]
    members: Tuple[Tuple[str, Row], ...]

    @property
    def sources(self) -> Tuple[str, ...]:
        """The source names contributing a tuple, in member order."""
        return tuple(source for source, _ in self.members)

    def member_of(self, source: str) -> Optional[Row]:
        """This cluster's tuple from *source*, if any."""
        for name, row in self.members:
            if name == source:
                return row
        return None

    def __len__(self) -> int:
        return len(self.members)


def cluster_fingerprint(clusters: Sequence[EntityCluster]) -> str:
    """Canonical SHA-256 over a cluster list (hex digest).

    Hashes the cluster keys and every member's ``(source, canonical row
    encoding)`` in list order, so two cluster lists fingerprint equal
    iff they are bit-identical — the conformance cell's equality test
    between the graph and the pairwise reference, and between a build
    and its reload.
    """
    material = json.dumps(
        [
            [
                str(cluster.key),
                [[source, encode_row(row)] for source, row in cluster.members],
            ]
            for cluster in clusters
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class UniquenessViolation:
    """One source modelling one entity more than once.

    The generalized uniqueness constraint says a cluster may contain at
    most one tuple per source; this names the offending source, the
    shared extended-key values, and the primary keys of every offending
    tuple.
    """

    source: str
    key: Tuple[Any, ...]
    members: Tuple[KeyValues, ...]


@dataclass(frozen=True)
class GraphSoundnessReport:
    """Structured verdict of the generalized uniqueness check."""

    violations: Tuple[UniquenessViolation, ...]

    @property
    def is_sound(self) -> bool:
        """True iff no source has two tuples sharing complete K_Ext values."""
        return not self.violations

    def by_source(self) -> Mapping[str, Tuple[UniquenessViolation, ...]]:
        """Violations grouped per source (only offending sources appear)."""
        grouped: Dict[str, List[UniquenessViolation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.source, []).append(violation)
        return {source: tuple(items) for source, items in grouped.items()}

    def summary(self, limit: Optional[int] = None) -> str:
        """The first *limit* (default all) violations, on one line."""
        return "; ".join(
            f"{v.source} models {v.key!r} {len(v.members)} times"
            for v in self.violations[:limit]
        )

    def raise_if_unsound(self) -> None:
        """Raise :class:`GraphError` when the check failed."""
        if not self.is_sound:
            raise GraphError(
                f"generalized uniqueness constraint violated: {self.summary(5)}"
            )


class IdentityGraph:
    """N-way entity identification by one extended-key grouping.

    Parameters
    ----------
    sources:
        Mapping of source name → relation (unified namespace, ≥2
        entries).  Declaration order is the deterministic source
        priority used for cluster member order and survivorship.
    extended_key / ilfds / policy:
        As for :class:`~repro.core.identifier.EntityIdentifier`.
    blocker_factory:
        Optional zero-argument callable returning a fresh
        :class:`~repro.blocking.Blocker` for each on-demand pairwise
        pipeline (:meth:`pair_identifier`).  ``None`` keeps the exact
        default paths.  Resolution never uses it.
    tracer:
        Optional tracer; the graph emits ``entities.*`` spans and
        metrics and shares the tracer with its ILFD extension
        (``ilfd.*``) and with every pairwise pipeline.
    """

    def __init__(
        self,
        sources: Mapping[str, Relation],
        extended_key: "ExtendedKey | Sequence[str]",
        *,
        ilfds: "ILFDSet | Iterable[ILFD]" = (),
        policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH,
        blocker_factory: Optional[Callable[[], Optional[Blocker]]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if len(sources) < 2:
            raise GraphError("an identity graph needs at least two sources")
        if not isinstance(extended_key, ExtendedKey):
            extended_key = ExtendedKey(list(extended_key))
        self._sources: Dict[str, Relation] = dict(sources)
        self._names: Tuple[str, ...] = tuple(self._sources)
        self._key = extended_key
        self._ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
        self._policy = policy
        self._blocker_factory = blocker_factory
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._rules = dual_rules(self._ilfds)
        self._engine = DerivationEngine(
            self._ilfds, policy=policy, tracer=self._tracer
        )
        self._extended: Optional[Dict[str, Relation]] = None
        self._groups: Optional[Dict[Tuple[Any, ...], List[Tuple[str, Row]]]] = None
        self._identifiers: Dict[FrozenSet[str], EntityIdentifier] = {}
        self._results: Dict[FrozenSet[str], IdentificationResult] = {}
        self._clusters: Optional[List[EntityCluster]] = None
        self._decided: Optional[
            List[Tuple[EntityCluster, Tuple[Decision, ...]]]
        ] = None
        if self._tracer.enabled:
            self._tracer.metrics.inc("entities.sources", len(self._sources))

    # ------------------------------------------------------------------
    @property
    def source_names(self) -> Tuple[str, ...]:
        """Source names in declaration order."""
        return self._names

    @property
    def extended_key(self) -> ExtendedKey:
        """The extended key in use."""
        return self._key

    @property
    def sources(self) -> Mapping[str, Relation]:
        """The source relations, by name."""
        return dict(self._sources)

    def source_key_attributes(self, name: str) -> Tuple[str, ...]:
        """*name*'s primary-key attributes, in schema order."""
        self._check_source(name)
        schema = self._sources[name].schema
        return tuple(n for n in schema.names if n in schema.primary_key)

    def _check_source(self, name: str) -> None:
        if name not in self._sources:
            raise GraphError(
                f"unknown source {name!r}; expected one of {self._names}"
            )

    def _check_pair(self, first: str, second: str) -> None:
        self._check_source(first)
        self._check_source(second)
        if first == second:
            raise GraphError(f"a source pair needs two distinct sources, got {first!r}")

    def extended(self) -> Dict[str, Relation]:
        """Every source extended with derived K_Ext values (computed once)."""
        if self._extended is None:
            targets = list(self._key.attributes)
            with self._tracer.span("entities.extend", sources=len(self._names)):
                self._extended = {
                    name: self._engine.extend_relation(relation, targets)
                    for name, relation in self._sources.items()
                }
        return self._extended

    def _grouped(self) -> Dict[Tuple[Any, ...], List[Tuple[str, Row]]]:
        """Every tuple with a complete K_Ext value, grouped by that value."""
        if self._groups is None:
            key_attrs = list(self._key.attributes)
            groups: Dict[Tuple[Any, ...], List[Tuple[str, Row]]] = defaultdict(list)
            tuples = 0
            for name, relation in self.extended().items():
                for row in relation:
                    values = row.values_for(key_attrs)
                    if any(is_null(v) for v in values):
                        continue
                    groups[values].append((name, row))
                    tuples += 1
            self._groups = groups
            if self._tracer.enabled:
                self._tracer.metrics.inc("entities.tuples", tuples)
        return self._groups

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def clusters(self) -> List[EntityCluster]:
        """Matched entities: groups spanning at least two sources.

        Computed once, sorted by the string form of the shared
        extended-key values; members in (source declaration, row) order.

        Raises ``ExtendedKeyError`` when some source pair can never
        value the key, and ``ConsistencyError`` when a matched
        cross-source pair fires an ILFD-dual distinctness rule without
        witnessing a uniqueness violation — exactly when a pairwise
        ``EntityIdentifier`` run over that source pair would raise.
        """
        if self._clusters is not None:
            return self._clusters
        with self._tracer.span("entities.closure", sources=len(self._names)):
            derivable = {
                attr for ilfd in self._ilfds for attr in ilfd.consequent_attributes
            }
            for first, second in self.pair_names():
                self._key.check_against(
                    self._sources[first], self._sources[second], derivable=derivable
                )
            clusters = [
                EntityCluster(values, tuple(members))
                for values, members in self._grouped().items()
                if len({name for name, _ in members}) >= 2
            ]
            clusters.sort(key=lambda cluster: str(cluster.key))
            check_matches(self._rules, self._cross_source_matches(clusters))
        self._clusters = clusters
        if self._tracer.enabled:
            self._tracer.metrics.inc("entities.clusters", len(clusters))
            self._tracer.metrics.inc(
                "entities.members", sum(len(c) for c in clusters)
            )
        return clusters

    def _cross_source_matches(
        self, clusters: Sequence[EntityCluster]
    ) -> Iterator[MatchCheck]:
        """Each cluster's pairwise matches; a pair witnesses an unsound
        key iff one of its two sources has two members in the cluster."""
        for cluster in clusters:
            members: Dict[str, List[Row]] = defaultdict(list)
            for source, row in cluster.members:
                members[source].append(row)
            for first, second in combinations(members, 2):
                witness = len(members[first]) > 1 or len(members[second]) > 1
                label = f"the {first}/{second} pair keyed {cluster.key!r}"
                for row in members[first]:
                    for other in members[second]:
                        yield label, row, other, witness

    def pairwise_pairs(
        self, first: str, second: str
    ) -> FrozenSet[Tuple[KeyValues, KeyValues]]:
        """The (first, second) matches as EntityIdentifier-format pairs.

        The pairwise *projection* of :meth:`clusters` — equal to what a
        fresh ``EntityIdentifier`` run over the two sources matches —
        raising whatever :meth:`clusters` raises.
        """
        self._check_pair(first, second)
        first_keys = self.source_key_attributes(first)
        second_keys = self.source_key_attributes(second)
        pairs = set()
        for cluster in self.clusters():
            lefts = [row for name, row in cluster.members if name == first]
            rights = [row for name, row in cluster.members if name == second]
            for left in lefts:
                for right in rights:
                    pairs.add(
                        (key_values(left, first_keys), key_values(right, second_keys))
                    )
        return frozenset(pairs)

    def verify(self) -> GraphSoundnessReport:
        """The generalized uniqueness constraint, structured per source.

        Read off the shared grouping, so a source modelling an entity
        twice is reported even when no other source shares the key.
        Sources in declaration order; within a source, violations in
        order of their first tuple's position.
        """
        with self._tracer.span("entities.verify"):
            found: Dict[str, List[Tuple[Tuple[Any, ...], List[Row]]]] = {
                name: [] for name in self._names
            }
            for values, members in self._grouped().items():
                if len(members) < 2:
                    continue
                per_source: Dict[str, List[Row]] = defaultdict(list)
                for name, row in members:
                    per_source[name].append(row)
                for name, rows in per_source.items():
                    if len(rows) > 1:
                        found[name].append((values, rows))
            violations: List[UniquenessViolation] = []
            for name, breaches in found.items():
                if len(breaches) > 1:
                    position = {row: i for i, row in enumerate(self.extended()[name])}
                    breaches.sort(key=lambda breach: position[breach[1][0]])
                key_attrs = self.source_key_attributes(name)
                violations.extend(
                    UniquenessViolation(
                        name,
                        values,
                        tuple(key_values(row, key_attrs) for row in rows),
                    )
                    for values, rows in breaches
                )
        if self._tracer.enabled and violations:
            self._tracer.metrics.inc("entities.violations", len(violations))
        return GraphSoundnessReport(tuple(violations))

    def fingerprint(self) -> str:
        """Canonical fingerprint of this graph's clusters."""
        return cluster_fingerprint(self.clusters())

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def attribute_order(self) -> List[str]:
        """Union of the extended schemas, in declaration order: the
        layout of integrated rows and golden records."""
        ordered: List[str] = []
        for relation in self.extended().values():
            for attr in relation.schema.names:
                if attr not in ordered:
                    ordered.append(attr)
        return ordered

    def _decisions(self) -> List[Tuple[EntityCluster, Tuple[Decision, ...]]]:
        """Each cluster's decisions under the empty survivorship chain.

        Computed once, in :meth:`clusters` order and
        :meth:`attribute_order`; the contested ones are counted in the
        ``entities.conflicts`` metric here, so however often
        :meth:`conflicts` and :meth:`integrate` read them, each
        disagreement counts once.
        """
        if self._decided is None:
            ordered = self.attribute_order()
            policy = SurvivorshipPolicy()
            key_attrs = {name: self.source_key_attributes(name) for name in self._names}
            self._decided = [
                (
                    cluster,
                    decide_cluster(
                        cluster.members,
                        [
                            key_values(row, key_attrs[name])
                            for name, row in cluster.members
                        ],
                        ordered,
                        policy,
                    ),
                )
                for cluster in self.clusters()
            ]
            contested = sum(
                decision.contested
                for _, decisions in self._decided
                for decision in decisions
            )
            if self._tracer.enabled and contested:
                self._tracer.metrics.inc("entities.conflicts", contested)
        return self._decided

    def conflicts(self) -> List[AttributeConflict]:
        """Every attribute collision integration would have to resolve.

        An attribute of a cluster is in conflict when two members carry
        distinct non-NULL values for it — its decision is contested.
        ``key`` is the cluster's extended-key values and ``values`` the
        candidates in member order.  Deterministic order: clusters in
        :meth:`clusters` order, attributes in :meth:`attribute_order`.
        """
        return [
            AttributeConflict(cluster.key, decision.attribute, decision.considered)
            for cluster, decisions in self._decisions()
            for decision in decisions
            if decision.contested
        ]

    def integrate(
        self, *, source_column: str = "sources", on_conflict: str = "first"
    ) -> Relation:
        """One row per real-world entity, over the union of the schemas.

        A matched cluster's row holds its survivorship decisions under
        the empty chain (:class:`~repro.entities.survivorship.SurvivorshipPolicy`):
        per attribute, the first non-NULL value in source declaration
        order.  Unmatched tuples survive NULL-padded.  *on_conflict* is
        the terminal behaviour for a contested decision (members carry
        distinct non-NULL values):

        - ``"first"`` (default): keep the pick (the disagreement is
          still counted in the ``entities.conflicts`` metric; use
          :meth:`conflicts` for the full diagnostic),
        - ``"error"``: raise :class:`GraphError` naming the first
          contested cluster and attribute,
        - ``"null"``: blank the contested attribute — the integrated
          row asserts nothing the sources dispute.

        Other survivorship chains are ``entities build --survivorship``'s.
        The *source_column* records provenance (comma-joined source
        names), which also keeps coincidentally identical unmatched
        tuples from different sources apart.
        """
        if on_conflict not in CONFLICT_POLICIES:
            raise GraphError(
                f"unknown conflict policy {on_conflict!r}; "
                f"expected one of {CONFLICT_POLICIES}"
            )
        ordered = self.attribute_order()
        if source_column in ordered:
            raise GraphError(
                f"source column {source_column!r} collides with a source attribute"
            )
        schema = Schema([Attribute(a) for a in ordered + [source_column]])

        with self._tracer.span("entities.integrate", on_conflict=on_conflict):
            rows: List[Row] = []
            clustered: set = set()
            for cluster, decisions in self._decisions():
                clustered.update(row for _, row in cluster.members)
                values: Dict[str, Any] = {}
                for decision in decisions:
                    value = decision.value
                    if decision.contested:
                        if on_conflict == "error":
                            raise GraphError(
                                f"sources disagree on {decision.attribute!r} "
                                f"for entity {cluster.key!r}: "
                                + ", ".join(
                                    f"{source}={seen!r}"
                                    for source, seen in decision.considered
                                )
                            )
                        if on_conflict == "null":
                            value = NULL
                    values[decision.attribute] = value
                values[source_column] = ",".join(cluster.sources)
                rows.append(Row(values))
            for name, relation in self.extended().items():
                for row in relation:
                    if row in clustered:
                        continue
                    values = {attr: NULL for attr in ordered}
                    for attr in row:
                        values[attr] = row[attr]
                    values[source_column] = name
                    rows.append(Row(values))

        out = Relation(schema, (), name="T_multi", enforce_keys=False)
        deduped: Dict[Row, None] = {}
        for row in rows:
            deduped.setdefault(row)
        out._rows = tuple(deduped)
        out._row_set = frozenset(deduped)
        return out

    # ------------------------------------------------------------------
    # On-demand pairwise pipeline
    # ------------------------------------------------------------------
    def pair_names(self) -> List[Tuple[str, str]]:
        """All source pairs, in declaration order."""
        return list(combinations(self._names, 2))

    def pair_identifier(self, first: str, second: str) -> EntityIdentifier:
        """The (cached) pairwise pipeline for one source pair, either order."""
        self._check_pair(first, second)
        pair = frozenset((first, second))
        if pair not in self._identifiers:
            blocker = self._blocker_factory() if self._blocker_factory else None
            self._identifiers[pair] = EntityIdentifier(
                self._sources[first],
                self._sources[second],
                self._key,
                ilfds=self._ilfds,
                policy=self._policy,
                tracer=self._tracer,
                blocker=blocker,
            )
        return self._identifiers[pair]

    def pair_result(self, first: str, second: str) -> IdentificationResult:
        """The (cached) full pairwise identification of one pair (MT, NMT)."""
        identifier = self.pair_identifier(first, second)
        pair = frozenset((first, second))
        if pair not in self._results:
            with self._tracer.span("entities.pairwise", first=first, second=second):
                self._results[pair] = identifier.run()
            if self._tracer.enabled:
                self._tracer.metrics.inc("entities.pairwise_runs")
        return self._results[pair]
