"""The identity graph: N-way resolution over one extended-key grouping.

A match is equality of complete, non-NULL extended-key values (§4.1)
and equality is transitive, so entities are hash buckets.
:class:`IdentityGraph` delegates ILFD extension, the grouping and the
pairwise projections to one
:class:`~repro.core.multiway.MultiwayIdentifier`, and adds the checks a
pairwise run would make, structured uniqueness reports, and an
on-demand pairwise pipeline (:meth:`IdentityGraph.pair_result`) that
resolution itself never runs.  Golden records
(:mod:`repro.entities.golden`) and the persisted entity store
(:mod:`repro.entities.build`) are made from it.

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
from repro.core.matching_table import KeyValues, key_values
from repro.core.multiway import EntityCluster, MultiwayIdentifier
from repro.entities.errors import GraphError
from repro.ilfd.derivation import DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.store.codec import encode_row

__all__ = [
    "IdentityGraph",
    "UniquenessViolation",
    "GraphSoundnessReport",
    "cluster_fingerprint",
]


def cluster_fingerprint(clusters: Sequence[EntityCluster]) -> str:
    """Canonical SHA-256 over a cluster list (hex digest).

    Hashes the cluster keys and every member's ``(source, canonical row
    encoding)`` in list order, so two cluster lists fingerprint equal
    iff they are bit-identical — the conformance cell's equality test
    between the graph and ``MultiwayIdentifier``, and between a build
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

    def raise_if_unsound(self) -> None:
        """Raise :class:`GraphError` when the check failed."""
        if not self.is_sound:
            detail = "; ".join(
                f"{v.source} models {v.key!r} {len(v.members)} times"
                for v in self.violations[:5]
            )
            raise GraphError(
                f"generalized uniqueness constraint violated: {detail}"
            )


class IdentityGraph:
    """N-way entity resolution by one extended-key grouping.

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
        metrics and shares the tracer with its grouping (``multiway.*``,
        ``ilfd.*``) and with every pairwise pipeline.
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
        self._multiway = MultiwayIdentifier(
            self._sources,
            extended_key,
            ilfds=self._ilfds,
            policy=policy,
            tracer=self._tracer,
        )
        self._identifiers: Dict[FrozenSet[str], EntityIdentifier] = {}
        self._results: Dict[FrozenSet[str], IdentificationResult] = {}
        self._clusters: Optional[List[EntityCluster]] = None
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
        return self._multiway.source_key_attributes(name)

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
        return self._multiway.extended()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def clusters(self) -> List[EntityCluster]:
        """Entity clusters, as :meth:`MultiwayIdentifier.clusters` orders them.

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
            clusters = self._multiway.clusters()
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
        self.clusters()
        return self._multiway.pairwise_pairs(first, second)

    def verify(self) -> GraphSoundnessReport:
        """The generalized uniqueness constraint, structured per source.

        Read off the shared grouping, so a source modelling an entity
        twice is reported even when no other source shares the key.
        """
        with self._tracer.span("entities.verify"):
            violations = tuple(
                UniquenessViolation(
                    name,
                    values,
                    tuple(
                        key_values(row, self.source_key_attributes(name))
                        for row in rows
                    ),
                )
                for name, breaches in self._multiway.uniqueness_violations().items()
                for values, rows in breaches
            )
        if self._tracer.enabled and violations:
            self._tracer.metrics.inc("entities.violations", len(violations))
        return GraphSoundnessReport(violations)

    def fingerprint(self) -> str:
        """Canonical fingerprint of this graph's clusters."""
        return cluster_fingerprint(self.clusters())

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
