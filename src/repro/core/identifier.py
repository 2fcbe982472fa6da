"""The entity identifier: Figure 4's pipeline.

"The entity-identification process reads in R and S relations, derives
their extended key, and generates the integrated table T_RS."

:class:`EntityIdentifier` wires the pieces together:

1. rename both sources into the unified namespace (the attribute
   correspondences established at schema-integration time),
2. extend each relation with its missing extended-key attributes, NULL by
   default, then derive values by chasing the ILFDs (R → R', S → S'),
3. build the matching table by evaluating the identity rules over
   hash-join candidates: a well-formed identity rule (Section 3.2) can
   only fire on pairs that agree, non-NULL, on every attribute it
   mentions, so hashing on those attributes finds every match,
4. verify the soundness criteria (uniqueness constraint) like the
   prototype's ``verify`` command,
5. evaluate distinctness rules (explicit ones plus the Proposition-1
   duals of the ILFDs) over the blocker's candidate pairs to populate
   the negative matching table,
6. emit the integrated table ``T_RS``.

Both tables are classified by one kernel, the
:class:`~repro.blocking.PairExecutor`; they differ only in the
candidate pairs it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.blocking.base import Blocker, BlockingContext, CrossProductBlocker, IndexPair
from repro.blocking.executor import PairExecutor
from repro.blocking.strategies import ExtendedKeyHashBlocker
from repro.core.consistency import check_table
from repro.core.correspondence import AttributeCorrespondence
from repro.core.errors import ConsistencyError, CoreError
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import (
    KeyValues,
    MatchEntry,
    MatchingTable,
    NegativeMatchingTable,
    key_values,
)
from repro.core.soundness import SoundnessReport, verify_soundness
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.engine import MatchStatus, RuleEngine
from repro.rules.errors import RuleConflictError
from repro.rules.identity import IdentityRule
from repro.store.base import MatchStore
from repro.store.journal import KIND_ASSERT, KIND_IDENTITY

__all__ = ["IdentificationResult", "EntityIdentifier"]


@dataclass
class IdentificationResult:
    """Everything one identification run produces.

    Attributes
    ----------
    matching:
        The matching table MT_RS.
    negative:
        The negative matching table NMT_RS (explicitly materialised).
    extended_r / extended_s:
        The extended relations R' and S' (unified namespace, derived
        extended-key values filled in).
    report:
        The soundness report for the matching table.
    pair_count:
        Total number of R'×S' tuple pairs considered.
    """

    matching: MatchingTable
    negative: NegativeMatchingTable
    extended_r: Relation
    extended_s: Relation
    report: SoundnessReport
    pair_count: int

    @property
    def undetermined_count(self) -> int:
        """Pairs neither matched nor declared distinct (Figure 3's middle).

        A pair in both tables (possible only under an unsound key) counts once.
        """
        both = sum(1 for entry in self.matching if entry.pair in self.negative)
        return self.pair_count - len(self.matching) - len(self.negative) + both

    def is_complete(self) -> bool:
        """Completeness (Section 3.2): no undetermined pair remains."""
        return self.undetermined_count == 0


class EntityIdentifier:
    """Identify entities across two relations sharing no common key.

    Parameters
    ----------
    r, s:
        The source relations (in their local namespaces).
    extended_key:
        The DBA-asserted extended key (unified attribute names), or a
        plain sequence of names.
    ilfds:
        ILFDs over unified attribute names.
    correspondence:
        Attribute correspondences; defaults to the identity mapping.
    policy:
        ILFD derivation policy (default: the prototype's FIRST_MATCH).
    identity_rules / distinctness_rules:
        Extra DBA rules beyond the extended-key rule and the ILFD duals.
    asserted_matches:
        User-specified matching pairs, each ``(r_key_mapping,
        s_key_mapping)`` — the paper's "knowledgeable user [may] add
        entries directly to the matching table".
    derive_ilfd_distinctness:
        Whether to auto-derive distinctness rules from the ILFDs via
        Proposition 1 (on by default).
    tracer:
        Optional :class:`~repro.observability.Tracer`.  When given, the
        pipeline records one span per phase (relation extension,
        matching-table build, negative table, soundness, integration)
        and counts pairs, rule evaluations, ILFD firings, and
        match/non-match/unknown outcomes.  Defaults to the free no-op
        tracer; the tracer is threaded through the derivation and rule
        engines so their metrics land in the same registry.
    blocker:
        The :class:`~repro.blocking.Blocker` whose candidate pairs the
        distinctness rules are evaluated over, i.e. the bound on the
        negative matching table.  ``None`` (the default) means
        :class:`~repro.blocking.CrossProductBlocker`: the exact, full
        NMT.  The ``hash`` blocker restricts the NMT to its candidates.
        The matching table never depends on the blocker: its candidates
        come from the identity rules themselves, so no match is pruned.
    executor:
        The :class:`~repro.blocking.PairExecutor` that classifies every
        candidate pair; defaults to one sharing this pipeline's tracer.
        Pass one to retry failed store writes.
    store:
        Optional :class:`~repro.store.MatchStore`.  When given, every
        table entry the pipeline produces is persisted to it with a
        derivation-journal record naming the rule that fired (identity,
        distinctness, ILFD derivations, and user assertions), so the
        run's conclusions survive the process and ``repro explain-pair``
        can reconstruct their provenance offline.
    """

    def __init__(
        self,
        r: Relation,
        s: Relation,
        extended_key: ExtendedKey | Sequence[str],
        *,
        ilfds: ILFDSet | Iterable[ILFD] = (),
        correspondence: Optional[AttributeCorrespondence] = None,
        policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH,
        identity_rules: Iterable[IdentityRule] = (),
        distinctness_rules: Iterable[DistinctnessRule] = (),
        asserted_matches: Iterable[Tuple[Mapping[str, Any], Mapping[str, Any]]] = (),
        derive_ilfd_distinctness: bool = True,
        tracer: Optional[Tracer] = None,
        blocker: Optional[Blocker] = None,
        executor: Optional[PairExecutor] = None,
        store: Optional[MatchStore] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._correspondence = correspondence or AttributeCorrespondence.identity()
        self._r = self._correspondence.unify_r(r)
        self._s = self._correspondence.unify_s(s)
        if not isinstance(extended_key, ExtendedKey):
            extended_key = ExtendedKey(list(extended_key))
        self._ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
        extended_key.check_against(
            self._r,
            self._s,
            derivable={
                attr
                for ilfd in self._ilfds
                for attr in ilfd.consequent_attributes
            },
        )
        self._key = extended_key
        self._engine = DerivationEngine(
            self._ilfds, policy=policy, tracer=self._tracer
        )
        self._policy = policy
        self._asserted = list(asserted_matches)

        derived_rules: List[DistinctnessRule] = []
        if derive_ilfd_distinctness:
            for ilfd in self._ilfds:
                derived_rules.extend(ilfd_to_distinctness_rules(ilfd))
        self._rules = RuleEngine(
            [extended_key.identity_rule(), *identity_rules],
            list(distinctness_rules) + derived_rules,
            tracer=self._tracer,
        )

        # Key projections are per-relation constants — compute them once
        # here instead of on every property access inside pairwise loops.
        r_key = self._r.schema.primary_key
        s_key = self._s.schema.primary_key
        self._r_key_attrs: Tuple[str, ...] = tuple(
            n for n in self._r.schema.names if n in r_key
        )
        self._s_key_attrs: Tuple[str, ...] = tuple(
            n for n in self._s.schema.names if n in s_key
        )

        self._store = store
        if store is not None:
            store.set_key_attributes(self._r_key_attrs, self._s_key_attrs)
            store.set_extended_key_attributes(extended_key.attributes)

        self._blocker = blocker if blocker is not None else CrossProductBlocker()
        self._executor = (
            executor if executor is not None else PairExecutor(tracer=self._tracer)
        )

        self._extended_r: Optional[Relation] = None
        self._extended_s: Optional[Relation] = None
        self._indexed_rows: Optional[
            Tuple[List[Row], List[Row], List[KeyValues], List[KeyValues]]
        ] = None
        self._matching: Optional[MatchingTable] = None
        self._negative: Optional[NegativeMatchingTable] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def extended_key(self) -> ExtendedKey:
        """The extended key in use."""
        return self._key

    @property
    def tracer(self) -> Tracer:
        """The tracer observing this pipeline (no-op unless supplied)."""
        return self._tracer

    @property
    def ilfds(self) -> ILFDSet:
        """The ILFD set in use."""
        return self._ilfds

    @property
    def rules(self) -> RuleEngine:
        """The rule engine (extended-key rule, extra rules, ILFD duals)."""
        return self._rules

    @property
    def unified_r(self) -> Relation:
        """R in the unified namespace."""
        return self._r

    @property
    def unified_s(self) -> Relation:
        """S in the unified namespace."""
        return self._s

    @property
    def r_key_attributes(self) -> Tuple[str, ...]:
        """R's primary-key attributes (unified names, schema order)."""
        return self._r_key_attrs

    @property
    def s_key_attributes(self) -> Tuple[str, ...]:
        """S's primary-key attributes (unified names, schema order)."""
        return self._s_key_attrs

    @property
    def blocker(self) -> Blocker:
        """The blocker bounding the negative matching table."""
        return self._blocker

    @property
    def executor(self) -> PairExecutor:
        """The pair executor classifying every candidate pair."""
        return self._executor

    @property
    def store(self) -> Optional[MatchStore]:
        """The persistence backend in use (None = nothing persisted)."""
        return self._store

    # ------------------------------------------------------------------
    # Pipeline steps
    # ------------------------------------------------------------------
    def extended_relations(self) -> Tuple[Relation, Relation]:
        """R' and S': sources extended with derived K_Ext values."""
        if self._extended_r is None or self._extended_s is None:
            targets = list(self._key.attributes)
            with self._tracer.span(
                "identify.extend_relations",
                r_rows=len(self._r),
                s_rows=len(self._s),
            ):
                self._extended_r = self._engine.extend_relation(
                    self._r,
                    targets,
                    observer=self._derivation_observer("r", self._r_key_attrs),
                )
                self._extended_s = self._engine.extend_relation(
                    self._s,
                    targets,
                    observer=self._derivation_observer("s", self._s_key_attrs),
                )
        return self._extended_r, self._extended_s

    def _derivation_observer(self, side: str, key_attrs: Tuple[str, ...]):
        """Journal-writing hook for ILFD firings (None without a store)."""
        store = self._store
        if store is None:
            return None

        def observe(row: Row, result) -> None:
            key = key_values(row, key_attrs)
            store.record_derivation(
                side,
                key,
                rule=", ".join(
                    ilfd.name or repr(ilfd) for ilfd in result.fired
                ),
                derived=result.derived,
            )

        return observe

    def _indexed(
        self,
    ) -> Tuple[List[Row], List[Row], List[KeyValues], List[KeyValues]]:
        """R' and S' as row lists plus their key projections (cached).

        The executor classifies ``(r_index, s_index)`` pairs; the key
        lists turn an index pair into a table entry or a store record
        without re-rendering a key per pair.
        """
        if self._indexed_rows is None:
            extended_r, extended_s = self.extended_relations()
            r_rows = list(extended_r)
            s_rows = list(extended_s)
            self._indexed_rows = (
                r_rows,
                s_rows,
                [key_values(row, self._r_key_attrs) for row in r_rows],
                [key_values(row, self._s_key_attrs) for row in s_rows],
            )
        return self._indexed_rows

    def _table(self, table_type: type, pairs: Iterable[IndexPair]):
        """A matching or negative table holding *pairs* (row indices)."""
        r_rows, s_rows, r_keys, s_keys = self._indexed()
        return table_type(
            (
                MatchEntry(r_rows[i], s_rows[j], r_keys[i], s_keys[j])
                for i, j in pairs
            ),
            r_key_attributes=self._r_key_attrs,
            s_key_attributes=self._s_key_attrs,
        )

    def _match_candidates(
        self, r_rows: List[Row], s_rows: List[Row]
    ) -> List[IndexPair]:
        """Every pair some identity rule can fire on, in R-major order.

        Well-formedness (Section 3.2) makes each identity rule imply
        ``e1.A = e2.A`` for every attribute A it mentions, so it fires
        only on pairs that agree, non-NULL, on all of them: the hash
        join on those attributes (an absent attribute counts as NULL).
        The union of one join per rule therefore misses no match; for
        the extended-key rule alone it is exactly the K_Ext join.
        """
        join = ExtendedKeyHashBlocker()
        pairs = set()
        for rule in self._rules.identity_rules:
            context = BlockingContext.of(sorted(rule.attributes))
            pairs.update(join.candidate_pairs(r_rows, s_rows, context))
        return sorted(pairs)

    def matching_table(self) -> MatchingTable:
        """MT_RS: the pairs some identity rule (or the user) declares matching.

        Every entry is checked against the distinctness rules before
        anything reaches the store
        (:func:`~repro.core.consistency.check_table`).  A matched pair
        some distinctness rule declares distinct raises
        :class:`~repro.core.errors.ConsistencyError` — unless it
        witnesses a uniqueness violation (its R or S tuple is matched
        to another tuple too): then the extended key is unsound, the
        spurious match is its symptom, and :meth:`verify` reports the
        key instead.
        """
        if self._matching is not None:
            return self._matching
        r_rows, s_rows, _, _ = self._indexed()
        with self._tracer.span("identify.matching_table") as span:
            candidates = self._match_candidates(r_rows, s_rows)
            span.set("candidates", len(candidates))
            evaluation = self._executor.evaluate(
                candidates, r_rows, s_rows, self._rules.identity_rules
            )
            table = self._table(MatchingTable, evaluation.matches)
            identity = self._rules.identity_rules
            recorded = [
                (entry, identity[index].name, KIND_IDENTITY)
                for entry, index in zip(table, evaluation.match_rules)
            ]
            for r_keys_map, s_keys_map in self._asserted:
                entry = self._asserted_entry(r_keys_map, s_keys_map)
                table.add(entry)
                recorded.append((entry, "user-assertion", KIND_ASSERT))
            check_table(self._rules, table)
            store = self._store
            if store is not None:

                def write() -> None:
                    for entry, rule, kind in recorded:
                        store.record_match(
                            entry.r_key,
                            entry.s_key,
                            entry.r_row,
                            entry.s_row,
                            rule=rule,
                            kind=kind,
                        )

                self._executor.write_store(store, write)
            span.set("entries", len(table))
        if self._tracer.enabled:
            self._tracer.metrics.inc("pipeline.matches", len(table))
        self._matching = table
        return table

    def _asserted_entry(
        self, r_keys: Mapping[str, Any], s_keys: Mapping[str, Any]
    ) -> MatchEntry:
        extended_r, extended_s = self.extended_relations()
        r_row = extended_r.lookup(dict(r_keys))
        s_row = extended_s.lookup(dict(s_keys))
        if r_row is None or s_row is None:
            raise CoreError(
                f"asserted match references unknown tuples: R{dict(r_keys)!r} "
                f"/ S{dict(s_keys)!r}"
            )
        return MatchEntry(
            r_row,
            s_row,
            key_values(r_row, self.r_key_attributes),
            key_values(s_row, self.s_key_attributes),
        )

    def negative_matching_table(self) -> NegativeMatchingTable:
        """NMT_RS: candidate pairs some distinctness rule declares distinct.

        The candidates are the blocker's.  Under the default cross
        product this is the full table (O(|R'|·|S'|) pair evaluations);
        the paper notes real systems would keep it implicit, but the
        worked examples (Table 4) and the completeness accounting need
        it.  The ``hash`` blocker restricts it to its candidates.
        """
        if self._negative is not None:
            return self._negative
        r_rows, s_rows, r_keys, s_keys = self._indexed()
        with self._tracer.span(
            "identify.negative_matching_table",
            pairs=len(r_rows) * len(s_rows),
        ) as span:
            candidates = self._blocker.block(
                r_rows,
                s_rows,
                BlockingContext.of(self._key.attributes),
                tracer=self._tracer,
            )
            evaluation = self._executor.evaluate(
                candidates,
                r_rows,
                s_rows,
                (),
                self._rules.distinctness_rules,
                store=self._store,
                r_keys=r_keys,
                s_keys=s_keys,
            )
            table = self._table(NegativeMatchingTable, evaluation.distinct)
            span.set("blocker", self._blocker.name)
            span.set("entries", len(table))
        if self._tracer.enabled:
            self._tracer.metrics.inc("pipeline.non_matches", len(table))
        self._negative = table
        return table

    # ------------------------------------------------------------------
    # Classification and results
    # ------------------------------------------------------------------
    def classify_pair(self, r_row: Mapping[str, Any], s_row: Mapping[str, Any]) -> MatchStatus:
        """Three-valued classification of one (R tuple, S tuple) pair.

        Accepts rows from the *source* relations (local or unified names);
        they are unified and ILFD-extended before rule evaluation.
        """
        r_unified = Row(dict(r_row)).rename(dict(self._correspondence.r_map))
        s_unified = Row(dict(s_row)).rename(dict(self._correspondence.s_map))
        targets = list(self._key.attributes)
        r_ext = self._engine.extend_row(r_unified, targets).row
        s_ext = self._engine.extend_row(s_unified, targets).row
        # The extended-key rule is part of the engine's identity rules, and
        # its predicates evaluate UNKNOWN (not TRUE) on NULLs, so "all K_Ext
        # values non-NULL and equal" is exactly "some identity rule fires".
        try:
            return self._rules.classify(r_ext, s_ext)
        except RuleConflictError as exc:
            raise ConsistencyError(
                f"pair classifies as both matching and distinct: "
                f"{dict(r_row)!r} / {dict(s_row)!r}"
            ) from exc

    def verify(self) -> SoundnessReport:
        """Verify the soundness criteria (the prototype's ``verify``)."""
        matching = self.matching_table()
        with self._tracer.span("identify.soundness") as span:
            report = verify_soundness(matching)
            span.set("sound", report.is_sound)
        return report

    def run(self) -> IdentificationResult:
        """Execute the full pipeline and bundle the outcome."""
        with self._tracer.span("identify.run") as span:
            matching = self.matching_table()
            negative = self.negative_matching_table()
            extended_r, extended_s = self.extended_relations()
            report = self.verify()
            pair_count = len(extended_r) * len(extended_s)
            span.set("pairs", pair_count)
            span.set("matches", len(matching))
            span.set("non_matches", len(negative))
        result = IdentificationResult(
            matching=matching,
            negative=negative,
            extended_r=extended_r,
            extended_s=extended_s,
            report=report,
            pair_count=pair_count,
        )
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("pipeline.pairs", pair_count)
            metrics.inc("pipeline.unknown", result.undetermined_count)
        return result

    def integrate(self):
        """The integrated table T_RS (see :mod:`repro.core.integration`)."""
        from repro.core.integration import integrate

        extended_r, extended_s = self.extended_relations()
        matching = self.matching_table()
        with self._tracer.span("identify.integrate") as span:
            integrated = integrate(extended_r, extended_s, matching)
            span.set("rows", len(integrated))
        return integrated
