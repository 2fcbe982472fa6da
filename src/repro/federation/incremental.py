"""Incremental entity identification under source updates.

Because ILFD derivation is *row-local* (an ILFD fires on one tuple's
values; checking violations "involves only one tuple"), inserting or
deleting a tuple can only add or remove matches involving that tuple, and
supplying new ILFDs can only fill attribute values that were NULL.  The
:class:`IncrementalIdentifier` exploits exactly this:

- it keeps each source tuple's *extended* row plus a hash index from
  complete (fully non-NULL) extended-key values to tuple keys,
- an insert goes through :func:`admit` (normalise, key, duplicate
  check, ILFD extension, a probe of the opposite index, the consistency
  verdict) and only then writes; serving's ``/ingest`` admits through
  the same routine, probing the store instead,
- a delete removes the row's index entries and its matches,
- `add_ilfds` re-derives only the rows that still have NULL extended-key
  attributes (appending to the ILFD order, so FIRST_MATCH commitments
  already made are never revised — which is what makes knowledge addition
  monotone, Section 3.3).

**Refused updates.**  An update is refused — it raises
:class:`~repro.core.errors.ConsistencyError` with nothing written — iff
:class:`~repro.core.identifier.EntityIdentifier` over the post-update
sources (ILFD duals on) would raise.  The verdict
(:func:`~repro.core.consistency.check_matches`) stays local: an insert
judges the new tuple's pairs, a delete the one pair left when its
extended-key group drops to one tuple per side, and `add_ilfds` every
match of the post-update state.  A pair whose R or S tuple is matched to
another tuple too witnesses an unsound key: it is recorded, and
:meth:`IncrementalIdentifier.verify` reports the key.

The state after any operation sequence equals a from-scratch batch run
over the current sources — enforced by property-based tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.consistency import MatchCheck, check_matches, dual_rules
from repro.core.errors import CoreError
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import (
    KeyValues,
    MatchEntry,
    MatchingTable,
    key_values,
)
from repro.core.soundness import SoundnessReport, verify_soundness
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.errors import InjectedFault, SourceLoadError
from repro.resilience.faults import (
    NO_OP_INJECTOR,
    SITE_SOURCE_LOAD_R,
    SITE_SOURCE_LOAD_S,
    FaultInjector,
)
from repro.resilience.retry import RetryPolicy
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.rules.engine import RuleEngine
from repro.store.base import MatchStore
from repro.store.memory import MemoryStore

__all__ = ["Pair", "Delta", "Admitted", "admit", "IncrementalIdentifier"]

Pair = Tuple[KeyValues, KeyValues]


@dataclass(frozen=True)
class Delta:
    """The matching-table change produced by one update."""

    added: Tuple[Pair, ...] = ()
    removed: Tuple[Pair, ...] = ()

    def is_empty(self) -> bool:
        """True iff the update changed no matches."""
        return not self.added and not self.removed


#: extended row -> (the opposite side's ``(key, extended row)`` sharing
#: its complete extended key, in recording order; same-side count).
Probe = Callable[[Row], Tuple[Sequence[Tuple[KeyValues, Row]], int]]


class Admitted(NamedTuple):
    """One tuple :func:`admit` wrote, with its new matched pairs."""

    key: KeyValues
    raw: Row
    extended: Row
    fired: Tuple[ILFD, ...]
    pairs: Tuple[Pair, ...]


def admit(
    store: MatchStore,
    side: str,
    schema: Schema,
    raw: Mapping[str, Any],
    *,
    engine: DerivationEngine,
    extended_key: ExtendedKey,
    rules: RuleEngine,
    rule: str,
    exists: Callable[[KeyValues], bool],
    probe: Probe,
    before_write: Callable[[], None],
) -> Admitted:
    """Normalise → key → duplicate check → extend → probe → verdict → write.

    Raises :class:`~repro.core.errors.CoreError` on a duplicate key and
    :class:`~repro.core.errors.ConsistencyError` on a contradicted
    match, with nothing written; the new pairs witness an unsound key
    iff the tuple has several partners or a same-side twin.  Then
    *before_write*, the row, its ILFD firings, and one match per
    partner attributed to the identity *rule*.
    """
    values: Dict[str, Any] = {}
    for name in schema.names:
        value = raw[name] if name in raw else NULL
        values[name] = NULL if value is None else value
    normalised = Row(values)
    key = key_values(normalised, schema.primary_key)
    if exists(key):
        raise CoreError(f"duplicate key {key!r} on insert")
    result = engine.extend_row(normalised, list(extended_key.attributes))
    extended = result.row
    partners, peers = probe(extended)
    matches = [
        ((key, other), extended, row) if side == "r" else ((other, key), row, extended)
        for other, row in partners
    ]
    witness = len(partners) > 1 or peers > 0
    check_matches(rules, ((pair, r, s, witness) for pair, r, s in matches))
    before_write()
    store.put_row(side, key, normalised, extended)
    if result.fired:
        store.record_derivation(
            side,
            key,
            rule=", ".join(f.name or repr(f) for f in result.fired),
            derived=result.derived,
        )
    for (r_key, s_key), r_row, s_row in matches:
        store.record_match(r_key, s_key, r_row, s_row, rule=rule)
    pairs = tuple(pair for pair, _r, _s in matches)
    return Admitted(key, normalised, extended, result.fired, pairs)


class _Side:
    """Per-relation incremental state."""

    __slots__ = ("name", "schema", "key_attrs", "raw", "extended", "index")

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        key = schema.primary_key
        self.key_attrs: Tuple[str, ...] = tuple(
            n for n in schema.names if n in key
        )
        self.raw: Dict[KeyValues, Row] = {}
        self.extended: Dict[KeyValues, Row] = {}
        self.index: Dict[Tuple[Any, ...], Set[KeyValues]] = defaultdict(set)

    def copy(self) -> "_Side":
        """An independent copy of the side's rows and index (rows are shared)."""
        clone = _Side(self.name, self.schema)
        clone.raw = dict(self.raw)
        clone.extended = dict(self.extended)
        for complete, keys in self.index.items():
            clone.index[complete] = set(keys)
        return clone


class IncrementalIdentifier:
    """Maintains MT_RS under inserts, deletes, and new ILFDs.

    Parameters mirror :class:`~repro.core.identifier.EntityIdentifier`,
    except the sources start out empty (seed them with
    :meth:`insert_r` / :meth:`insert_s` or :meth:`load`).  The
    distinctness rules are the ILFD duals (Proposition 1); an update
    they contradict raises :class:`~repro.core.errors.ConsistencyError`
    with nothing written (see the module docstring).

    *store* is the persistence backend every mutation writes through to
    (rows, matches, journal).  It defaults to a fresh
    :class:`~repro.store.MemoryStore`, so the journal is always
    available; pass a :class:`~repro.store.SqliteStore` for durability,
    or use :meth:`checkpoint` / :meth:`resume` to snapshot and reload
    whole sessions.
    """

    def __init__(
        self,
        r_schema: Schema,
        s_schema: Schema,
        extended_key: ExtendedKey | Sequence[str],
        *,
        ilfds: ILFDSet | Iterable[ILFD] = (),
        policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH,
        tracer: Optional[Tracer] = None,
        store: Optional[MatchStore] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if not isinstance(extended_key, ExtendedKey):
            extended_key = ExtendedKey(list(extended_key))
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._key = extended_key
        self._policy = policy
        self._ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
        self._engine = DerivationEngine(
            self._ilfds, policy=policy, tracer=self._tracer
        )
        self._rules = dual_rules(self._ilfds)
        self._r = _Side("r", r_schema)
        self._s = _Side("s", s_schema)
        self._matches: Set[Pair] = set()
        self.version = 0
        self._identity_rule_name = extended_key.identity_rule().name
        self._retry = retry_policy
        self._injector = (
            fault_injector if fault_injector is not None else NO_OP_INJECTOR
        )
        self._store = store if store is not None else MemoryStore(tracer=tracer)
        self._store.set_key_attributes(self._r.key_attrs, self._s.key_attrs)
        self._store.set_extended_key_attributes(extended_key.attributes)

    def _bump_version(self) -> None:
        """Advance the delta cursor, keeping the store's copy current.

        Persisting the cursor on every bump is what lets a resumed
        checkpoint be updated and resumed *again* from the same file
        without an explicit re-checkpoint.
        """
        self.version += 1
        self._store.set_meta("version", str(self.version))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def extended_key(self) -> ExtendedKey:
        """The extended key in use."""
        return self._key

    @property
    def ilfds(self) -> ILFDSet:
        """The current (growing) ILFD set."""
        return self._ilfds

    @property
    def policy(self) -> DerivationPolicy:
        """The ILFD derivation policy in use."""
        return self._policy

    @property
    def store(self) -> MatchStore:
        """The persistence backend all mutations write through to."""
        return self._store

    @property
    def tracer(self) -> Tracer:
        """The tracer all spans and metrics flow through."""
        return self._tracer

    def match_pairs(self) -> Set[Pair]:
        """A copy of the current matched-pair set."""
        return set(self._matches)

    def matching_table(self) -> MatchingTable:
        """The current MT_RS (rows carry the extended values)."""
        table = MatchingTable(
            r_key_attributes=self._r.key_attrs,
            s_key_attributes=self._s.key_attrs,
        )
        for r_key, s_key in sorted(self._matches):
            table.add(
                MatchEntry(
                    self._r.extended[r_key],
                    self._s.extended[s_key],
                    r_key,
                    s_key,
                )
            )
        return table

    def store_matching_table(self) -> MatchingTable:
        """MT_RS materialised from the store (must mirror the live state)."""
        return self._store.matching_table()

    def verify(self) -> SoundnessReport:
        """Soundness (uniqueness-constraint) check on the current state."""
        return verify_soundness(self.matching_table())

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Snapshot the whole session into a SQLite checkpoint at *path*.

        The checkpoint carries both sources (raw and extended), the
        matched-pair set, the derivation journal, the knowledge (extended
        key, ILFDs, policy), and the delta cursor (``version``) — enough
        for :meth:`resume` to continue applying deltas in a new process
        without re-evaluating settled pairs.
        """
        from repro.store.checkpoint import checkpoint_incremental

        checkpoint_incremental(
            self, path, tracer=self._tracer, fault_injector=self._injector
        ).close()

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        tracer: Optional[Tracer] = None,
        verify: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> "IncrementalIdentifier":
        """Reload a :meth:`checkpoint` and continue the session.

        The resumed identifier writes through to the opened checkpoint
        store (further updates persist into the same file).  With
        ``verify=True`` the journal is replayed against the stored tables
        and the uniqueness/consistency constraints audited before the
        state is trusted.
        """
        from repro.store.checkpoint import resume_incremental

        return resume_incremental(
            path,
            tracer=tracer,
            verify=verify,
            retry_policy=retry_policy,
            fault_injector=fault_injector,
        )

    def relations(self) -> Tuple[Relation, Relation]:
        """The current raw sources, as relations (for batch cross-checks)."""
        r = Relation(
            self._r.schema,
            [dict(row) for row in self._r.raw.values()],
            name="R",
            enforce_keys=False,
        )
        s = Relation(
            self._s.schema,
            [dict(row) for row in self._s.raw.values()],
            name="S",
            enforce_keys=False,
        )
        return r, s

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def load(self, r: Relation, s: Relation) -> Delta:
        """Insert both sources row by row; returns the combined delta.

        Each row is admitted like :meth:`insert_r` / :meth:`insert_s`, so
        a contradicted row raises with the rows before it kept.
        """
        added: List[Pair] = []
        with self._tracer.span(
            "federation.load", r_rows=len(r), s_rows=len(s)
        ) as span:
            for row in r:
                added.extend(self.insert_r(row).added)
            for row in s:
                added.extend(self.insert_s(row).added)
            span.set("matches_added", len(added))
        return Delta(added=tuple(added))

    # ------------------------------------------------------------------
    # Fault-tolerant source access
    # ------------------------------------------------------------------
    def fetch_source(self, side: str, loader: Callable[[], Relation]) -> Relation:
        """Fetch one source relation through the retry policy.

        *loader* is any zero-argument callable producing the side's
        current :class:`~repro.relational.relation.Relation` — a file
        read, a remote query, a generator.  Each attempt first consults
        the fault injector at the side's ``federation.load_source.*``
        site, so chaos tests can make loads fail deterministically.
        Transient failures (:class:`OSError`, :class:`ConnectionError`,
        injected faults) are retried per the policy; a final failure is
        wrapped in :class:`~repro.resilience.errors.SourceLoadError`
        carrying the ``side``, which
        :class:`~repro.federation.view.VirtualIntegratedView` catches to
        degrade instead of crash.
        """
        if side not in ("r", "s"):
            raise CoreError(f"side must be 'r' or 's', got {side!r}")
        site = SITE_SOURCE_LOAD_R if side == "r" else SITE_SOURCE_LOAD_S

        def attempt() -> Relation:
            self._injector.fire(site)
            return loader()

        try:
            if self._retry is not None and self._retry.max_attempts > 1:
                return self._retry.call(
                    attempt,
                    operation=site,
                    retry_on=(InjectedFault, OSError, ConnectionError),
                    tracer=self._tracer,
                )
            return attempt()
        except Exception as exc:
            if self._tracer.enabled:
                self._tracer.metrics.inc("resilience.source_failures")
            raise SourceLoadError(
                f"source {side.upper()} failed to load: {exc}", side=side
            ) from exc

    def load_sources(
        self,
        r_loader: Callable[[], Relation],
        s_loader: Callable[[], Relation],
    ) -> Delta:
        """Fetch both sources (retried) and :meth:`load` them.

        Both fetches happen before any mutation, so a load that fails
        even after retries leaves the identifier untouched — the caller
        sees a :class:`~repro.resilience.errors.SourceLoadError` and the
        previous state survives intact.
        """
        r = self.fetch_source("r", r_loader)
        s = self.fetch_source("s", s_loader)
        return self.load(r, s)

    def replace_source(self, side: str, relation: Relation) -> Delta:
        """Swap one side's rows for *relation*'s, by key diff.

        Rows whose keys vanished are deleted, new keys inserted, and
        changed rows (same key, different content) replaced — so match
        deltas are exactly those the individual updates would produce,
        and unchanged rows keep their settled matches untouched.  This
        is the refresh primitive the virtual view uses per source.

        The swap is atomic: it runs in one store transaction, and if any
        update is refused (e.g. a new row the ILFD duals contradict) the
        store rolls back and both sides, the matches and ``version`` are
        restored to their state on entry before the error propagates.
        """
        state = self._r if side == "r" else self._s if side == "s" else None
        if state is None:
            raise CoreError(f"side must be 'r' or 's', got {side!r}")
        added: List[Pair] = []
        removed: List[Pair] = []
        incoming: Dict[KeyValues, Dict[str, Any]] = {}
        for row in relation:
            values = {
                name: NULL if row.get(name, NULL) is None else row.get(name, NULL)
                for name in state.schema.names
            }
            incoming[key_values(Row(values), state.key_attrs)] = values
        delete = self.delete_r if side == "r" else self.delete_s
        insert = self.insert_r if side == "r" else self.insert_s
        entry = (self._r.copy(), self._s.copy(), set(self._matches), self.version)
        try:
            with self._store.transaction(), self._tracer.span(
                "federation.replace_source", side=side, rows=len(incoming)
            ) as span:
                for key in sorted(set(state.raw) - set(incoming)):
                    removed.extend(delete(key).removed)
                changed = {
                    key
                    for key in set(state.raw) & set(incoming)
                    if dict(state.raw[key]) != incoming[key]
                }
                for key in sorted(changed):
                    removed.extend(delete(key).removed)
                for key in sorted((set(incoming) - set(state.raw)) | changed):
                    added.extend(insert(incoming[key]).added)
                span.set("matches_added", len(added))
                span.set("matches_removed", len(removed))
        except BaseException:
            self._r, self._s, self._matches, self.version = entry
            raise
        return Delta(added=tuple(sorted(added)), removed=tuple(sorted(removed)))

    def insert_r(self, row: Mapping[str, Any]) -> Delta:
        """Insert one R tuple; returns the new matches it created."""
        return self._insert(self._r, self._s, row)

    def insert_s(self, row: Mapping[str, Any]) -> Delta:
        """Insert one S tuple; returns the new matches it created."""
        return self._insert(self._s, self._r, row)

    def delete_r(self, key: Mapping[str, Any] | KeyValues) -> Delta:
        """Delete an R tuple by key; returns the matches removed."""
        return self._delete(self._r, key, r_side=True)

    def delete_s(self, key: Mapping[str, Any] | KeyValues) -> Delta:
        """Delete an S tuple by key; returns the matches removed."""
        return self._delete(self._s, key, r_side=False)

    def add_ilfds(self, ilfds: Iterable[ILFD]) -> Delta:
        """Supply new knowledge; only NULL-bearing rows are re-derived.

        New ILFDs are appended *after* the existing ones, so FIRST_MATCH
        derivations already committed never change — additions are
        monotone: the returned delta contains no removals.  Every
        re-derivation is planned and every match of the resulting state
        judged against the grown rule set before anything changes.
        """
        new = [f for f in ilfds if f not in self._ilfds]
        if not new:
            return Delta()
        ilfd_set = self._ilfds.extend(new)
        engine = DerivationEngine(
            ilfd_set, policy=self._policy, tracer=self._tracer
        )
        rules = dual_rules(ilfd_set)
        targets = list(self._key.attributes)
        added: List[Pair] = []
        with self._tracer.span(
            "federation.add_ilfds", new_ilfds=len(new)
        ) as span:
            plans = []
            for side in (self._r, self._s):
                for key, row in side.extended.items():
                    if not row.has_nulls(targets):
                        continue  # complete rows cannot gain values
                    result = engine.extend_row(side.raw[key], targets)
                    if result.row != row:
                        plans.append((side, key, row, result))
            check_matches(rules, self._post_update_matches(plans))
            self._ilfds, self._engine, self._rules = ilfd_set, engine, rules
            self._bump_version()
            for side, key, row, result in plans:
                side.extended[key] = result.row
                self._store.put_row(side.name, key, side.raw[key], result.row)
                new_values = {
                    attr: value
                    for attr, value in result.derived.items()
                    if is_null(row.get(attr, NULL))
                }
                if new_values:
                    self._store.record_derivation(
                        side.name,
                        key,
                        rule=", ".join(f.name or repr(f) for f in result.fired),
                        derived=new_values,
                    )
                other = self._s if side is self._r else self._r
                for partner, partner_row in self._probe(side, other, result.row)[0]:
                    pair, rows = (
                        ((key, partner), (result.row, partner_row))
                        if side is self._r
                        else ((partner, key), (partner_row, result.row))
                    )
                    self._matches.add(pair)
                    added.append(pair)
                    self._store.record_match(
                        *pair, *rows, rule=self._identity_rule_name
                    )
                complete = self._complete_values(result.row)
                if complete is not None:
                    side.index[complete].add(key)
            span.set("rows_rederived", len(plans))
            span.set("matches_added", len(added))
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("federation.ilfd_updates")
            metrics.inc("federation.rows_rederived", len(plans))
            metrics.observe("federation.delta_added", len(added))
        return Delta(added=tuple(added))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _complete_values(self, row: Row) -> Optional[Tuple[Any, ...]]:
        values = row.values_for(self._key.attributes)
        if any(is_null(v) for v in values):
            return None
        return values

    def _probe(self, side: _Side, other: _Side, extended: Row) -> Tuple[list, int]:
        """:data:`Probe` over the in-memory hash indexes."""
        complete = self._complete_values(extended)
        if complete is None:
            return [], 0
        partners = sorted(other.index.get(complete, ()))
        peers = len(side.index.get(complete, ()))
        return [(key, other.extended[key]) for key in partners], peers

    def _post_update_matches(self, plans) -> Iterator[MatchCheck]:
        """Every match once *plans* (``add_ilfds`` re-derivations) apply."""
        rederived = {(side.name, key): result.row for side, key, _, result in plans}
        groups: Dict[Tuple[Any, ...], Tuple[dict, dict]] = defaultdict(lambda: ({}, {}))
        for position, side in enumerate((self._r, self._s)):
            for key, row in side.extended.items():
                row = rederived.get((side.name, key), row)
                complete = self._complete_values(row)
                if complete is not None:
                    groups[complete][position][key] = row
        for r_rows, s_rows in groups.values():
            witness = len(r_rows) > 1 or len(s_rows) > 1
            for r_key, r_row in r_rows.items():
                for s_key, s_row in s_rows.items():
                    yield (r_key, s_key), r_row, s_row, witness

    def _insert(
        self, side: _Side, other: _Side, raw: Mapping[str, Any]
    ) -> Delta:
        admitted = admit(
            self._store,
            side.name,
            side.schema,
            raw,
            engine=self._engine,
            extended_key=self._key,
            rules=self._rules,
            rule=self._identity_rule_name,
            exists=side.raw.__contains__,
            probe=lambda extended: self._probe(side, other, extended),
            before_write=self._bump_version,
        )
        side.raw[admitted.key] = admitted.raw
        side.extended[admitted.key] = admitted.extended
        complete = self._complete_values(admitted.extended)
        if complete is not None:
            side.index[complete].add(admitted.key)
        added = admitted.pairs
        self._matches.update(added)
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("federation.inserts")
            metrics.observe("federation.delta_added", len(added))
        return Delta(added=added)

    def _delete(
        self, side: _Side, key: Mapping[str, Any] | KeyValues, *, r_side: bool
    ) -> Delta:
        if isinstance(key, Mapping):
            key = tuple(sorted(key.items()))
        if key not in side.raw:
            raise CoreError(f"no tuple with key {key!r}")
        complete = self._complete_values(side.extended[key])
        if complete is not None:
            # Only a group shrinking to 1×1 can leave a non-witness pair.
            other = self._s if r_side else self._r
            left = side.index[complete] - {key}
            partners = other.index.get(complete, set())
            if len(left) == len(partners) == 1:
                (kept,), (partner,) = left, partners
                r_key, s_key = (kept, partner) if r_side else (partner, kept)
                r_row, s_row = self._r.extended[r_key], self._s.extended[s_key]
                check_matches(self._rules, [((r_key, s_key), r_row, s_row, False)])
        side.extended.pop(key)
        side.raw.pop(key)
        self._bump_version()
        self._store.delete_row(side.name, key)
        if complete is not None:
            side.index[complete].discard(key)
            if not side.index[complete]:
                del side.index[complete]
        removed = [
            pair
            for pair in self._matches
            if (pair[0] if r_side else pair[1]) == key
        ]
        for pair in removed:
            self._matches.discard(pair)
            self._store.remove_match(
                pair[0], pair[1], reason=f"{side.name.upper()} tuple deleted"
            )
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("federation.deletes")
            metrics.observe("federation.delta_removed", len(removed))
        return Delta(removed=tuple(sorted(removed)))
