"""The ``MatchStore`` protocol: durable MT_RS / NMT_RS persistence.

The paper materialises identification results in a matching table and a
negative matching table that outlive one identification run — "those
pairs evaluating to 'true' or 'false' can be represented in a matching
table and a negative matching table" — and reuses them across
integration sessions.  :class:`MatchStore` is that persistence surface:

- the two pair tables, keyed by canonical key encodings,
- the append-only **derivation journal** (:mod:`repro.store.journal`),
- raw/extended source rows per side (what checkpoints snapshot),
- a string metadata table (schemas, extended key, ILFDs, delta cursor).

Backends implement a small primitive vocabulary; the shared recording
API (``record_match`` / ``record_non_match`` / ``remove_match`` /
``record_derivation``), table materialisation, and the offline audits
(``check_constraints``, ``verify_journal``) live here, identical across
:class:`~repro.store.memory.MemoryStore` and
:class:`~repro.store.sqlite.SqliteStore`.
"""

from __future__ import annotations

import abc
import json
import time
from typing import (
    Any,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.matching_table import (
    MatchEntry,
    MatchingTable,
    NegativeMatchingTable,
    check_consistency,
)
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.nulls import is_null
from repro.relational.row import Row
from repro.store.codec import KeyValues, encode_key
from repro.store.entity import EntityRecord
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.journal import (
    KIND_ASSERT,
    KIND_CHECKPOINT,
    KIND_DISTINCTNESS,
    KIND_ENTITY,
    KIND_IDENTITY,
    KIND_ILFD,
    KIND_REMOVE,
    JournalEntry,
    entry_checksum,
    replay_journal,
)

__all__ = ["MatchStore", "SIDES"]

Pair = Tuple[KeyValues, KeyValues]

SIDES = ("r", "s")

META_R_KEY_ATTRIBUTES = "r_key_attributes"
META_S_KEY_ATTRIBUTES = "s_key_attributes"
# Same key checkpoints already seal (store/checkpoint.py META_EXTENDED_KEY),
# so every existing checkpoint file carries its extended-key attributes.
META_EXTENDED_KEY_ATTRIBUTES = "extended_key"
# N-source stores (entity builds) register their source names here; absent,
# the store keeps the paper's pairwise ("r", "s") vocabulary unchanged.
META_SIDES = "store_sides"


class MatchStore(abc.ABC):
    """Abstract persistence backend for matching state.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.observability.Tracer`; when given, the
        store emits ``store.*`` metrics (writes, removes, journal
        entries, transactions).
    """

    def __init__(self, *, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._metric_buffer: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Transactional metric buffering
    # ------------------------------------------------------------------
    # Metrics must tell the same story as the data: a rolled-back write
    # never happened, so its counters must not land either.  Backends
    # open a buffer when the outermost transaction begins, flush it after
    # a successful commit, and discard it on rollback; outside a
    # transaction `_metric_inc` hits the tracer directly.
    def _metric_inc(self, name: str, value: int = 1) -> None:
        if self._metric_buffer is not None:
            self._metric_buffer[name] = self._metric_buffer.get(name, 0) + value
        elif self._tracer.enabled:
            self._tracer.metrics.inc(name, value)

    def _begin_metric_buffer(self) -> None:
        if self._tracer.enabled and self._metric_buffer is None:
            self._metric_buffer = {}

    def _commit_metric_buffer(self) -> None:
        buffer, self._metric_buffer = self._metric_buffer, None
        if buffer:
            for name, value in buffer.items():
                self._tracer.metrics.inc(name, value)

    def _discard_metric_buffer(self) -> None:
        self._metric_buffer = None

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def put_match(
        self, r_key: KeyValues, s_key: KeyValues, r_row: Row, s_row: Row
    ) -> None:
        """Insert/replace one matching-table entry (no journal write)."""

    @abc.abstractmethod
    def put_non_match(
        self, r_key: KeyValues, s_key: KeyValues, r_row: Row, s_row: Row
    ) -> None:
        """Insert/replace one negative-table entry (no journal write)."""

    @abc.abstractmethod
    def delete_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        """Remove one matching-table entry; True iff it existed."""

    @abc.abstractmethod
    def match_items(self) -> Iterator[Tuple[Pair, Tuple[Row, Row]]]:
        """All matching entries as ``((r_key, s_key), (r_row, s_row))``."""

    @abc.abstractmethod
    def non_match_items(self) -> Iterator[Tuple[Pair, Tuple[Row, Row]]]:
        """All negative entries, same shape as :meth:`match_items`."""

    @abc.abstractmethod
    def has_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        """True iff the pair is in the matching table."""

    @abc.abstractmethod
    def has_non_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        """True iff the pair is in the negative matching table."""

    @abc.abstractmethod
    def append_journal(self, entry: JournalEntry) -> JournalEntry:
        """Append *entry*, assigning its ``seq``; returns the stored entry."""

    @abc.abstractmethod
    def journal_entries(
        self,
        *,
        r_key: Optional[KeyValues] = None,
        s_key: Optional[KeyValues] = None,
    ) -> List[JournalEntry]:
        """Journal entries in seq order, optionally filtered to a pair.

        With a key filter, returns exactly the entries for which
        :meth:`JournalEntry.concerns` holds — two-sided entries for the
        pair plus one-sided ILFD entries for either tuple.
        """

    def _journal_checksums(self) -> Mapping[int, str]:
        """``seq → stored content checksum`` for checksummed entries.

        Backends that persist :func:`~repro.store.journal.entry_checksum`
        alongside each entry override this; entries absent from the map
        (or mapped to ``""``) predate checksumming and verify as
        *unknown* rather than failing.
        """
        return {}

    @abc.abstractmethod
    def set_meta(self, key: str, value: str) -> None:
        """Set one metadata string."""

    @abc.abstractmethod
    def get_meta(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Read one metadata string."""

    @abc.abstractmethod
    def meta_items(self) -> Iterator[Tuple[str, str]]:
        """All metadata entries."""

    @abc.abstractmethod
    def put_row(self, side: str, key: KeyValues, raw: Row, extended: Row) -> None:
        """Persist one source tuple (raw and extended forms)."""

    @abc.abstractmethod
    def delete_row(self, side: str, key: KeyValues) -> bool:
        """Forget one source tuple; True iff it existed."""

    @abc.abstractmethod
    def row_items(self, side: str) -> Iterator[Tuple[KeyValues, Row, Row]]:
        """All persisted tuples of *side* as ``(key, raw, extended)``."""

    @abc.abstractmethod
    def put_entity(self, record: EntityRecord) -> None:
        """Insert/replace one canonical entity (no journal write)."""

    @abc.abstractmethod
    def delete_entity(self, entity_id: str) -> bool:
        """Remove one canonical entity; True iff it existed."""

    @abc.abstractmethod
    def get_entity(self, entity_id: str) -> Optional[EntityRecord]:
        """One canonical entity by id, or None."""

    @abc.abstractmethod
    def entity_items(self) -> Iterator[EntityRecord]:
        """All canonical entities in deterministic (entity-id) order."""

    def entity_by_ext_key(self, ext_key: str) -> Optional[EntityRecord]:
        """The canonical entity whose cluster key encodes to *ext_key*.

        Scan fallback (SqliteStore overrides with an indexed probe); at
        most one entity can own an extended-key text because equal
        complete extended keys put tuples in the same cluster.
        """
        for record in self.entity_items():
            if record.ext_key == ext_key:
                return record
        return None

    @abc.abstractmethod
    def transaction(self) -> ContextManager["MatchStore"]:
        """Group writes atomically (all-or-nothing on the backend)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop all persisted state (tables, journal, rows, metadata)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards."""

    def size_bytes(self) -> int:
        """Storage footprint in bytes (0 when not backed by a file)."""
        return 0

    # Context-manager support: ``with SqliteStore(path) as store`` closes
    # the backend on every exit path — how the serving layer and the CLI
    # guarantee no leaked connections when an error unwinds.
    def __enter__(self) -> "MatchStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_side(self, side: str) -> str:
        # Fast path first: the pairwise vocabulary never needs a meta read.
        if side in SIDES:
            return side
        registered = self.sides()
        if side not in registered:
            raise StoreError(
                f"unknown side {side!r}; expected one of {registered}"
            )
        return side

    # ------------------------------------------------------------------
    # Recording (shared journaling glue)
    # ------------------------------------------------------------------
    def record_match(
        self,
        r_key: KeyValues,
        s_key: KeyValues,
        r_row: Row,
        s_row: Row,
        *,
        rule: str = "",
        kind: str = KIND_IDENTITY,
        payload: Optional[Mapping[str, Any]] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Persist a match and journal the rule firing behind it."""
        if kind not in (KIND_IDENTITY, KIND_ASSERT):
            raise StoreError(f"matches are journaled as identity/assert, not {kind!r}")
        self.put_match(r_key, s_key, r_row, s_row)
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=kind,
                rule=rule,
                r_key=r_key,
                s_key=s_key,
                payload=dict(payload or {}),
            )
        )
        self._metric_inc("store.writes")
        self._metric_inc("store.journal_entries")

    def record_non_match(
        self,
        r_key: KeyValues,
        s_key: KeyValues,
        r_row: Row,
        s_row: Row,
        *,
        rule: str = "",
        payload: Optional[Mapping[str, Any]] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Persist a non-match and journal the distinctness firing."""
        self.put_non_match(r_key, s_key, r_row, s_row)
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=KIND_DISTINCTNESS,
                rule=rule,
                r_key=r_key,
                s_key=s_key,
                payload=dict(payload or {}),
            )
        )
        self._metric_inc("store.writes")
        self._metric_inc("store.journal_entries")

    def remove_match(
        self,
        r_key: KeyValues,
        s_key: KeyValues,
        *,
        reason: str = "source delete",
        timestamp: Optional[float] = None,
    ) -> bool:
        """Retract a match, journaling the retraction; True iff present."""
        existed = self.delete_match(r_key, s_key)
        if existed:
            self.append_journal(
                JournalEntry(
                    seq=0,
                    timestamp=timestamp if timestamp is not None else time.time(),
                    kind=KIND_REMOVE,
                    r_key=r_key,
                    s_key=s_key,
                    payload={"reason": reason},
                )
            )
            self._metric_inc("store.removes")
            self._metric_inc("store.journal_entries")
        return existed

    def record_derivation(
        self,
        side: str,
        key: KeyValues,
        *,
        rule: str,
        derived: Mapping[str, Any],
        timestamp: Optional[float] = None,
    ) -> None:
        """Journal one ILFD firing for the tuple *key* on *side*."""
        self._check_side(side)
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=KIND_ILFD,
                rule=rule,
                r_key=key if side == "r" else None,
                s_key=key if side == "s" else None,
                payload={"derived": dict(derived)},
            )
        )
        self._metric_inc("store.journal_entries")

    def record_checkpoint_marker(
        self, *, note: str = "", timestamp: Optional[float] = None
    ) -> None:
        """Journal a snapshot boundary."""
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=KIND_CHECKPOINT,
                payload={"note": note} if note else {},
            )
        )
        self._metric_inc("store.journal_entries")

    def record_entity(
        self,
        record: EntityRecord,
        *,
        rule: str = "",
        payload: Optional[Mapping[str, Any]] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Persist a canonical entity and journal its formation.

        The journal entry is the head of the entity's resolution log: a
        ``golden`` event naming the member tuples the cluster closed
        over.  Per-attribute survivorship decisions follow via
        :meth:`record_entity_decision`.
        """
        self.put_entity(record)
        event = {
            "entity_id": record.entity_id,
            "event": "golden",
            "members": [
                f"{source}:{encode_key(key)}" for source, key in record.members
            ],
        }
        event.update(payload or {})
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=KIND_ENTITY,
                rule=rule,
                payload=event,
            )
        )
        self._metric_inc("store.entity_writes")
        self._metric_inc("store.journal_entries")

    def record_entity_decision(
        self,
        entity_id: str,
        *,
        rule: str,
        payload: Mapping[str, Any],
        timestamp: Optional[float] = None,
    ) -> None:
        """Journal one entity-resolution decision (no table write).

        *payload* carries the kind-specific detail — ``event`` is
        ``"decision"`` for a survivorship pick (attribute, value, source,
        contested) or ``"violation"`` for a generalized-uniqueness
        breach (source, count).  Entries carry no pair keys, so journal
        replay and the matching-table audit are unaffected.
        """
        event = {"entity_id": entity_id}
        event.update(payload)
        self.append_journal(
            JournalEntry(
                seq=0,
                timestamp=timestamp if timestamp is not None else time.time(),
                kind=KIND_ENTITY,
                rule=rule,
                payload=event,
            )
        )
        self._metric_inc("store.journal_entries")

    def entity_log(self, entity_id: str) -> List[JournalEntry]:
        """All resolution-log entries for one entity, in journal order."""
        return [
            entry
            for entry in self.journal_entries()
            if entry.kind == KIND_ENTITY
            and entry.payload.get("entity_id") == entity_id
        ]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def match_pairs(self) -> Set[Pair]:
        """All matching pairs."""
        return {pair for pair, _ in self.match_items()}

    def non_match_pairs(self) -> Set[Pair]:
        """All negative pairs."""
        return {pair for pair, _ in self.non_match_items()}

    def set_sides(self, names: Tuple[str, ...]) -> None:
        """Register the store's source-side vocabulary (entity builds).

        Pairwise stores never call this and keep the paper's ``("r",
        "s")``.  Names must be unique and non-empty; the declaration
        order given here is the deterministic source-priority order
        survivorship and cluster rendering use.
        """
        names = tuple(names)
        if len(names) < 2:
            raise StoreError("a store needs at least two sides")
        if len(set(names)) != len(names) or any(not name for name in names):
            raise StoreError(f"side names must be unique and non-empty: {names!r}")
        self.set_meta(META_SIDES, json.dumps(list(names)))

    def sides(self) -> Tuple[str, ...]:
        """The store's registered side names (default: paper's R/S)."""
        text = self.get_meta(META_SIDES)
        return tuple(json.loads(text)) if text else SIDES

    def set_key_attributes(
        self, r_attributes: Tuple[str, ...], s_attributes: Tuple[str, ...]
    ) -> None:
        """Persist the per-side key attribute lists the tables render with."""
        self.set_meta(META_R_KEY_ATTRIBUTES, json.dumps(list(r_attributes)))
        self.set_meta(META_S_KEY_ATTRIBUTES, json.dumps(list(s_attributes)))

    def key_attributes(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The persisted key attribute lists ((), () when never set)."""
        r_text = self.get_meta(META_R_KEY_ATTRIBUTES)
        s_text = self.get_meta(META_S_KEY_ATTRIBUTES)
        return (
            tuple(json.loads(r_text)) if r_text else (),
            tuple(json.loads(s_text)) if s_text else (),
        )

    def set_extended_key_attributes(self, attributes: Tuple[str, ...]) -> None:
        """Persist the extended-key attribute list the lookups index by."""
        self.set_meta(META_EXTENDED_KEY_ATTRIBUTES, json.dumps(list(attributes)))

    def extended_key_attributes(self) -> Tuple[str, ...]:
        """The persisted extended-key attributes (() when never set)."""
        text = self.get_meta(META_EXTENDED_KEY_ATTRIBUTES)
        return tuple(json.loads(text)) if text else ()

    def extended_key_text(self, extended: Row) -> Optional[str]:
        """Canonical text of *extended*'s complete extended-key values.

        The lookup key behind ``resolve`` and search-before-insert: two
        tuples model the same entity under the paper's identity rule
        exactly when their complete extended-key values agree, so equal
        text ⇔ candidate match.  Returns ``None`` when the store does
        not know the extended-key attributes, or when any value is
        missing or NULL — Section 6.2's "NULL is not equal to NULL"
        means an incomplete tuple can never be found by equality lookup.
        """
        attributes = self.extended_key_attributes()
        if not attributes:
            return None
        pairs = []
        for attribute in sorted(attributes):
            if attribute not in extended:
                return None
            value = extended[attribute]
            if is_null(value):
                return None
            pairs.append((attribute, value))
        return encode_key(tuple(pairs))

    # ------------------------------------------------------------------
    # Point lookups (the serving layer's read vocabulary)
    # ------------------------------------------------------------------
    # Scan fallbacks keep every backend correct; SqliteStore overrides
    # them with indexed SQL so the serving hot path never scans.
    def get_row(self, side: str, key: KeyValues) -> Optional[Tuple[Row, Row]]:
        """One persisted tuple of *side* as ``(raw, extended)``, or None."""
        self._check_side(side)
        for row_key, raw, extended in self.row_items(side):
            if row_key == key:
                return raw, extended
        return None

    def rows_by_extended_key(
        self, side: str, ext_key: str
    ) -> List[Tuple[KeyValues, Row, Row]]:
        """All tuples of *side* whose complete extended key encodes to *ext_key*."""
        self._check_side(side)
        return [
            (key, raw, extended)
            for key, raw, extended in self.row_items(side)
            if self.extended_key_text(extended) == ext_key
        ]

    def matches_for_key(
        self, side: str, key: KeyValues
    ) -> List[Tuple[Pair, Tuple[Row, Row]]]:
        """Matching-table entries whose *side* key equals *key*."""
        position = 0 if self._check_side(side) == "r" else 1
        return [
            (pair, rows)
            for pair, rows in self.match_items()
            if pair[position] == key
        ]

    def _build_table(self, items: Iterator[Tuple[Pair, Tuple[Row, Row]]], cls):
        r_attrs, s_attrs = self.key_attributes()
        entries = []
        for (r_key, s_key), (r_row, s_row) in items:
            if not r_attrs:
                r_attrs = tuple(attr for attr, _ in r_key)
            if not s_attrs:
                s_attrs = tuple(attr for attr, _ in s_key)
            entries.append(MatchEntry(r_row, s_row, r_key, s_key))
        table = cls(r_key_attributes=r_attrs, s_key_attributes=s_attrs)
        for entry in sorted(entries, key=lambda e: e.pair):
            table.add(entry)
        return table

    def matching_table(self) -> MatchingTable:
        """MT_RS materialised from the store (deterministic pair order)."""
        return self._build_table(self.match_items(), MatchingTable)

    def negative_matching_table(self) -> NegativeMatchingTable:
        """NMT_RS materialised from the store (deterministic pair order)."""
        return self._build_table(self.non_match_items(), NegativeMatchingTable)

    # ------------------------------------------------------------------
    # Offline audits
    # ------------------------------------------------------------------
    def check_constraints(self) -> None:
        """Audit the paper's constraints over the persisted tables.

        Raises :class:`StoreIntegrityError` when the uniqueness
        constraint (no tuple matched twice) or the consistency constraint
        (MT ∩ NMT = ∅) fails — the offline counterpart of the pipeline's
        ``verify`` step, runnable against a store with no sources loaded.
        """
        matching = self.matching_table()
        violations = matching.uniqueness_violations()
        if violations["R"] or violations["S"]:
            raise StoreIntegrityError(
                "stored matching table violates the uniqueness constraint: "
                f"R={violations['R']!r} S={violations['S']!r}"
            )
        try:
            check_consistency(matching, self.negative_matching_table())
        except Exception as exc:
            raise StoreIntegrityError(
                f"stored tables violate the consistency constraint: {exc}"
            ) from exc

    def verify_journal(self) -> Tuple[int, int]:
        """Audit the journal and require it to reproduce the tables.

        Three checks, cheapest first:

        1. every entry whose stored content checksum is known must still
           hash to it (bit-rot / tampering detection),
        2. sequence numbers must be contiguous (a gap means entries were
           lost — truncation of the persisted journal),
        3. replaying the journal must reproduce the stored matching and
           negative tables exactly.

        Returns ``(match_count, non_match_count)`` on success; raises
        :class:`StoreIntegrityError` otherwise — a store whose provenance
        cannot explain its contents is treated as corrupt on load.  For
        the recovery path over a journal that *fails* here, see
        :meth:`longest_valid_journal_prefix`.
        """
        entries = self.journal_entries()
        checksums = self._journal_checksums()
        for entry in entries:
            stored = checksums.get(entry.seq, "")
            if stored and stored != entry_checksum(entry):
                raise StoreIntegrityError(
                    f"journal entry #{entry.seq} fails its content checksum "
                    "— the persisted journal is corrupted"
                )
        seqs = [entry.seq for entry in entries]
        if seqs and seqs != list(range(seqs[0], seqs[0] + len(seqs))):
            raise StoreIntegrityError(
                "journal sequence numbers are not contiguous — entries "
                "were lost (journal truncation or partial write)"
            )
        matches, negatives = replay_journal(entries)
        stored_matches = self.match_pairs()
        stored_negatives = self.non_match_pairs()
        if matches != stored_matches:
            missing = sorted(stored_matches - matches)[:3]
            phantom = sorted(matches - stored_matches)[:3]
            raise StoreIntegrityError(
                "journal replay does not reproduce the matching table "
                f"(unexplained entries: {missing!r}; journal-only: {phantom!r})"
            )
        if negatives != stored_negatives:
            raise StoreIntegrityError(
                "journal replay does not reproduce the negative matching table"
            )
        return len(stored_matches), len(stored_negatives)

    def longest_valid_journal_prefix(self) -> List[JournalEntry]:
        """The leading run of journal entries that still verifies.

        Walks the journal in seq order and stops at the first entry that
        fails its content checksum or breaks seq contiguity.  This is the
        provenance a salvage can still trust when :meth:`verify_journal`
        rejects the whole journal — the documented recovery path
        (``docs/RESILIENCE.md``) keeps this prefix and re-derives the
        rest from the sources.
        """
        checksums = self._journal_checksums()
        prefix: List[JournalEntry] = []
        previous: Optional[int] = None
        for entry in self.journal_entries():
            if previous is not None and entry.seq != previous + 1:
                break
            stored = checksums.get(entry.seq, "")
            if stored and stored != entry_checksum(entry):
                break
            prefix.append(entry)
            previous = entry.seq
        return prefix

    # ------------------------------------------------------------------
    # Bulk copy (checkpointing)
    # ------------------------------------------------------------------
    def copy_into(self, dest: "MatchStore") -> None:
        """Copy all persisted state into *dest* (journal order preserved).

        ``seq`` values are reassigned by *dest*'s append; relative order
        — all provenance semantics the journal carries — is unchanged.
        """
        with dest.transaction():
            # Meta first: a registered side vocabulary (META_SIDES) must
            # land before the per-side rows it legitimises.
            for key, value in self.meta_items():
                dest.set_meta(key, value)
            for side in self.sides():
                for key, raw, extended in self.row_items(side):
                    dest.put_row(side, key, raw, extended)
            for (r_key, s_key), (r_row, s_row) in self.match_items():
                dest.put_match(r_key, s_key, r_row, s_row)
            for (r_key, s_key), (r_row, s_row) in self.non_match_items():
                dest.put_non_match(r_key, s_key, r_row, s_row)
            for record in self.entity_items():
                dest.put_entity(record)
            for entry in self.journal_entries():
                dest.append_journal(entry)

    def counts(self) -> Mapping[str, int]:
        """Entry counts per table (diagnostics and the CLI summary)."""
        return {
            "matches": sum(1 for _ in self.match_items()),
            "non_matches": sum(1 for _ in self.non_match_items()),
            "journal": len(self.journal_entries()),
            "r_rows": sum(1 for _ in self.row_items("r")),
            "s_rows": sum(1 for _ in self.row_items("s")),
            "entities": sum(1 for _ in self.entity_items()),
        }
