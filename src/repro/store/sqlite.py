"""The durable backend: stdlib ``sqlite3``, no new dependencies.

One SQLite file holds the matching table, the negative matching table,
the derivation journal, the per-side source rows, and a metadata table —
the full state a checkpoint needs and the full provenance ``repro
explain-pair`` reads back.  Keys and rows are stored as the canonical
JSON text of :mod:`repro.store.codec`, so equality of encoded text is
equality of keys and a load reproduces the in-memory tables
bit-identically.

The connection runs in autocommit (``isolation_level=None``); writes are
grouped explicitly by :meth:`SqliteStore.transaction`, which issues
``BEGIN IMMEDIATE``/``COMMIT``/``ROLLBACK`` with nesting support — this
is what makes the pair executor's store write all-or-nothing.

File-backed stores run in **WAL mode** (``journal_mode=WAL``,
``synchronous=NORMAL``): readers on separate connections see a
consistent snapshot while one writer commits, which is what lets the
serving layer (:mod:`repro.serving`) open read-only replica connections
against a store that is still being written to.  When the store knows
the extended-key attributes (:meth:`MatchStore.set_extended_key_attributes`),
every persisted source row also carries the canonical encoding of its
complete extended-key values in the ``ext_key`` column, covered by the
``source_rows_ext`` index — the ``resolve(source, key)`` and
search-before-insert lookups are index-only scans.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from dataclasses import replace
from typing import Iterator, List, Optional, Tuple

from repro.observability.tracer import Tracer
from repro.relational.row import Row
from repro.resilience.errors import InjectedFault
from repro.resilience.faults import NO_OP_INJECTOR, SITE_STORE_COMMIT, FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.store.base import (
    META_EXTENDED_KEY_ATTRIBUTES,
    META_SIDES,
    MatchStore,
    Pair,
)
from repro.store.codec import (
    KeyValues,
    decode_key,
    decode_row,
    encode_key,
    encode_row,
)
from repro.store.entity import EntityRecord, decode_entity, encode_entity
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.journal import JournalEntry, entry_checksum

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS matches (
    r_key TEXT NOT NULL,
    s_key TEXT NOT NULL,
    r_row TEXT NOT NULL,
    s_row TEXT NOT NULL,
    PRIMARY KEY (r_key, s_key)
);
CREATE TABLE IF NOT EXISTS non_matches (
    r_key TEXT NOT NULL,
    s_key TEXT NOT NULL,
    r_row TEXT NOT NULL,
    s_row TEXT NOT NULL,
    PRIMARY KEY (r_key, s_key)
);
CREATE TABLE IF NOT EXISTS journal (
    seq      INTEGER PRIMARY KEY AUTOINCREMENT,
    ts       REAL NOT NULL,
    kind     TEXT NOT NULL,
    rule     TEXT NOT NULL DEFAULT '',
    r_key    TEXT,
    s_key    TEXT,
    payload  TEXT NOT NULL DEFAULT '{}',
    checksum TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS journal_r_key ON journal (r_key);
CREATE INDEX IF NOT EXISTS journal_s_key ON journal (s_key);
CREATE TABLE IF NOT EXISTS source_rows (
    side     TEXT NOT NULL,
    key      TEXT NOT NULL,
    raw      TEXT NOT NULL,
    extended TEXT NOT NULL,
    ext_key  TEXT,
    PRIMARY KEY (side, key)
);
CREATE TABLE IF NOT EXISTS entities (
    entity_id TEXT PRIMARY KEY,
    ext_key   TEXT,
    golden    TEXT NOT NULL,
    members   TEXT NOT NULL
);
"""

# Created after the column migrations (an old file's source_rows gains
# ext_key via ALTER TABLE first, or the index DDL would not parse).
_SCHEMA_INDEXES = """
CREATE INDEX IF NOT EXISTS source_rows_ext
    ON source_rows (side, ext_key, key) WHERE ext_key IS NOT NULL;
CREATE INDEX IF NOT EXISTS matches_s_key ON matches (s_key, r_key);
CREATE INDEX IF NOT EXISTS entities_ext
    ON entities (ext_key) WHERE ext_key IS NOT NULL;
"""


class SqliteStore(MatchStore):
    """SQLite-backed :class:`~repro.store.base.MatchStore`.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store
        (useful in tests: full SQL semantics, no file).
    tracer:
        Optional tracer for ``store.*`` metrics.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` applied to the
        transactional ``COMMIT`` itself — a commit that fails with a
        transient :class:`sqlite3.OperationalError` (a locked database)
        or an injected fault is re-issued per the policy while the
        transaction data is still intact; only after the budget is spent
        does the store roll back and raise.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted at
        the ``store.commit`` site immediately before each ``COMMIT``.
    check_same_thread:
        Forwarded to :func:`sqlite3.connect`, explicitly.  The default
        ``True`` keeps SQLite's guard: this connection may only be used
        from the thread that created it.  Pass ``False`` **only** when
        the caller enforces its own single-writer discipline — the
        serving layer does, funnelling every write through one dedicated
        writer thread (see :class:`repro.serving.MatchLookupService`).
        Concurrent *readers* never share this connection either way;
        they open their own read-only connections
        (:class:`repro.serving.ReplicaPool`).
    read_only:
        Open a **replica**: the file is attached with ``mode=ro`` and
        ``PRAGMA query_only=ON``, no schema DDL or migration runs, and
        every write raises ``sqlite3.OperationalError``.  Under WAL,
        such a connection reads a consistent snapshot while a separate
        writer connection commits — the serving layer opens one replica
        per worker thread.  Requires a file path (``":memory:"`` has
        nothing to share).
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        check_same_thread: bool = True,
        read_only: bool = False,
    ) -> None:
        super().__init__(tracer=tracer)
        self._path = str(path)
        self._closed = False
        self._read_only = read_only
        self._ext_key_attrs: Optional[Tuple[str, ...]] = None
        self._sides_cache: Optional[Tuple[str, ...]] = None
        if read_only and self._path == ":memory:":
            raise StoreError("a read-only store needs a file to share")
        try:
            if read_only:
                self._conn = sqlite3.connect(
                    f"file:{self._path}?mode=ro",
                    uri=True,
                    isolation_level=None,
                    check_same_thread=check_same_thread,
                )
            else:
                self._conn = sqlite3.connect(
                    self._path,
                    isolation_level=None,
                    check_same_thread=check_same_thread,
                )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open SQLite store at {path!r}: {exc}") from exc
        try:
            if read_only:
                # Belt and braces on top of mode=ro, and a cheap probe
                # that the file really is an initialised store.
                self._conn.execute("PRAGMA query_only=ON")
                self._conn.execute("SELECT 1 FROM meta LIMIT 1")
            else:
                self._apply_pragmas()
                self._conn.executescript(_SCHEMA)
                self._migrate_journal_checksums()
                self._migrate_source_ext_key()
                self._conn.executescript(_SCHEMA_INDEXES)
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            self._closed = True
            raise StoreIntegrityError(
                f"cannot initialise SQLite store at {path!r} "
                f"(corrupt or not a database): {exc}"
            ) from exc
        self._txn_depth = 0
        self._retry = retry_policy
        self._injector = (
            fault_injector if fault_injector is not None else NO_OP_INJECTOR
        )

    def _apply_pragmas(self) -> None:
        """WAL + NORMAL for file-backed stores (durable, reader-friendly).

        WAL lets read-only replica connections see a consistent snapshot
        while a writer commits; ``synchronous=NORMAL`` is WAL's
        recommended pairing (fsync on checkpoint, not on every commit —
        a power loss can lose the tail of the WAL but never corrupt the
        database).  ``:memory:`` stores have no WAL to speak of and keep
        SQLite's defaults.
        """
        if self._path == ":memory:":
            return
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")

    def _migrate_journal_checksums(self) -> None:
        """Add the checksum column to journals from before checksumming.

        Legacy entries keep an empty checksum (verified as *unknown*);
        everything appended from now on is content-checksummed.
        """
        columns = {
            record[1]
            for record in self._conn.execute("PRAGMA table_info(journal)")
        }
        if "checksum" not in columns:
            self._conn.execute(
                "ALTER TABLE journal ADD COLUMN checksum TEXT NOT NULL DEFAULT ''"
            )

    def _migrate_source_ext_key(self) -> None:
        """Add the ext_key lookup column to stores from before serving.

        Legacy rows keep ``ext_key`` NULL (invisible to the partial
        index) until :meth:`reindex_extended_keys` backfills them.
        """
        columns = {
            record[1]
            for record in self._conn.execute("PRAGMA table_info(source_rows)")
        }
        if "ext_key" not in columns:
            self._conn.execute("ALTER TABLE source_rows ADD COLUMN ext_key TEXT")

    @property
    def path(self) -> str:
        """The database file path (``":memory:"`` when ephemeral)."""
        return self._path

    @property
    def read_only(self) -> bool:
        """True for a ``mode=ro`` replica connection."""
        return self._read_only

    def size_bytes(self) -> int:
        if self._path == ":memory:":
            page_count = self._conn.execute("PRAGMA page_count").fetchone()[0]
            page_size = self._conn.execute("PRAGMA page_size").fetchone()[0]
            return int(page_count) * int(page_size)
        try:
            return os.path.getsize(self._path)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def put_match(
        self, r_key: KeyValues, s_key: KeyValues, r_row: Row, s_row: Row
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO matches (r_key, s_key, r_row, s_row) "
            "VALUES (?, ?, ?, ?)",
            (encode_key(r_key), encode_key(s_key), encode_row(r_row), encode_row(s_row)),
        )

    def put_non_match(
        self, r_key: KeyValues, s_key: KeyValues, r_row: Row, s_row: Row
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO non_matches (r_key, s_key, r_row, s_row) "
            "VALUES (?, ?, ?, ?)",
            (encode_key(r_key), encode_key(s_key), encode_row(r_row), encode_row(s_row)),
        )

    def delete_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM matches WHERE r_key = ? AND s_key = ?",
            (encode_key(r_key), encode_key(s_key)),
        )
        return cursor.rowcount > 0

    def _items(self, table: str) -> Iterator[Tuple[Pair, Tuple[Row, Row]]]:
        cursor = self._conn.execute(
            f"SELECT r_key, s_key, r_row, s_row FROM {table} "  # noqa: S608 - fixed names
            "ORDER BY r_key, s_key"
        )
        for r_key, s_key, r_row, s_row in cursor.fetchall():
            yield (
                (decode_key(r_key), decode_key(s_key)),
                (decode_row(r_row), decode_row(s_row)),
            )

    def match_items(self) -> Iterator[Tuple[Pair, Tuple[Row, Row]]]:
        return self._items("matches")

    def non_match_items(self) -> Iterator[Tuple[Pair, Tuple[Row, Row]]]:
        return self._items("non_matches")

    def _has(self, table: str, r_key: KeyValues, s_key: KeyValues) -> bool:
        cursor = self._conn.execute(
            f"SELECT 1 FROM {table} WHERE r_key = ? AND s_key = ?",  # noqa: S608
            (encode_key(r_key), encode_key(s_key)),
        )
        return cursor.fetchone() is not None

    def has_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        return self._has("matches", r_key, s_key)

    def has_non_match(self, r_key: KeyValues, s_key: KeyValues) -> bool:
        return self._has("non_matches", r_key, s_key)

    def append_journal(self, entry: JournalEntry) -> JournalEntry:
        cursor = self._conn.execute(
            "INSERT INTO journal (ts, kind, rule, r_key, s_key, payload, checksum) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                entry.timestamp,
                entry.kind,
                entry.rule,
                encode_key(entry.r_key) if entry.r_key is not None else None,
                encode_key(entry.s_key) if entry.s_key is not None else None,
                json.dumps(dict(entry.payload), sort_keys=True),
                entry_checksum(entry),
            ),
        )
        return replace(entry, seq=int(cursor.lastrowid))

    def _journal_checksums(self) -> dict:
        cursor = self._conn.execute("SELECT seq, checksum FROM journal")
        return {
            int(seq): checksum
            for seq, checksum in cursor.fetchall()
            if checksum
        }

    @staticmethod
    def _entry_from_record(record: Tuple) -> JournalEntry:
        seq, ts, kind, rule, r_key, s_key, payload = record
        return JournalEntry(
            seq=int(seq),
            timestamp=float(ts),
            kind=kind,
            rule=rule,
            r_key=decode_key(r_key) if r_key is not None else None,
            s_key=decode_key(s_key) if s_key is not None else None,
            payload=json.loads(payload),
        )

    def journal_entries(
        self,
        *,
        r_key: Optional[KeyValues] = None,
        s_key: Optional[KeyValues] = None,
    ) -> List[JournalEntry]:
        base = "SELECT seq, ts, kind, rule, r_key, s_key, payload FROM journal"
        if r_key is None and s_key is None:
            cursor = self._conn.execute(base + " ORDER BY seq")
            return [self._entry_from_record(record) for record in cursor.fetchall()]
        # Pull the superset touching either key, then apply the exact
        # `concerns` semantics in Python (ILFD entries are one-sided).
        encoded = [encode_key(k) for k in (r_key, s_key) if k is not None]
        placeholders = ", ".join("?" for _ in encoded)
        cursor = self._conn.execute(
            base
            + f" WHERE r_key IN ({placeholders}) OR s_key IN ({placeholders})"
            + " ORDER BY seq",
            encoded + encoded,
        )
        entries = [self._entry_from_record(record) for record in cursor.fetchall()]
        return [entry for entry in entries if entry.concerns(r_key, s_key)]

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
        )
        if key == META_EXTENDED_KEY_ATTRIBUTES:
            # The cached attribute tuple feeds every put_row's ext_key
            # computation; a direct meta write (checkpointing writes the
            # key without going through the setter) must not leave it
            # stale.
            self._ext_key_attrs = None
        elif key == META_SIDES:
            self._sides_cache = None

    def get_meta(self, key: str, default: Optional[str] = None) -> Optional[str]:
        cursor = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,))
        record = cursor.fetchone()
        return record[0] if record is not None else default

    def meta_items(self) -> Iterator[Tuple[str, str]]:
        cursor = self._conn.execute("SELECT key, value FROM meta ORDER BY key")
        return iter(cursor.fetchall())

    def put_row(self, side: str, key: KeyValues, raw: Row, extended: Row) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO source_rows "
            "(side, key, raw, extended, ext_key) VALUES (?, ?, ?, ?, ?)",
            (
                self._check_side(side),
                encode_key(key),
                encode_row(raw),
                encode_row(extended),
                self.extended_key_text(extended),
            ),
        )

    def delete_row(self, side: str, key: KeyValues) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM source_rows WHERE side = ? AND key = ?",
            (self._check_side(side), encode_key(key)),
        )
        return cursor.rowcount > 0

    def row_items(self, side: str) -> Iterator[Tuple[KeyValues, Row, Row]]:
        cursor = self._conn.execute(
            "SELECT key, raw, extended FROM source_rows WHERE side = ? "
            "ORDER BY key",
            (self._check_side(side),),
        )
        for key, raw, extended in cursor.fetchall():
            yield decode_key(key), decode_row(raw), decode_row(extended)

    # ------------------------------------------------------------------
    # Indexed point lookups (the serving layer's read path)
    # ------------------------------------------------------------------
    def extended_key_attributes(self) -> Tuple[str, ...]:
        # Cached: put_row consults this per persisted row, and a bulk
        # load must not pay one meta query per tuple.
        if self._ext_key_attrs is None:
            self._ext_key_attrs = super().extended_key_attributes()
        return self._ext_key_attrs

    def sides(self) -> Tuple[str, ...]:
        # Cached for the same reason: _check_side runs per put_row.
        if self._sides_cache is None:
            self._sides_cache = super().sides()
        return self._sides_cache

    def get_row(self, side: str, key: KeyValues) -> Optional[Tuple[Row, Row]]:
        cursor = self._conn.execute(
            "SELECT raw, extended FROM source_rows WHERE side = ? AND key = ?",
            (self._check_side(side), encode_key(key)),
        )
        record = cursor.fetchone()
        if record is None:
            return None
        return decode_row(record[0]), decode_row(record[1])

    def rows_by_extended_key(
        self, side: str, ext_key: str
    ) -> List[Tuple[KeyValues, Row, Row]]:
        cursor = self._conn.execute(
            "SELECT key, raw, extended FROM source_rows "
            "WHERE side = ? AND ext_key = ? ORDER BY key",
            (self._check_side(side), ext_key),
        )
        return [
            (decode_key(key), decode_row(raw), decode_row(extended))
            for key, raw, extended in cursor.fetchall()
        ]

    def put_entity(self, record: EntityRecord) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO entities "
            "(entity_id, ext_key, golden, members) VALUES (?, ?, ?, ?)",
            encode_entity(record),
        )

    def delete_entity(self, entity_id: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM entities WHERE entity_id = ?", (entity_id,)
        )
        return cursor.rowcount > 0

    def get_entity(self, entity_id: str) -> Optional[EntityRecord]:
        record = self._entity_select(
            "WHERE entity_id = ?", (entity_id,)
        )
        return record[0] if record else None

    def entity_by_ext_key(self, ext_key: str) -> Optional[EntityRecord]:
        record = self._entity_select("WHERE ext_key = ?", (ext_key,))
        return record[0] if record else None

    def entity_items(self) -> Iterator[EntityRecord]:
        return iter(self._entity_select())

    def _entity_select(
        self, where: str = "", params: Tuple = ()
    ) -> List[EntityRecord]:
        # Replicas opened against a pre-entities store file have no
        # entities table; report "none persisted" rather than erroring —
        # resolve-only serving over legacy stores must keep working.
        try:
            cursor = self._conn.execute(
                "SELECT entity_id, ext_key, golden, members FROM entities "
                f"{where} ORDER BY entity_id",  # noqa: S608 - fixed names
                params,
            )
        except sqlite3.OperationalError:
            if self._read_only:
                return []
            raise
        return [decode_entity(*record) for record in cursor.fetchall()]

    def matches_for_key(
        self, side: str, key: KeyValues
    ) -> List[Tuple[Pair, Tuple[Row, Row]]]:
        column = "r_key" if self._check_side(side) == "r" else "s_key"
        cursor = self._conn.execute(
            "SELECT r_key, s_key, r_row, s_row FROM matches "
            f"WHERE {column} = ? ORDER BY r_key, s_key",  # noqa: S608 - fixed names
            (encode_key(key),),
        )
        return [
            (
                (decode_key(r_key), decode_key(s_key)),
                (decode_row(r_row), decode_row(s_row)),
            )
            for r_key, s_key, r_row, s_row in cursor.fetchall()
        ]

    def counts(self) -> dict:
        """Entry counts straight from ``COUNT(*)`` — O(1) decode work.

        The base implementation materialises and decodes every row; at
        serving scale (1M matches) that is seconds of work per ``/stats``
        call, so SQLite counts its own tables instead.
        """
        count = lambda table, where="", params=(): int(  # noqa: E731
            self._conn.execute(
                f"SELECT COUNT(*) FROM {table} {where}",  # noqa: S608 - fixed names
                params,
            ).fetchone()[0]
        )
        try:
            entities = count("entities")
        except sqlite3.OperationalError:
            entities = 0  # replica over a pre-entities store file
        return {
            "matches": count("matches"),
            "non_matches": count("non_matches"),
            "journal": count("journal"),
            "r_rows": count("source_rows", "WHERE side = ?", ("r",)),
            "s_rows": count("source_rows", "WHERE side = ?", ("s",)),
            "entities": entities,
        }

    def reindex_extended_keys(self) -> int:
        """Backfill ``ext_key`` for rows persisted before the column.

        Requires the extended-key attributes to be known
        (:meth:`~repro.store.base.MatchStore.set_extended_key_attributes`,
        or checkpoint metadata).  Only rows whose ``ext_key`` is NULL are
        touched, so re-running is cheap; returns the number of rows that
        gained an index entry.
        """
        if not self.extended_key_attributes():
            raise StoreError(
                "cannot reindex extended keys: the store does not know the "
                "extended-key attributes (set_extended_key_attributes first)"
            )
        updated = 0
        with self.transaction():
            records = self._conn.execute(
                "SELECT side, key, extended FROM source_rows "
                "WHERE ext_key IS NULL"
            ).fetchall()
            for side, key, extended in records:
                text = self.extended_key_text(decode_row(extended))
                if text is None:
                    continue
                self._conn.execute(
                    "UPDATE source_rows SET ext_key = ? "
                    "WHERE side = ? AND key = ?",
                    (text, side, key),
                )
                updated += 1
        return updated

    @contextlib.contextmanager
    def transaction(self):
        if self._txn_depth:
            self._txn_depth += 1
            try:
                yield self
            finally:
                self._txn_depth -= 1
            return
        self._conn.execute("BEGIN IMMEDIATE")
        self._txn_depth = 1
        self._begin_metric_buffer()
        try:
            yield self
        except BaseException:
            self._rollback()
            raise
        else:
            self._commit()
        finally:
            self._txn_depth = 0

    def _rollback(self) -> None:
        """Abandon the open transaction; its metrics never happened."""
        self._discard_metric_buffer()
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass  # a failed COMMIT may already have rolled back

    def _commit(self) -> None:
        """Commit the open transaction, retrying transient failures.

        The ``store.commit`` injector site fires before each ``COMMIT``.
        A transient :class:`sqlite3.OperationalError` (or an injected
        fault standing in for one) leaves the transaction data intact,
        so the ``COMMIT`` alone is re-issued per the retry policy; once
        the budget is spent the transaction is rolled back — journal
        appends and sequence numbers included — and the failure raised,
        leaving metrics consistent with the (unchanged) data.
        """

        def do_commit() -> None:
            self._injector.fire(SITE_STORE_COMMIT)
            self._conn.execute("COMMIT")

        try:
            if self._retry is not None and self._retry.max_attempts > 1:
                self._retry.call(
                    do_commit,
                    operation="store.commit",
                    retry_on=(sqlite3.OperationalError, InjectedFault),
                    tracer=self._tracer,
                )
            else:
                do_commit()
        except BaseException:
            if self._tracer.enabled:
                self._tracer.metrics.inc("resilience.commit_failures")
            self._rollback()
            raise
        self._commit_metric_buffer()
        if self._tracer.enabled:
            self._tracer.metrics.inc("store.transactions")

    def integrity_check(self) -> None:
        """Detect file-level corruption: truncation, malformed pages.

        Compares the on-disk size against SQLite's own page accounting —
        a file shorter than ``page_count × page_size`` has lost its tail,
        which SQLite itself only notices when a read happens to touch a
        missing page — then runs ``PRAGMA integrity_check``.  Raises
        :class:`~repro.store.errors.StoreIntegrityError` on any finding.
        """
        try:
            if self._path != ":memory:":
                # Under WAL, committed pages may still live in the -wal
                # sidecar, making the main file legitimately shorter than
                # page_count × page_size; checkpoint them into the main
                # file first so the size comparison only ever fires on
                # genuine truncation.
                with contextlib.suppress(sqlite3.OperationalError):
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            page_count = int(
                self._conn.execute("PRAGMA page_count").fetchone()[0]
            )
            page_size = int(
                self._conn.execute("PRAGMA page_size").fetchone()[0]
            )
            if self._path != ":memory:":
                try:
                    actual = os.path.getsize(self._path)
                except OSError as exc:
                    raise StoreIntegrityError(
                        f"cannot stat SQLite store {self._path!r}: {exc}"
                    ) from exc
                expected = page_count * page_size
                if actual < expected:
                    raise StoreIntegrityError(
                        f"SQLite store {self._path!r} is truncated: "
                        f"{actual} bytes on disk, the header accounts for "
                        f"{expected}"
                    )
            findings = self._conn.execute("PRAGMA integrity_check").fetchall()
            if not findings or findings[0][0] != "ok":
                detail = "; ".join(str(row[0]) for row in findings[:3])
                raise StoreIntegrityError(
                    f"SQLite store {self._path!r} fails integrity_check: "
                    f"{detail or 'no verdict'}"
                )
        except sqlite3.DatabaseError as exc:
            raise StoreIntegrityError(
                f"SQLite store {self._path!r} is unreadable: {exc}"
            ) from exc

    def clear(self) -> None:
        with self.transaction():
            for table in (
                "matches",
                "non_matches",
                "journal",
                "meta",
                "source_rows",
                "entities",
            ):
                self._conn.execute(f"DELETE FROM {table}")  # noqa: S608 - fixed names
            try:
                self._conn.execute(
                    "DELETE FROM sqlite_sequence WHERE name = 'journal'"
                )
            except sqlite3.OperationalError:
                pass  # sqlite_sequence only exists after the first insert
        self._ext_key_attrs = None  # the meta rows they mirrored are gone
        self._sides_cache = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.close()

    def __repr__(self) -> str:
        return f"<SqliteStore path={self._path!r}>"
