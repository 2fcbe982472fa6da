"""Checkpoint/resume for incremental identification sessions.

A checkpoint is one SQLite file carrying everything an
:class:`~repro.federation.incremental.IncrementalIdentifier` is: both
source relations (raw and ILFD-extended rows), the matched-pair set, the
derivation journal, the knowledge (extended key + ILFD set + policy),
and the **delta cursor** — the identifier's monotone ``version`` counter,
so a resumed session knows exactly how much update history the snapshot
covers and continues applying deltas without re-evaluating settled
pairs.

On load, the journal is replayed and must reproduce the stored matching
table (:meth:`~repro.store.base.MatchStore.verify_journal`), and the
paper's uniqueness/consistency constraints are audited
(:meth:`~repro.store.base.MatchStore.check_constraints`) — a checkpoint
whose provenance cannot explain its contents is rejected as corrupt
rather than silently trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sqlite3
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.consistency import check_table, dual_rules
from repro.core.errors import ConsistencyError, CoreError
from repro.ilfd.conditions import Condition
from repro.ilfd.derivation import DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.faults import NO_OP_INJECTOR, SITE_CHECKPOINT, FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.store.base import SIDES, MatchStore
from repro.store.codec import (
    decode_row,
    decode_schema,
    decode_value,
    encode_key,
    encode_row,
    encode_schema,
    encode_value,
)
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.journal import entry_checksum, replay_journal
from repro.store.sqlite import SqliteStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.federation.incremental import IncrementalIdentifier
    from repro.relational.relation import Relation

__all__ = [
    "CHECKPOINT_FORMAT",
    "SalvageReport",
    "checkpoint_incremental",
    "resume_incremental",
    "salvage_incremental",
]

CHECKPOINT_FORMAT = "repro-store/1"

META_FORMAT = "format"
META_KIND = "kind"
META_CREATED = "created"
META_R_SCHEMA = "r_schema"
META_S_SCHEMA = "s_schema"
META_EXTENDED_KEY = "extended_key"
META_ILFDS = "ilfds"
META_POLICY = "policy"
META_VERSION = "version"

META_DIGEST_PREFIX = "section_digest."
_DIGEST_SECTIONS = ("rows_r", "rows_s", "matches", "journal")

_KIND_INCREMENTAL = "incremental-checkpoint"


def _encode_ilfds(ilfds: ILFDSet) -> str:
    """ILFDs as JSON — lossless, unlike the DBA-facing text format.

    ``repro.ilfd.io``'s knowledge-base syntax cannot represent every
    rule name (a name containing ``:`` re-parses differently), so
    checkpoints carry the structure itself: name plus (attribute,
    value) condition lists, values going through the store codec.
    """
    return json.dumps(
        [
            {
                "name": ilfd.name,
                "antecedent": [
                    [c.attribute, encode_value(c.value)]
                    for c in sorted(ilfd.antecedent)
                ],
                "consequent": [
                    [c.attribute, encode_value(c.value)]
                    for c in sorted(ilfd.consequent)
                ],
            }
            for ilfd in ilfds
        ],
        separators=(",", ":"),
    )


def _decode_ilfds(text: str) -> ILFDSet:
    """Inverse of :func:`_encode_ilfds`."""
    return ILFDSet(
        ILFD(
            [
                Condition(attr, decode_value(value))
                for attr, value in record["antecedent"]
            ],
            [
                Condition(attr, decode_value(value))
                for attr, value in record["consequent"]
            ],
            name=record["name"],
        )
        for record in json.loads(text or "[]")
    )


def _section_digest(parts: Iterable[str]) -> str:
    """Order-sensitive digest of one checkpoint section's canonical text."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:32]


def compute_section_digests(store: MatchStore) -> Dict[str, str]:
    """Content digests of a store's row, match, and journal sections.

    Built over the canonical codec encodings in each section's stable
    iteration order, so the digest of an untouched file reproduces
    exactly.  Checkpoints seal these into their metadata; resume
    recomputes and compares them before trusting anything
    (``docs/RESILIENCE.md``).
    """
    digests: Dict[str, str] = {}
    for side in SIDES:
        digests[f"rows_{side}"] = _section_digest(
            f"{encode_key(key)}|{encode_row(raw)}|{encode_row(extended)}"
            for key, raw, extended in store.row_items(side)
        )
    digests["matches"] = _section_digest(
        f"{encode_key(r_key)}|{encode_key(s_key)}"
        f"|{encode_row(r_row)}|{encode_row(s_row)}"
        for (r_key, s_key), (r_row, s_row) in store.match_items()
    )
    digests["journal"] = _section_digest(
        entry_checksum(entry) for entry in store.journal_entries()
    )
    return digests


def unseal_digests(store: MatchStore) -> None:
    """Clear the sealed section digests of a file being written through."""
    for name in _DIGEST_SECTIONS:
        if store.get_meta(META_DIGEST_PREFIX + name, ""):
            store.set_meta(META_DIGEST_PREFIX + name, "")


def checkpoint_incremental(
    identifier: "IncrementalIdentifier",
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> SqliteStore:
    """Snapshot *identifier* into a SQLite checkpoint at *path*.

    Overwrites any existing checkpoint at *path*.  Returns the (still
    open) destination store; callers that only want the file should
    ``close()`` it.

    The snapshot is **atomic at the file level**: it is written to
    ``path + ".tmp"`` and moved into place with :func:`os.replace` only
    once complete, so a crash (or ``kill -9``) mid-checkpoint leaves any
    previous checkpoint at *path* untouched and resumable.  Section
    digests (:func:`compute_section_digests`) are sealed into the
    metadata for resume to verify.  The optional *fault_injector* is
    consulted once at the ``store.checkpoint`` site before anything is
    written.
    """
    tracer = tracer if tracer is not None else NO_OP_TRACER
    injector = fault_injector if fault_injector is not None else NO_OP_INJECTOR
    injector.fire(SITE_CHECKPOINT)
    target = str(path)
    atomic = target != ":memory:"
    work_path = target + ".tmp" if atomic else target
    dest = SqliteStore(work_path, tracer=tracer)
    try:
        size = _write_checkpoint(identifier, dest, target, tracer)
    except BaseException:
        dest.close()
        if atomic and os.path.exists(work_path):
            os.remove(work_path)
        raise
    if atomic:
        dest.close()
        os.replace(work_path, target)
        dest = SqliteStore(target, tracer=tracer)
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.inc("store.checkpoints")
        metrics.observe("store.checkpoint_bytes", size)
    return dest


def _write_knowledge(dest: MatchStore, identifier: "IncrementalIdentifier") -> None:
    """The metadata that makes *dest* a resumable checkpoint of *identifier*."""
    for name, value in (
        (META_FORMAT, CHECKPOINT_FORMAT),
        (META_KIND, _KIND_INCREMENTAL),
        (META_CREATED, repr(time.time())),
        (META_R_SCHEMA, encode_schema(identifier._r.schema)),
        (META_S_SCHEMA, encode_schema(identifier._s.schema)),
        (META_EXTENDED_KEY, json.dumps(list(identifier.extended_key.attributes))),
        (META_ILFDS, _encode_ilfds(identifier.ilfds)),
        (META_POLICY, identifier.policy.value),
        (META_VERSION, str(identifier.version)),
    ):
        dest.set_meta(name, value)


def _write_checkpoint(
    identifier: "IncrementalIdentifier",
    dest: SqliteStore,
    target: str,
    tracer: Tracer,
) -> int:
    with tracer.span("store.checkpoint", path=target) as span:
        dest.clear()
        with dest.transaction():
            _write_knowledge(dest, identifier)
            dest.set_key_attributes(
                identifier._r.key_attrs, identifier._s.key_attrs
            )
            for side_name, side in (("r", identifier._r), ("s", identifier._s)):
                for key, raw in side.raw.items():
                    dest.put_row(side_name, key, raw, side.extended[key])
            for r_key, s_key in identifier.match_pairs():
                dest.put_match(
                    r_key,
                    s_key,
                    identifier._r.extended[r_key],
                    identifier._s.extended[s_key],
                )
            for entry in identifier.store.journal_entries():
                dest.append_journal(entry)
            dest.record_checkpoint_marker(
                note=f"version={identifier.version}"
            )
        # Seal the section digests last, once every section is final.
        with dest.transaction():
            for name, digest in compute_section_digests(dest).items():
                dest.set_meta(META_DIGEST_PREFIX + name, digest)
        size = dest.size_bytes()
        span.set("bytes", size)
        span.set("matches", len(identifier.match_pairs()))
    return size


def resume_incremental(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    verify: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> "IncrementalIdentifier":
    """Reload a checkpoint and return a live, continuable identifier.

    The resumed identifier owns the opened :class:`SqliteStore` (further
    updates persist into the same file) and its ``version`` continues
    from the checkpointed delta cursor.  With ``verify=True`` (default)
    the file is integrity-checked (truncation, malformed pages), the
    sealed section digests are recomputed and compared, the journal is
    replayed against the stored tables (checksums and seq contiguity
    included), and the uniqueness/consistency constraints are audited —
    all before any state is trusted; failures raise
    :class:`~repro.store.errors.StoreIntegrityError`, and
    :func:`salvage_incremental` is the recovery path.  A stored match
    the ILFD duals contradict raises
    :class:`~repro.core.errors.ConsistencyError`, the verdict every
    insert applies, also before anything is written.  Sealed digests
    are cleared after verification (the live session writes through this
    file, so they would immediately go stale).
    """
    from repro.federation.incremental import IncrementalIdentifier

    tracer = tracer if tracer is not None else NO_OP_TRACER
    start = time.perf_counter()
    store = SqliteStore(
        path,
        tracer=tracer,
        retry_policy=retry_policy,
        fault_injector=fault_injector,
    )
    with tracer.span("store.resume", path=str(path)) as span:
        try:
            fmt = store.get_meta(META_FORMAT)
        except sqlite3.DatabaseError as exc:
            raise StoreIntegrityError(
                f"checkpoint {path!r} is unreadable: {exc}"
            ) from exc
        if fmt != CHECKPOINT_FORMAT:
            raise StoreError(
                f"{path!r} is not a repro checkpoint "
                f"(format {fmt!r}, expected {CHECKPOINT_FORMAT!r})"
            )
        kind = store.get_meta(META_KIND)
        if kind != _KIND_INCREMENTAL:
            raise StoreError(f"{path!r} holds a {kind!r}, not an incremental checkpoint")
        if verify:
            store.integrity_check()
            sealed = {
                name: store.get_meta(META_DIGEST_PREFIX + name, "")
                for name in _DIGEST_SECTIONS
            }
            if any(sealed.values()):
                actual = compute_section_digests(store)
                for name, digest in sealed.items():
                    if digest and digest != actual.get(name, ""):
                        raise StoreIntegrityError(
                            f"checkpoint {path!r} section {name!r} fails its "
                            "sealed digest — the file was corrupted after it "
                            "was written"
                        )
            store.check_constraints()
            store.verify_journal()
            # The stored MT is unique, so every contradicted match is an
            # error (a store grown through an unchecked ingest, say).
            check_table(
                dual_rules(_decode_ilfds(store.get_meta(META_ILFDS, ""))),
                store.matching_table(),
            )
        # Unseal: live updates write through this file, so the sealed
        # digests stop describing it the moment the session continues.
        with store.transaction():
            unseal_digests(store)
        r_schema = decode_schema(store.get_meta(META_R_SCHEMA, ""))
        s_schema = decode_schema(store.get_meta(META_S_SCHEMA, ""))
        extended_key = json.loads(store.get_meta(META_EXTENDED_KEY, "[]"))
        ilfds = _decode_ilfds(store.get_meta(META_ILFDS, ""))
        policy = DerivationPolicy(
            store.get_meta(META_POLICY, DerivationPolicy.FIRST_MATCH.value)
        )
        identifier = IncrementalIdentifier(
            r_schema,
            s_schema,
            extended_key,
            ilfds=ilfds,
            policy=policy,
            tracer=tracer,
            store=store,
            retry_policy=retry_policy,
            fault_injector=fault_injector,
        )
        # Restore state directly (no journaling: these are not new events)
        # — settled pairs are *loaded*, never re-evaluated.
        for side_name, side in (("r", identifier._r), ("s", identifier._s)):
            for key, raw, extended in store.row_items(side_name):
                side.raw[key] = raw
                side.extended[key] = extended
                complete = identifier._complete_values(extended)
                if complete is not None:
                    side.index[complete].add(key)
        identifier._matches = store.match_pairs()
        identifier.version = int(store.get_meta(META_VERSION, "0"))
        span.set("matches", len(identifier._matches))
        span.set("rows", len(identifier._r.raw) + len(identifier._s.raw))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.inc("store.resumes")
        metrics.observe("store.load_ms", elapsed_ms)
    return identifier


@dataclass
class SalvageReport:
    """What :func:`salvage_incremental` could and could not recover."""

    path: str
    checkpoint_readable: bool = False
    rows_recovered: Dict[str, int] = field(
        default_factory=lambda: {"r": 0, "s": 0}
    )
    journal_recovered: int = 0
    journal_total: int = 0
    matches_rebuilt: int = 0
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-paragraph human rendering (the CLI prints this)."""
        lines = [
            f"salvage of {self.path}:",
            "  checkpoint file "
            + ("partially readable" if self.checkpoint_readable else "unreadable"),
            f"  rows recovered: R={self.rows_recovered.get('r', 0)} "
            f"S={self.rows_recovered.get('s', 0)}",
            f"  journal prefix verified: {self.journal_recovered}"
            f"/{self.journal_total} entries",
            f"  matches re-derived: {self.matches_rebuilt}",
        ]
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _fetch_surviving(
    conn: sqlite3.Connection, query: str, params: Tuple = ()
) -> Tuple[List[Tuple], Optional[str]]:
    """Fetch rows one at a time, keeping what came through before an error.

    ``fetchall`` on a damaged file is all-or-nothing; fetching row by
    row salvages every record that precedes the first corrupt page.
    """
    records: List[Tuple] = []
    try:
        cursor = conn.execute(query, params)
        while True:
            record = cursor.fetchone()
            if record is None:
                return records, None
            records.append(record)
    except sqlite3.DatabaseError as exc:
        return records, str(exc)


def _padded_scratch_copy(path: str) -> Optional[str]:
    """Zero-pad a scratch copy of a truncated database to its header size.

    SQLite refuses *every* read on a file shorter than the size its
    header declares, even though the leading pages are intact.  Padding
    a copy back out with zero bytes makes those pages readable again;
    queries that walk into the zeroed tail still fail, which the
    per-record fetch guards turn into partial recovery.  Returns the
    scratch path (caller removes it), or ``None`` when the file is not a
    short SQLite database.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(100)
        if len(header) < 100 or not header.startswith(b"SQLite format 3\x00"):
            return None
        page_size = int.from_bytes(header[16:18], "big")
        if page_size == 1:
            page_size = 65536
        declared = int.from_bytes(header[28:32], "big") * page_size
        actual = os.path.getsize(path)
        # Short of the declared size, or tail-ragged (not page-aligned).
        target = max(declared, -(-actual // page_size) * page_size)
        if target <= actual:
            return None
        scratch = path + ".salvage-padded"
        shutil.copyfile(path, scratch)
        with open(scratch, "r+b") as handle:
            handle.truncate(target)
        return scratch
    except OSError:
        return None


def _read_damaged_checkpoint(path: str, report: SalvageReport):
    """Raw, read-only scavenge of whatever a damaged checkpoint yields.

    Deliberately bypasses :class:`SqliteStore` — even opening the store
    class touches the file (schema init), which a truncated database
    rejects wholesale.  Every section and every record is read under its
    own guard; losses become report notes, never exceptions.
    """
    recovered_rows: Dict[str, List] = {"r": [], "s": []}
    recovered_meta: Dict[str, str] = {}
    prefix_entries: List = []
    scratch: Optional[str] = None
    conn: Optional[sqlite3.Connection] = None
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone()
    except sqlite3.Error as exc:
        if conn is not None:
            conn.close()
            conn = None
        scratch = _padded_scratch_copy(path)
        if scratch is not None:
            report.notes.append(
                f"file rejected wholesale ({exc}); reading a zero-padded copy"
            )
            try:
                conn = sqlite3.connect(f"file:{scratch}?mode=ro", uri=True)
            except sqlite3.Error as exc2:
                report.notes.append(f"padded copy unreadable too: {exc2}")
        else:
            report.notes.append(f"checkpoint cannot be opened: {exc}")
        if conn is None:
            if scratch is not None:
                os.remove(scratch)
            return recovered_rows, recovered_meta, prefix_entries
    try:
        meta_records, error = _fetch_surviving(
            conn, "SELECT key, value FROM meta"
        )
        report.checkpoint_readable = bool(meta_records) or error is None
        recovered_meta = {key: value for key, value in meta_records}
        if error:
            report.notes.append(f"metadata partially unreadable: {error}")
        for side in SIDES:
            records, error = _fetch_surviving(
                conn,
                "SELECT raw FROM source_rows WHERE side = ? ORDER BY key",
                (side,),
            )
            if error:
                report.notes.append(
                    f"{side.upper()} rows partially unreadable: {error}"
                )
            skipped = 0
            for (raw_text,) in records:
                try:
                    recovered_rows[side].append(decode_row(raw_text))
                except Exception:
                    skipped += 1
            if skipped:
                report.notes.append(
                    f"{skipped} {side.upper()} row(s) failed to decode"
                )
        journal_records, error = _fetch_surviving(
            conn,
            "SELECT seq, ts, kind, rule, r_key, s_key, payload, checksum "
            "FROM journal ORDER BY seq",
        )
        if error:
            # Files from before the checksum column: retry without it.
            journal_records, error = _fetch_surviving(
                conn,
                "SELECT seq, ts, kind, rule, r_key, s_key, payload "
                "FROM journal ORDER BY seq",
            )
            if error:
                report.notes.append(f"journal partially unreadable: {error}")
        report.journal_total = len(journal_records)
        previous = None
        for record in journal_records:
            try:
                entry = SqliteStore._entry_from_record(record[:7])
            except Exception:
                break
            stored = record[7] if len(record) > 7 else ""
            if previous is not None and entry.seq != previous + 1:
                break
            if stored and stored != entry_checksum(entry):
                break
            prefix_entries.append(entry)
            previous = entry.seq
        report.journal_recovered = len(prefix_entries)
        if report.journal_recovered < report.journal_total:
            last = prefix_entries[-1].seq if prefix_entries else 0
            report.notes.append(
                f"journal verifies only up to entry #{last}; later "
                "provenance is lost"
            )
    finally:
        conn.close()
        if scratch is not None:
            os.remove(scratch)
    return recovered_rows, recovered_meta, prefix_entries


def salvage_incremental(
    path: str,
    *,
    r: Optional["Relation"] = None,
    s: Optional["Relation"] = None,
    extended_key: Optional[Iterable[str]] = None,
    ilfds: Optional[ILFDSet] = None,
    policy: Optional[DerivationPolicy] = None,
    output: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple["IncrementalIdentifier", SalvageReport]:
    """Best-effort recovery of a damaged checkpoint into a verified session.

    The salvage path documented in ``docs/RESILIENCE.md``: never trust
    the damaged file.  Instead,

    1. recover what still verifies — the longest valid journal prefix
       (:meth:`~repro.store.base.MatchStore.longest_valid_journal_prefix`)
       and every decodable raw source row, plus the knowledge (extended
       key, ILFDs, policy) from the metadata when readable;
    2. **re-derive** everything else: a fresh
       :class:`~repro.federation.incremental.IncrementalIdentifier` is
       built from the recovered raw rows (and any caller-supplied *r* /
       *s* relations filling in rows the file lost), re-running ILFD
       derivation and identification from scratch — matches are
       recomputed, never copied out of a corrupt file;
    3. cross-check the rebuilt matches against the matches the verified
       journal prefix asserts (discrepancies become report notes);
    4. verify the result (``check_constraints`` + ``verify_journal``)
       before returning it.

    When the file is unreadable, *extended_key* (and sources) must be
    supplied by the caller.  *output* persists the salvaged session into
    a fresh SQLite store at that path; the default keeps it in memory.
    Returns ``(identifier, report)``; raises
    :class:`~repro.store.errors.StoreError` only when too little
    survives to rebuild from (no knowledge, or no sources at all).
    """
    from repro.federation.incremental import IncrementalIdentifier

    tracer = tracer if tracer is not None else NO_OP_TRACER
    report = SalvageReport(path=str(path))
    with tracer.span("store.salvage", path=str(path)) as span:
        recovered_rows, recovered_meta, prefix_entries = _read_damaged_checkpoint(
            str(path), report
        )
        report.rows_recovered = {
            side: len(rows) for side, rows in recovered_rows.items()
        }

        # Knowledge: prefer the file's metadata, fall back to the caller.
        if extended_key is None:
            key_text = recovered_meta.get(META_EXTENDED_KEY, "")
            extended_key = json.loads(key_text) if key_text else None
        if extended_key is None:
            raise StoreError(
                f"cannot salvage {path!r}: the extended key is unrecoverable "
                "from the file and none was supplied"
            )
        if ilfds is None:
            ilfds = _decode_ilfds(recovered_meta.get(META_ILFDS, ""))
        if policy is None:
            policy = DerivationPolicy(
                recovered_meta.get(META_POLICY, DerivationPolicy.FIRST_MATCH.value)
            )
        r_schema = (
            r.schema
            if r is not None
            else decode_schema(recovered_meta.get(META_R_SCHEMA, ""))
        )
        s_schema = (
            s.schema
            if s is not None
            else decode_schema(recovered_meta.get(META_S_SCHEMA, ""))
        )

        fresh_store = None
        if output is not None:
            fresh_store = SqliteStore(str(output), tracer=tracer)
            fresh_store.clear()
        identifier = IncrementalIdentifier(
            r_schema,
            s_schema,
            list(extended_key),
            ilfds=ilfds,
            policy=policy,
            tracer=tracer,
            store=fresh_store,
        )
        # Re-derive: recovered file rows first, then caller-supplied rows
        # filling in whatever the file lost (duplicates skipped by key).
        for side, insert in (("r", identifier.insert_r), ("s", identifier.insert_s)):
            supplied = r if side == "r" else s
            for row in recovered_rows[side] + (list(supplied) if supplied else []):
                try:
                    insert(row)
                except ConsistencyError as exc:
                    report.notes.append(f"refused {side.upper()} row: {exc}")
                except CoreError:
                    pass  # key already recovered from the file
        report.matches_rebuilt = len(identifier.match_pairs())

        # Cross-check against the provenance that still verifies: every
        # match the valid journal prefix asserts between rows we still
        # have must be re-derived by the rebuild.
        prefix_matches, _ = replay_journal(prefix_entries)
        rebuilt = identifier.match_pairs()
        missing = sorted(
            pair
            for pair in prefix_matches
            if pair not in rebuilt
            and pair[0] in identifier._r.raw
            and pair[1] in identifier._s.raw
        )
        if missing:
            report.notes.append(
                f"{len(missing)} match(es) asserted by the verified journal "
                f"prefix did not re-derive, e.g. {missing[0]!r} — they may "
                "have come from user assertions or knowledge not recovered"
            )

        # Never return an unverified session.
        identifier.store.check_constraints()
        identifier.store.verify_journal()
        if fresh_store is not None:
            # Make the durable output a checkpoint in its own right, so
            # a later `resume` opens the rebuilt session directly.
            with fresh_store.transaction():
                _write_knowledge(fresh_store, identifier)
        span.set("matches", report.matches_rebuilt)
        span.set("journal_recovered", report.journal_recovered)
    if tracer.enabled:
        tracer.metrics.inc("resilience.salvages")
    return identifier, report
