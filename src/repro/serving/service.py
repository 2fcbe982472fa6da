"""The match-lookup and resolve service over a persisted store.

:class:`MatchLookupService` is the transport-free core of ``repro
serve``: the HTTP layer (:mod:`repro.serving.http`) is a thin JSON
codec around the two operations here, and tests drive the service
directly.

**Reads** (:meth:`MatchLookupService.resolve`) answer "which entity is
this tuple, who does it match, and why": the tuple's entity cluster
(every tuple across both sources sharing its complete extended-key
values — the equivalence-class grouping of
:class:`~repro.entities.IdentityGraph`, rendered as
:class:`~repro.entities.graph.EntityCluster`), its matching-table
entries, and per-pair provenance reconstructed from the derivation
journal (:func:`repro.store.journal.explain_pair`).  Lookups run on a
:class:`~repro.serving.replica.ReplicaPool` worker against a read-only
WAL replica, behind an :class:`~repro.serving.cache.LRUCache`.

**Writes** (:meth:`MatchLookupService.ingest`) are search-before-insert:
an incoming tuple is ILFD-extended, resolved against the *opposite*
source's extended-key index, and journaled with exactly the rule
attribution a batch run would record — ILFD firings under their rule
names, identity matches under the extended key's identity-rule name —
so a store grown tuple-by-tuple through the API is indistinguishable
from one built by a cold batch run (the conformance suite fingerprints
both).  Every write funnels through one dedicated writer thread, which
is the single-writer discipline that makes the WAL replica reads safe.

**Degradation** is explicit and bounded: each lookup gets a deadline
(``--deadline-ms``), replica failures are retried per the shared
:class:`~repro.resilience.RetryPolicy`, and when the budget is spent
the service serves the last-known-good cached answer marked ``stale``
rather than failing the request — or raises
:class:`~repro.serving.errors.ServiceUnavailableError` when it never
knew one (``docs/SERVING.md``).
"""

from __future__ import annotations

import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.consistency import dual_rules
from repro.core.errors import ConsistencyError, CoreError
from repro.core.extended_key import ExtendedKey
from repro.entities.graph import EntityCluster
from repro.federation.incremental import admit
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.resilience.errors import (
    CircuitOpenError,
    InjectedFault,
    ResilienceError,
)
from repro.resilience.faults import (
    NO_OP_INJECTOR,
    SITE_SERVING_INVALIDATE,
    SITE_SERVING_REQUEST,
    FaultInjector,
)
from repro.resilience.overload import CircuitBreaker
from repro.resilience.retry import RetryPolicy
from repro.serving.cache import LRUCache
from repro.serving.errors import BadRequestError, ServiceUnavailableError, ServingError
from repro.serving.replica import ReplicaPool
from repro.store.base import SIDES, MatchStore
from repro.store.checkpoint import (
    compute_section_digests,
    META_DIGEST_PREFIX,
    META_ILFDS,
    META_POLICY,
    META_R_SCHEMA,
    META_S_SCHEMA,
    META_VERSION,
    _decode_ilfds,
    unseal_digests,
)
from repro.store.codec import (
    KeyValues,
    decode_schema,
    decode_value,
    encode_key,
    encode_value,
)
from repro.store.errors import StoreError
from repro.store.journal import explain_pair
from repro.store.sqlite import SqliteStore

__all__ = [
    "MatchLookupService",
    "decode_key_json",
    "encode_key_json",
    "encode_row_json",
]


def encode_row_json(row: Row) -> Dict[str, Any]:
    """A row as a JSON-safe mapping (NULL → the codec's marker object)."""
    return {name: encode_value(value) for name, value in row.items()}


def encode_key_json(key: KeyValues) -> List[List[Any]]:
    """A key as JSON-safe ``[[attr, value], ...]`` pairs."""
    return [[attr, encode_value(value)] for attr, value in key]


def decode_key_json(obj: Any) -> KeyValues:
    """A request's key — mapping or pair list — as canonical KeyValues."""
    if isinstance(obj, Mapping):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        try:
            items = [(attr, value) for attr, value in obj]
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed key {obj!r}: {exc}") from exc
    else:
        raise BadRequestError(
            f"key must be an object or [attr, value] pairs, got {obj!r}"
        )
    if not items:
        raise BadRequestError("key names no attributes")
    return tuple(sorted((str(attr), decode_value(value)) for attr, value in items))


class MatchLookupService:
    """Point lookups and search-before-insert over one SQLite store.

    Parameters
    ----------
    path:
        The store file (a checkpoint written by ``repro checkpoint`` /
        ``IncrementalIdentifier.checkpoint``, or any store carrying
        source rows).  Ingestion additionally needs the knowledge
        metadata (schemas, ILFDs, policy) checkpoints seal; a store
        without it serves resolve-only.
    workers:
        Replica connections / reader threads (default 2).
    cache_size:
        LRU capacity for resolve results (0 disables caching).
    deadline:
        Per-lookup budget in **seconds** (None = unbounded).  A lookup
        that misses it degrades to the stale cache.
    retry_policy:
        Applied both to replica reads (reopen + retry) and to writer
        commits.
    allow_stale:
        Serve last-known-good cached answers when replicas fail
        (default True); False turns degradation into hard 503s.
    read_breaker / write_breaker:
        Optional :class:`~repro.resilience.CircuitBreaker` instances
        around the replica pool and the single-writer thread.  While a
        breaker is open its side fails fast (reads degrade to the stale
        cache, writes 503 with ``Retry-After``) instead of piling
        doomed work onto a failing dependency.
    fault_injector:
        Optional deterministic :class:`~repro.resilience.FaultInjector`
        fired at the serving sites (``serving.request``,
        ``serving.invalidate``) and plumbed into the writer store's
        ``store.commit`` site — the hook ``repro serve
        --inject-faults`` and the chaos harness drive.
    """

    def __init__(
        self,
        path: str,
        *,
        workers: int = 2,
        cache_size: int = 1024,
        deadline: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        allow_stale: bool = True,
        read_breaker: Optional[CircuitBreaker] = None,
        write_breaker: Optional[CircuitBreaker] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._deadline = deadline
        self._allow_stale = allow_stale
        self._closed = False
        self._injector = (
            fault_injector if fault_injector is not None else NO_OP_INJECTOR
        )
        self._write_breaker = write_breaker
        # Single-writer discipline: this connection is only ever used
        # from the one writer thread below, which is what justifies
        # check_same_thread=False (see SqliteStore's docstring).
        self._writer = SqliteStore(
            path,
            tracer=self._tracer,
            retry_policy=retry_policy,
            fault_injector=fault_injector,
            check_same_thread=False,
        )
        try:
            self._write_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serving-write"
            )
            self._pool = ReplicaPool(
                path,
                workers,
                tracer=self._tracer,
                retry_policy=retry_policy,
                breaker=read_breaker,
            )
        except BaseException:
            self._writer.close()
            raise
        self._cache = LRUCache(cache_size, tracer=self._tracer)
        self._unsealed = False
        self._load_knowledge()

    def _load_knowledge(self) -> None:
        """Ingestion state from the store's (checkpoint) metadata."""
        store = self._writer
        self._sides: Tuple[str, ...] = store.sides()
        attributes = store.extended_key_attributes()
        self._extended_key: Optional[ExtendedKey] = (
            ExtendedKey(list(attributes)) if attributes else None
        )
        self._identity_rule_name = (
            self._extended_key.identity_rule().name if self._extended_key else ""
        )
        self._schemas: Dict[str, Schema] = {}
        for side, meta_key in (("r", META_R_SCHEMA), ("s", META_S_SCHEMA)):
            text = store.get_meta(meta_key, "")
            if text:
                self._schemas[side] = decode_schema(text)
        ilfds = _decode_ilfds(store.get_meta(META_ILFDS, ""))
        policy = DerivationPolicy(
            store.get_meta(META_POLICY, DerivationPolicy.FIRST_MATCH.value)
        )
        self._engine = DerivationEngine(ilfds, policy=policy, tracer=self._tracer)
        self._rules = dual_rules(ilfds)
        self._version = int(store.get_meta(META_VERSION, "0"))

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The served store file."""
        return self._writer.path

    @property
    def version(self) -> int:
        """The store's delta cursor (bumped by every ingest)."""
        return self._version

    @property
    def can_ingest(self) -> bool:
        """True iff the store carries the knowledge metadata ingestion needs."""
        return self._extended_key is not None and len(self._schemas) == len(SIDES)

    @property
    def cache(self) -> LRUCache:
        """The resolve cache (tests and ``/stats`` read it)."""
        return self._cache

    @property
    def sides(self) -> Tuple[str, ...]:
        """The source names this store serves (``("r", "s")`` unless an
        entity build registered its own vocabulary)."""
        return self._sides

    def _check_side(self, side: str) -> str:
        if side not in self._sides:
            raise BadRequestError(
                f"unknown source {side!r}; expected one of {self._sides}"
            )
        return side

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def resolve(
        self, side: str, key: KeyValues, *, use_cache: bool = True
    ) -> Dict[str, Any]:
        """Entity cluster, matches, and provenance for one tuple key.

        Returns a JSON-serialisable mapping; its ``cache`` field tells
        how the answer was produced (``hit`` / ``miss`` / ``stale``).
        """
        self._check_side(side)
        cache_key = (side, encode_key(key))
        if use_cache:
            cached, hit = self._cache.get(cache_key)
            if hit:
                return dict(cached, cache="hit")
        # The token closes the read/write race: if an ingest invalidates
        # this key while the replica read is in flight, the put below is
        # rejected and the pre-commit answer never becomes a live entry.
        token = self._cache.token()
        try:
            result = self._pool.run(
                lambda replica: self._lookup(replica, side, key),
                timeout=self._deadline,
            )
        except (
            FutureTimeoutError,
            ResilienceError,
            StoreError,
            sqlite3.Error,
        ) as exc:
            return dict(self._degrade(cache_key, exc), cache="stale")
        self._cache.put(cache_key, result, token=token)
        return dict(result, cache="miss")

    def _degrade(self, cache_key: Tuple[str, str], exc: BaseException) -> Dict[str, Any]:
        """Stale-cache fallback after a failed/late lookup (or give up)."""
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.degraded")
        if self._allow_stale:
            stale, found = self._cache.get_stale(cache_key)
            if found:
                return dict(stale, degraded=str(exc) or type(exc).__name__)
        raise ServiceUnavailableError(
            f"lookup failed and no cached answer exists: {exc}",
            retry_after=getattr(exc, "retry_after", None),
        ) from exc

    def _lookup(
        self, replica: MatchStore, side: str, key: KeyValues
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        self._injector.fire(SITE_SERVING_REQUEST)
        with self._tracer.span("serving.lookup", source=side):
            row = replica.get_row(side, key)
            if row is None:
                result: Dict[str, Any] = {
                    "found": False,
                    "source": side,
                    "key": encode_key_json(key),
                }
            else:
                raw, extended = row
                ext_text = replica.extended_key_text(extended)
                cluster = self._cluster_of(replica, extended, ext_text)
                entity = self._entity_of(replica, ext_text)
                matches = replica.matches_for_key(side, key)
                result = {
                    "found": True,
                    "source": side,
                    "key": encode_key_json(key),
                    "row": encode_row_json(raw),
                    "extended": encode_row_json(extended),
                    "cluster": cluster,
                    "entity": entity,
                    "matches": [
                        {
                            "r_key": encode_key_json(r_key),
                            "s_key": encode_key_json(s_key),
                        }
                        for (r_key, s_key), _rows in matches
                    ],
                    "provenance": [
                        explain_pair(
                            replica.journal_entries(r_key=r_key, s_key=s_key),
                            r_key,
                            s_key,
                        )
                        for (r_key, s_key), _rows in matches
                    ],
                }
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("serving.lookups")
            metrics.observe(
                "serving.lookup_ms", (time.perf_counter() - started) * 1000.0
            )
        return result

    def _cluster_of(
        self, store: MatchStore, extended: Row, ext_text: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """The tuple's entity cluster, in the identity graph's terms.

        ``None`` when the extended key is incomplete — Section 6.2's
        NULL semantics mean such a tuple belongs to no cluster.
        """
        if ext_text is None:
            return None
        attributes = store.extended_key_attributes()
        members: List[Tuple[str, Row]] = []
        member_keys: List[Tuple[str, KeyValues]] = []
        for side in self._sides:
            for key, _raw, member_extended in store.rows_by_extended_key(
                side, ext_text
            ):
                members.append((side, member_extended))
                member_keys.append((side, key))
        cluster = EntityCluster(
            key=extended.values_for(attributes), members=tuple(members)
        )
        return {
            "entity_key": [
                [attr, encode_value(value)]
                for attr, value in zip(attributes, cluster.key)
            ],
            "sources": list(cluster.sources),
            "size": len(cluster),
            "members": [
                {"source": side, "key": encode_key_json(key)}
                for side, key in member_keys
            ],
        }

    def _entity_of(
        self, store: MatchStore, ext_text: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """The persisted canonical entity for this extended key, if an
        entity build (``repro entities build``) sealed one — the golden
        record plus its ``entity_resolution_log`` provenance."""
        if ext_text is None:
            return None
        record = store.entity_by_ext_key(ext_text)
        if record is None:
            return None
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.entity_lookups")
        return {
            "id": record.entity_id,
            "golden": encode_row_json(record.golden),
            "members": [
                {"source": source, "key": encode_key_json(key)}
                for source, key in record.members
            ],
            "resolution_log": [
                {
                    "seq": entry.seq,
                    "rule": entry.rule,
                    "event": entry.payload.get("event", "golden"),
                    "detail": {
                        k: v
                        for k, v in entry.payload.items()
                        if k not in ("entity_id", "event")
                    },
                }
                for entry in store.entity_log(record.entity_id)
            ],
        }

    # ------------------------------------------------------------------
    # Writes (search-before-insert)
    # ------------------------------------------------------------------
    def ingest(self, side: str, values: Mapping[str, Any]) -> Dict[str, Any]:
        """Resolve an incoming tuple against the store, then insert it.

        :func:`~repro.federation.incremental.admit`, as
        :meth:`IncrementalIdentifier.insert_r/s` does, probing the
        store's extended-key lookups; then one transaction on the
        single writer thread.  Returns the new tuple's key, the matches
        created, and the ILFDs that fired.  A duplicate key raises
        :class:`BadRequestError` (400); a contradicted match raises
        :class:`~repro.core.errors.ConsistencyError` (409) with nothing
        written, which the write breaker does not count as a failure.
        """
        self._check_side(side)
        if not self.can_ingest:
            raise ServingError(
                "this store lacks the knowledge metadata ingestion needs "
                "(schemas, extended key); serve a checkpoint file instead"
            )
        if self._write_breaker is not None:
            try:
                self._write_breaker.before_call()
            except CircuitOpenError as exc:
                raise ServiceUnavailableError(
                    f"ingest refused: {exc}", retry_after=exc.retry_after
                ) from exc
        future = self._write_executor.submit(self._ingest_on_writer, side, values)
        try:
            result = future.result()
        except (StoreError, sqlite3.Error, ResilienceError):
            if self._write_breaker is not None:
                self._write_breaker.record_failure()
            raise
        except BaseException:
            if self._write_breaker is not None:
                self._write_breaker.record_success()
            raise
        if self._write_breaker is not None:
            self._write_breaker.record_success()
        return result

    def _ingest_on_writer(
        self, side: str, raw_values: Mapping[str, Any]
    ) -> Dict[str, Any]:
        store = self._writer
        schema = self._schemas[side]
        self._injector.fire(SITE_SERVING_REQUEST)
        with self._tracer.span("serving.ingest", source=side):
            values = {
                k: decode_value(v) for k, v in raw_values.items() if k in schema.names
            }
            try:
                with store.transaction():
                    admitted = admit(
                        store,
                        side,
                        schema,
                        values,
                        engine=self._engine,
                        extended_key=self._extended_key,
                        rules=self._rules,
                        rule=self._identity_rule_name,
                        exists=lambda key: store.get_row(side, key) is not None,
                        probe=lambda extended: self._probe(side, extended),
                        before_write=self._bump_version,
                    )
            except ConsistencyError:
                raise
            except CoreError as exc:  # a duplicate key
                raise BadRequestError(str(exc)) from exc
            key, added = admitted.key, admitted.pairs
            ext_text = store.extended_key_text(admitted.extended)
            # Write committed: invalidate every cache entry the new
            # tuple's cluster touches (itself, and each member whose
            # cluster/matches just changed).  A fault here must fail
            # safe — the write is already durable, so an interrupted
            # invalidation drops the *whole* cache rather than risk one
            # affected key staying live with its pre-write answer.
            try:
                self._injector.fire(SITE_SERVING_INVALIDATE)
                self._cache.invalidate((side, encode_key(key)))
                if ext_text is not None:
                    for member_side in self._sides:
                        for member_key, _r, _e in store.rows_by_extended_key(
                            member_side, ext_text
                        ):
                            self._cache.invalidate(
                                (member_side, encode_key(member_key))
                            )
            except InjectedFault:
                self._cache.clear()
                raise
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("serving.ingests")
            metrics.inc("serving.ingest_matches", len(added))
        return {
            "inserted": True,
            "source": side,
            "key": encode_key_json(key),
            "version": self._version,
            "matches_added": [
                {"r_key": encode_key_json(r), "s_key": encode_key_json(s)}
                for r, s in added
            ],
            "derivations_fired": [
                f.name or repr(f) for f in admitted.fired
            ],
        }

    def _bump_version(self) -> None:
        """Unseal the checkpoint's digests (serving writes through the
        file, as a resumed session does) and advance the delta cursor."""
        if not self._unsealed:
            unseal_digests(self._writer)
            self._unsealed = True
        self._version += 1
        self._writer.set_meta(META_VERSION, str(self._version))

    def _probe(self, side: str, extended: Row) -> Tuple[List[Any], int]:
        """The admit probe over the store's extended-key lookups."""
        text = self._writer.extended_key_text(extended)
        if text is None:
            return [], 0
        lookup = self._writer.rows_by_extended_key
        partners = lookup("s" if side == "r" else "r", text)
        return [(key, row) for key, _raw, row in partners], len(lookup(side, text))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop the whole cache (live and stale); returns entries dropped."""
        return self._cache.clear()

    def stats(self) -> Dict[str, Any]:
        """JSON-serialisable operational snapshot (the ``/stats`` body)."""
        counts = self._pool.run(lambda replica: replica.counts())
        snapshot: Dict[str, Any] = (
            self._tracer.metrics.snapshot() if self._tracer.enabled else {}
        )
        breakers: Dict[str, Any] = {}
        if self._pool.breaker is not None:
            breakers["read"] = self._pool.breaker.stats()
        if self._write_breaker is not None:
            breakers["write"] = self._write_breaker.stats()
        return {
            "store": {"path": self.path, "version": self._version, **counts},
            "cache": self._cache.stats(),
            "workers": self._pool.workers,
            "deadline_s": self._deadline,
            "can_ingest": self.can_ingest,
            "breakers": breakers,
            "metrics": snapshot,
        }

    def seal_digests(self) -> bool:
        """Re-seal the checkpoint's section digests after serving writes.

        The graceful-drain contract (``docs/SERVING.md``): ingest unseals
        the digests because they stop describing a file being written
        through, and a clean shutdown recomputes and reseals them so the
        next ``repro resume --verify`` gets the same integrity cover a
        cold checkpoint would.  Returns True iff a reseal happened.
        """
        if not self._unsealed:
            return False

        def reseal() -> None:
            digests = compute_section_digests(self._writer)
            with self._writer.transaction():
                for name, digest in digests.items():
                    self._writer.set_meta(META_DIGEST_PREFIX + name, digest)

        # On the writer thread when it is still up (single-writer
        # discipline); directly when called after executor shutdown.
        try:
            self._write_executor.submit(reseal).result()
        except RuntimeError:  # executor already shut down
            reseal()
        self._unsealed = False
        if self._tracer.enabled:
            self._tracer.metrics.inc("serving.digests_resealed")
        return True

    def close(self) -> None:
        """Drain the writer, reseal digests, stop readers, close all.

        In-flight writes finish first (executor drain), then the section
        digests are resealed so an interrupted-then-restarted server is
        the only thing that leaves them open — exactly the signal
        salvage keys on.
        """
        if self._closed:
            return
        self._closed = True
        self._write_executor.shutdown(wait=True)
        try:
            self.seal_digests()
        except (StoreError, sqlite3.Error):  # pragma: no cover - dying store
            pass
        self._pool.close()
        self._writer.close()

    def __enter__(self) -> "MatchLookupService":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()
