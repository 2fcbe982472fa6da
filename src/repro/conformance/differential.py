"""Differential harness: one workload through the configuration matrix.

Several infrastructure layers multiply the ways one identification run
can be executed — blocker × store backend × cold-run vs
checkpoint-resume vs serving-API growth × fault-free vs seeded-fault
schedule, plus the Appendix Prolog prototype.  The paper's contract is
indifferent to all of it: every configuration must compute the *same*
MT_RS/NMT_RS.  This module makes that executable:

- :class:`ConfigCell` names one engine configuration;
- :func:`run_cell` executes a workload through it and canonicalises the
  resulting tables (:mod:`repro.conformance.canonical`);
- :func:`run_matrix` runs every cell and compares against the first
  **strict** cell bit-for-bit.  *Strict* cells (exhaustive candidate
  generation) must agree on both tables; the *pruning* cell (the hash
  blocker) must agree on MT and produce an NMT that is a subset of the
  baseline's — exactly the documented trade-off of electing it;
- on mismatch, the cells' derivation journals are diffed
  (:func:`diff_journals`) so the report names the rule firings that
  diverged, not just the rows;
- :func:`compare_with_prototype` replays paper-scale workloads through
  the Appendix Prolog program and compares its matching table with the
  native baseline.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.blocking import make_blocker
from repro.blocking.executor import PairExecutor
from repro.conformance.canonical import (
    CanonicalPair,
    CanonicalTables,
    canonical_pairs,
    canonical_table,
    canonicalise,
    diff_pairs,
)
from repro.conformance.errors import ConformanceError
from repro.conformance.oracles import Knowledge, _key_attrs
from repro.core.identifier import EntityIdentifier
from repro.core.matching_table import build_matching_table, key_values
from repro.entities.graph import EntityCluster
from repro.relational.nulls import Maybe
from repro.relational.relation import Relation
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.store.base import MatchStore
from repro.store.codec import encode_key
from repro.store.journal import KIND_CHECKPOINT
from repro.store.memory import MemoryStore
from repro.store.sqlite import SqliteStore
from repro.workloads.generator import Workload

__all__ = [
    "ConfigCell",
    "CellOutcome",
    "CellMismatch",
    "MatrixReport",
    "strict_matrix",
    "pruning_cells",
    "full_matrix",
    "run_cell",
    "run_matrix",
    "diff_journals",
    "compare_with_prototype",
    "pairwise_reference",
    "reference_tables",
    "PROLOG_PAIR_LIMIT",
]

PROLOG_PAIR_LIMIT = 1_000
"""Largest |R|·|S| the Prolog prototype cell is asked to solve."""


@dataclass(frozen=True)
class ConfigCell:
    """One engine configuration of the differential matrix.

    Attributes
    ----------
    name:
        Stable cell id, e.g. ``cross-serial-sqlite``.
    blocker:
        ``None`` for the identifier's default (cross-product) blocker,
        else a :data:`~repro.blocking.BLOCKERS` key.
    store:
        ``memory`` or ``sqlite``.
    resume:
        When true, the run goes through an incremental session that is
        checkpointed to SQLite, resumed in a fresh identifier (journal
        verified), and only then identified — exercising the durable
        round trip end to end.
    serving:
        When true, the store is grown **tuple by tuple through the
        serving API**: a knowledge-only checkpoint is written, every R
        and S row is ingested via
        :meth:`~repro.serving.MatchLookupService.ingest`
        (search-before-insert), and the resulting store is resumed
        (journal verified) and identified — proving API ingestion is
        bit-identical to a cold batch run.
    faults:
        Optional :meth:`FaultPlan.parse` spec injected into the store,
        with enough retry budget to recover.
    chaos:
        When true (implies ``serving``), the serving-API growth runs
        under a seeded fault schedule at the *serving* sites
        (``serving.request`` / ``serving.invalidate`` /
        ``store.commit``), including a mid-request kill that forces a
        service restart on the same store, with client-side retries —
        and must still end bit-identical to the fault-free baseline.
    entities:
        When true, the workload is additionally resolved N-way (R, S,
        plus a deterministic third source sampled from R) through
        :class:`~repro.entities.IdentityGraph`: the graph's clusters
        must be bit-identical to the connected components of fresh
        pairwise :class:`EntityIdentifier` matching tables
        (:func:`pairwise_reference`), every pairwise projection must
        equal the fresh run's matches, and the persisted entity build
        must reload, verify, rebuild to the same fingerprint, and
        answer ``/resolve`` with the golden record.
    strict:
        Strict cells must match the baseline on MT **and** NMT;
        non-strict (pruning-blocker) cells on MT only, with NMT ⊆
        baseline NMT.
    """

    name: str
    blocker: Optional[str] = None
    store: str = "memory"
    resume: bool = False
    serving: bool = False
    faults: Optional[str] = None
    entities: bool = False
    chaos: bool = False
    strict: bool = True


JournalSummary = Tuple[str, str, str, str]
"""(kind, rule, encoded R key, encoded S key) — order- and time-free."""


@dataclass(frozen=True)
class CellOutcome:
    """The canonicalised result of one cell."""

    cell: ConfigCell
    tables: CanonicalTables
    sound: bool
    journal: Tuple[JournalSummary, ...]
    resume_consistent: bool = True

    @property
    def name(self) -> str:
        """The cell's id."""
        return self.cell.name


@dataclass(frozen=True)
class CellMismatch:
    """One cell disagreeing with the baseline, with diffs attached."""

    baseline: str
    cell: str
    mt_diff: Dict[str, List[CanonicalPair]]
    nmt_diff: Dict[str, List[CanonicalPair]]
    journal_diff: Dict[str, List[JournalSummary]]

    def summary(self) -> str:
        """One line naming the divergence."""
        parts = []
        if self.mt_diff["only_a"] or self.mt_diff["only_b"]:
            parts.append(
                f"MT differs (+{len(self.mt_diff['only_b'])} "
                f"-{len(self.mt_diff['only_a'])})"
            )
        if self.nmt_diff["only_a"] or self.nmt_diff["only_b"]:
            parts.append(
                f"NMT differs (+{len(self.nmt_diff['only_b'])} "
                f"-{len(self.nmt_diff['only_a'])})"
            )
        if self.journal_diff["only_a"] or self.journal_diff["only_b"]:
            parts.append(
                f"journal differs (+{len(self.journal_diff['only_b'])} "
                f"-{len(self.journal_diff['only_a'])})"
            )
        detail = "; ".join(parts) or "internal inconsistency"
        return f"{self.cell} vs {self.baseline}: {detail}"


@dataclass(frozen=True)
class MatrixReport:
    """The verdict of one differential-matrix run."""

    workload: str
    outcomes: Tuple[CellOutcome, ...]
    mismatches: Tuple[CellMismatch, ...]
    prototype_agrees: Optional[bool] = None
    reference_agrees: Optional[bool] = None

    @property
    def is_green(self) -> bool:
        """True iff every cell agreed with the baseline, the baseline with
        :func:`reference_tables`, and the prototype (when run)."""
        return (
            not self.mismatches
            and all(outcome.resume_consistent for outcome in self.outcomes)
            and self.prototype_agrees is not False
            and self.reference_agrees is not False
        )

    @property
    def baseline(self) -> CellOutcome:
        """The reference cell every other cell is compared against."""
        return self.outcomes[0]

    def summary(self) -> str:
        """A short multi-line account of the run."""
        lines = [
            f"differential matrix [{self.workload}]: "
            f"{len(self.outcomes)} cell(s), "
            f"{len(self.mismatches)} mismatch(es)"
        ]
        lines.append(
            f"  baseline {self.baseline.name}: "
            f"MT {self.baseline.tables.mt_fingerprint[:12]} "
            f"({len(self.baseline.tables.mt)} pairs), "
            f"NMT {self.baseline.tables.nmt_fingerprint[:12]} "
            f"({len(self.baseline.tables.nmt)} pairs)"
        )
        if self.reference_agrees is not None:
            lines.append(
                "  reference tables: "
                + ("agree" if self.reference_agrees else "DISAGREE")
            )
        for mismatch in self.mismatches:
            lines.append("  " + mismatch.summary())
        if self.prototype_agrees is not None:
            lines.append(
                "  prolog prototype: "
                + ("agrees" if self.prototype_agrees else "DISAGREES")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def strict_matrix() -> List[ConfigCell]:
    """The 10 strict cells: exhaustive candidates, bit-identical tables.

    Covers both store backends, cold, checkpoint-resume,
    serving-API-ingested, and N-way identity-graph runs, a seeded
    store-commit failure that the store-write retry must make invisible,
    and a serving **chaos** cell: API growth under seeded serving-site
    faults (request errors, commit failures, a failed cache
    invalidation, and a mid-request kill forcing a restart) with client
    retries, which must still land on the baseline tables bit-for-bit.
    """
    return [
        ConfigCell("default-serial-memory"),
        ConfigCell("cross-serial-memory", blocker="cross"),
        ConfigCell("default-serial-sqlite", store="sqlite"),
        ConfigCell("cross-serial-sqlite", blocker="cross", store="sqlite"),
        ConfigCell("default-resume-memory", resume=True),
        ConfigCell("cross-resume-sqlite", blocker="cross", resume=True,
                   store="sqlite"),
        ConfigCell(
            "cross-serial-sqlite-commitfault",
            blocker="cross",
            store="sqlite",
            faults="store.commit:error@0",
        ),
        ConfigCell("serving-ingest-sqlite", store="sqlite", serving=True),
        ConfigCell("entities-graph", store="sqlite", entities=True),
        ConfigCell(
            "serving-chaos-sqlite",
            store="sqlite",
            serving=True,
            chaos=True,
            faults=(
                "serving.request:error@3;"
                "serving.invalidate:error@1;"
                "store.commit:error@7;"
                "serving.request:kill@11"
            ),
        ),
    ]


def pruning_cells() -> List[ConfigCell]:
    """The MT-only cell: the recall-equivalent hash blocker."""
    return [ConfigCell("hash-serial-memory", blocker="hash", strict=False)]


def full_matrix() -> List[ConfigCell]:
    """Strict cells plus the pruning-blocker cell."""
    return strict_matrix() + pruning_cells()


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _journal_summary(store: MatchStore) -> Tuple[JournalSummary, ...]:
    """Time-, seq-, and checkpoint-free journal rendering for diffing."""
    out: List[JournalSummary] = []
    for entry in store.journal_entries():
        if entry.kind == KIND_CHECKPOINT:
            continue
        out.append(
            (
                entry.kind,
                entry.rule,
                encode_key(entry.r_key) if entry.r_key is not None else "",
                encode_key(entry.s_key) if entry.s_key is not None else "",
            )
        )
    return tuple(sorted(out))


def diff_journals(
    a: Sequence[JournalSummary], b: Sequence[JournalSummary]
) -> Dict[str, List[JournalSummary]]:
    """Symmetric difference of two journal summaries.

    Journals are diagnostic: they are only compared when the *tables*
    mismatched, to name the rule firings behind the divergence.
    """
    set_a, set_b = set(a), set(b)
    return {
        "only_a": sorted(set_a - set_b),
        "only_b": sorted(set_b - set_a),
    }


def _cell_resilience(
    cell: ConfigCell,
) -> Tuple[Optional[RetryPolicy], Optional[FaultInjector]]:
    if not cell.faults:
        return None, None
    plan = FaultPlan.parse(cell.faults)
    # Enough budget to outlast any bounded schedule the cell declares.
    return RetryPolicy.fast(6), FaultInjector(plan)


def _make_store(cell: ConfigCell, workdir: str, retry, injector) -> MatchStore:
    if cell.store == "sqlite":
        path = os.path.join(workdir, f"{cell.name}.sqlite")
        return SqliteStore(path, retry_policy=retry, fault_injector=injector)
    if cell.store == "memory":
        if injector is not None:
            return MemoryStore(fault_injector=injector)
        return MemoryStore()
    raise ConformanceError(f"unknown store kind {cell.store!r}")


def _identify(
    cell: ConfigCell,
    r,
    s,
    extended_key,
    ilfds,
    workdir: str,
) -> Tuple[CanonicalTables, bool, Tuple[JournalSummary, ...]]:
    retry, injector = _cell_resilience(cell)
    store = _make_store(cell, workdir, retry, injector)
    try:
        identifier = EntityIdentifier(
            r,
            s,
            list(extended_key),
            ilfds=list(ilfds),
            blocker=make_blocker(cell.blocker) if cell.blocker else None,
            executor=PairExecutor(retry_policy=retry),
            store=store,
        )
        result = identifier.run()
        return (
            canonicalise(result.matching, result.negative),
            result.report.is_sound,
            _journal_summary(store),
        )
    finally:
        store.close()


def run_cell(
    workload: Workload, cell: ConfigCell, *, workdir: Optional[str] = None
) -> CellOutcome:
    """Execute *workload* through one configuration cell.

    Cold cells run :class:`EntityIdentifier` directly.  Resume cells
    first load an incremental session, checkpoint it to SQLite, resume
    it in a fresh identifier (replaying and verifying the journal), and
    identify from the resumed sources — additionally cross-checking that
    the resumed session's own matching pairs equal the recomputed MT.
    """
    owned = workdir is None
    if owned:
        workdir = tempfile.mkdtemp(prefix="repro-conform-")
    try:
        if cell.chaos:
            return _run_chaos_cell(workload, cell, workdir)
        if cell.serving:
            return _run_serving_cell(workload, cell, workdir)
        if cell.entities:
            return _run_entities_cell(workload, cell, workdir)
        if not cell.resume:
            tables, sound, journal = _identify(
                cell,
                workload.r,
                workload.s,
                workload.extended_key,
                workload.ilfds,
                workdir,
            )
            return CellOutcome(
                cell=cell, tables=tables, sound=sound, journal=journal
            )

        from repro.federation.incremental import IncrementalIdentifier

        session = IncrementalIdentifier(
            workload.r.schema,
            workload.s.schema,
            list(workload.extended_key),
            ilfds=list(workload.ilfds),
        )
        session.load(workload.r, workload.s)
        path = os.path.join(workdir, f"{cell.name}.ckpt.sqlite")
        session.checkpoint(path)
        session.store.close()
        resumed = IncrementalIdentifier.resume(path, verify=True)
        try:
            incremental_pairs = {
                entry.pair for entry in resumed.matching_table()
            }
            r, s = resumed.relations()
            ilfds = list(resumed.ilfds)
            extended_key = list(resumed.extended_key.attributes)
        finally:
            resumed.store.close()
        tables, sound, journal = _identify(
            cell, r, s, extended_key, ilfds, workdir
        )
        resumed_canonical = canonical_pairs(incremental_pairs)
        return CellOutcome(
            cell=cell,
            tables=tables,
            sound=sound,
            journal=journal,
            resume_consistent=(resumed_canonical == tables.mt),
        )
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_serving_cell(
    workload: Workload, cell: ConfigCell, workdir: str
) -> CellOutcome:
    """Grow the store tuple-by-tuple through the serving API, then verify.

    The search-before-insert equivalence cell: a knowledge-only
    checkpoint is populated exclusively via
    :meth:`~repro.serving.MatchLookupService.ingest`, resumed with
    journal verification, and identified cold.  ``resume_consistent``
    asserts the pairs the *API* recorded are bit-identical to the
    recomputed matching table — the acceptance criterion that a store
    grown through ``repro serve`` is indistinguishable from a batch run.
    """
    from repro.federation.incremental import IncrementalIdentifier
    from repro.serving import MatchLookupService

    session = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )
    path = os.path.join(workdir, f"{cell.name}.ckpt.sqlite")
    session.checkpoint(path)  # knowledge only — no rows loaded yet
    session.store.close()
    with MatchLookupService(path, workers=2, cache_size=64) as service:
        for row in workload.r:
            service.ingest("r", dict(row))
        for row in workload.s:
            service.ingest("s", dict(row))
    resumed = IncrementalIdentifier.resume(path, verify=True)
    try:
        api_pairs = {entry.pair for entry in resumed.matching_table()}
        r, s = resumed.relations()
        ilfds = list(resumed.ilfds)
        extended_key = list(resumed.extended_key.attributes)
    finally:
        resumed.store.close()
    tables, sound, journal = _identify(cell, r, s, extended_key, ilfds, workdir)
    return CellOutcome(
        cell=cell,
        tables=tables,
        sound=sound,
        journal=journal,
        resume_consistent=(canonical_pairs(api_pairs) == tables.mt),
    )


def _run_chaos_cell(
    workload: Workload, cell: ConfigCell, workdir: str
) -> CellOutcome:
    """Serving-API growth under a seeded fault schedule, then verify.

    The in-process chaos cell: the same knowledge-only-checkpoint →
    ingest-everything flow as :func:`_run_serving_cell`, but with the
    cell's :class:`FaultPlan` firing at the serving sites and a
    retrying client.  A scheduled ``kill`` (non-lethal here — the
    subprocess harness in ``tests/chaos/`` delivers the real SIGKILL)
    forces the service to be torn down and reopened on the same store
    mid-traffic.  The grown store must resume with journal verification
    and agree bit-identically with the recomputed baseline — injected
    faults may cost retries, never correctness.
    """
    import dataclasses
    import sqlite3

    from repro.federation.incremental import IncrementalIdentifier
    from repro.resilience.errors import InjectedKill, ResilienceError
    from repro.serving import BadRequestError, MatchLookupService, ServingError

    from repro.store.errors import StoreError

    session = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )
    path = os.path.join(workdir, f"{cell.name}.ckpt.sqlite")
    session.checkpoint(path)  # knowledge only — no rows loaded yet
    session.store.close()

    injector = FaultInjector(FaultPlan.parse(cell.faults or ""), lethal=False)

    def open_service() -> "MatchLookupService":
        return MatchLookupService(
            path, workers=2, cache_size=64, fault_injector=injector
        )

    service = open_service()
    try:
        for side, relation in (("r", workload.r), ("s", workload.s)):
            for row in relation:
                for _attempt in range(8):
                    try:
                        service.ingest(side, dict(row))
                        break
                    except BadRequestError as exc:
                        if "duplicate key" in str(exc):
                            # The faulted attempt had already committed
                            # (e.g. the invalidation fault fires after
                            # the transaction); at-least-once is fine.
                            break
                        raise
                    except InjectedKill:
                        # Mid-request kill: "restart" the server on the
                        # same store and retry, like the harness does.
                        service.close()
                        service = open_service()
                    except (ResilienceError, ServingError, StoreError, sqlite3.Error):
                        pass
                else:
                    raise ConformanceError(
                        f"chaos cell {cell.name}: ingest of one {side} row "
                        "did not recover within its retry budget"
                    )
    finally:
        service.close()

    resumed = IncrementalIdentifier.resume(path, verify=True)
    try:
        api_pairs = {entry.pair for entry in resumed.matching_table()}
        r, s = resumed.relations()
        ilfds = list(resumed.ilfds)
        extended_key = list(resumed.extended_key.attributes)
    finally:
        resumed.store.close()
    # The cold recompute must not inherit the serving fault plan.
    clean = dataclasses.replace(cell, faults=None, chaos=False, serving=False)
    tables, sound, journal = _identify(clean, r, s, extended_key, ilfds, workdir)
    return CellOutcome(
        cell=cell,
        tables=tables,
        sound=sound,
        journal=journal,
        resume_consistent=(canonical_pairs(api_pairs) == tables.mt),
    )


def pairwise_reference(
    sources: Mapping[str, Relation],
    extended_key: Sequence[str],
    ilfds: Sequence[Any] = (),
) -> Tuple[List[EntityCluster], Dict[Tuple[str, str], FrozenSet[Any]]]:
    """N-way clusters rebuilt from fresh pairwise runs — an independent oracle.

    One :class:`EntityIdentifier` per source pair; the clusters are the
    connected components of their matching tables (label propagation),
    in :meth:`~repro.entities.IdentityGraph.clusters` order.  Returns
    ``(clusters, {(first, second): matched key pairs})``.
    """
    names = list(sources)
    rows: Dict[Tuple[int, int], Any] = {}
    edges: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    matches = {}
    for (i, first), (j, second) in combinations(enumerate(names), 2):
        identifier = EntityIdentifier(
            sources[first], sources[second], extended_key, ilfds=ilfds
        )
        table = identifier.matching_table()
        matches[(first, second)] = frozenset(table.pairs())
        r_at, s_at = (
            {row: position for position, row in enumerate(relation)}
            for relation in identifier.extended_relations()
        )
        for entry in table:
            left, right = (i, r_at[entry.r_row]), (j, s_at[entry.s_row])
            rows[left], rows[right] = entry.r_row, entry.s_row
            edges.append((left, right))

    label = {node: node for edge in edges for node in edge}
    changed = True
    while changed:
        changed = False
        for left, right in edges:
            low = min(label[left], label[right])
            if label[left] != low or label[right] != low:
                label[left] = label[right] = low
                changed = True
    components: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
    for node in sorted(label):
        components[label[node]].append(node)
    clusters = [
        EntityCluster(
            rows[members[0]].values_for(list(extended_key)),
            tuple((names[i], rows[(i, position)]) for i, position in members),
        )
        for members in components.values()
    ]
    clusters.sort(key=lambda cluster: str(cluster.key))
    return clusters, matches


def reference_tables(workload: Workload) -> CanonicalTables:
    """MT/NMT computed without the pair executor — an independent oracle.

    The matching table is the plain K_Ext hash join
    (:func:`~repro.core.matching_table.build_matching_table`) over the
    ILFD-extended relations; the negative table is the exhaustive nested
    loop over R'×S' evaluating every distinctness rule with the
    interpreted :meth:`~repro.rules.DistinctnessRule.applies` in both
    orientations, not the compiled rules the executor and
    :class:`~repro.rules.engine.RuleEngine` run.  Both are built from
    the workload's :class:`~repro.conformance.Knowledge`, so the
    baseline cell is checked against code it does not run.
    """
    knowledge = Knowledge.from_workload(workload)
    extended_r, extended_s = knowledge.extend(workload.r, workload.s)
    r_key, s_key = _key_attrs(extended_r), _key_attrs(extended_s)
    matching = build_matching_table(
        extended_r, extended_s, knowledge.extended_key, r_key, s_key
    )
    rules = knowledge.rule_engine().distinctness_rules
    negative = canonical_pairs(
        (key_values(r_row, r_key), key_values(s_row, s_key))
        for r_row in extended_r
        for s_row in extended_s
        if any(
            rule.applies(r_row, s_row) is Maybe.TRUE
            or rule.applies(s_row, r_row) is Maybe.TRUE
            for rule in rules
        )
    )
    return CanonicalTables(mt=canonical_table(matching), nmt=negative)


def _run_entities_cell(
    workload: Workload, cell: ConfigCell, workdir: str
) -> CellOutcome:
    """The N-way identity-graph equivalence cell.

    Resolves the workload three ways and cross-checks every layer of
    the ``repro.entities`` subsystem, folding the verdict into
    ``resume_consistent``:

    1. graph clusters ≡ the connected components of fresh pairwise
       :class:`EntityIdentifier` matching tables
       (:func:`pairwise_reference`), bit-identically (same fingerprint
       over keys, members, rows);
    2. every pairwise projection of the graph ≡ that fresh pairwise
       run's matches;
    3. the SQLite entity build reloads, verifies against its sealed
       fingerprint, and a rebuild produces the identical fingerprint
       (canonical ids are stable across runs);
    4. :meth:`MatchLookupService.resolve` over the built store returns
       the persisted golden entity, with resolution-log provenance.

    The cell's comparable tables/journal come from the graph's (r, s)
    pair run under the cell's own store backend, so the cell also
    participates in the ordinary baseline comparison.
    """
    from repro.entities import (
        IdentityGraph,
        build_entity_store,
        cluster_fingerprint,
        verify_entity_store,
    )
    from repro.serving import MatchLookupService

    # A deterministic third source: every other R tuple (insertion
    # order), same schema — its members must land in R's clusters.
    third = Relation(
        workload.r.schema,
        [dict(row) for index, row in enumerate(workload.r) if index % 2 == 0],
        name="T",
    )
    sources = {"r": workload.r, "s": workload.s, "t": third}
    extended_key = list(workload.extended_key)
    ilfds = list(workload.ilfds)

    graph = IdentityGraph(sources, extended_key, ilfds=ilfds)
    reference, matches = pairwise_reference(sources, extended_key, ilfds)
    consistent = cluster_fingerprint(graph.clusters()) == cluster_fingerprint(
        reference
    )
    for (first, second), pairs in matches.items():
        if graph.pairwise_pairs(first, second) != pairs:
            consistent = False

    path = os.path.join(workdir, f"{cell.name}.entities.sqlite")
    store = SqliteStore(path)
    try:
        built = build_entity_store(graph, store)
    finally:
        store.close()
    reloaded = SqliteStore(path)
    try:
        count, fingerprint = verify_entity_store(reloaded)
        if count != built.entities or fingerprint != built.fingerprint:
            consistent = False
    except ConformanceError:
        raise
    except Exception:
        consistent = False
    finally:
        reloaded.close()
    rebuilt = build_entity_store(
        IdentityGraph(sources, extended_key, ilfds=ilfds), MemoryStore()
    )
    if rebuilt.fingerprint != built.fingerprint:
        consistent = False

    clusters = graph.clusters()
    if clusters:
        source, row = clusters[0].members[0]
        key = key_values(row, graph.source_key_attributes(source))
        with MatchLookupService(path, workers=1, cache_size=8) as service:
            answer = service.resolve(source, key)
        entity = answer.get("entity")
        if (
            not answer.get("found")
            or entity is None
            or not entity.get("resolution_log")
            or not entity.get("id", "").startswith("ent-")
        ):
            consistent = False

    tables, sound, journal = _identify(
        cell, workload.r, workload.s, extended_key, ilfds, workdir
    )
    return CellOutcome(
        cell=cell,
        tables=tables,
        sound=sound,
        journal=journal,
        resume_consistent=consistent,
    )


# ----------------------------------------------------------------------
# Matrix execution and comparison
# ----------------------------------------------------------------------
def _compare(
    baseline: CellOutcome, outcome: CellOutcome
) -> Optional[CellMismatch]:
    mt_diff = diff_pairs(baseline.tables.mt, outcome.tables.mt)
    if outcome.cell.strict:
        nmt_diff = diff_pairs(baseline.tables.nmt, outcome.tables.nmt)
    else:
        # Pruning cells: NMT must be a subset of the exhaustive NMT —
        # extra entries are a bug, missing ones are the documented
        # trade-off.
        extras = sorted(set(outcome.tables.nmt) - set(baseline.tables.nmt))
        nmt_diff = {"only_a": [], "only_b": extras}
    clean = not (
        mt_diff["only_a"]
        or mt_diff["only_b"]
        or nmt_diff["only_a"]
        or nmt_diff["only_b"]
    )
    if clean and outcome.resume_consistent:
        return None
    return CellMismatch(
        baseline=baseline.name,
        cell=outcome.name,
        mt_diff=mt_diff,
        nmt_diff=nmt_diff,
        journal_diff=diff_journals(baseline.journal, outcome.journal),
    )


def run_matrix(
    workload: Workload,
    cells: Optional[Sequence[ConfigCell]] = None,
    *,
    name: str = "workload",
    include_prototype: bool = False,
    tracer=None,
) -> MatrixReport:
    """Run every cell and compare against the first strict cell.

    The first cell must be strict (it is the baseline); its tables must
    in turn equal :func:`reference_tables`.  With
    *include_prototype*, paper-scale workloads (≤
    :data:`PROLOG_PAIR_LIMIT` pairs) are additionally replayed through
    the Appendix Prolog program.
    """
    cells = list(cells) if cells is not None else full_matrix()
    if not cells:
        raise ConformanceError("differential matrix needs at least one cell")
    if not cells[0].strict:
        raise ConformanceError("the first (baseline) cell must be strict")
    workdir = tempfile.mkdtemp(prefix="repro-conform-")
    try:
        outcomes = tuple(
            run_cell(workload, cell, workdir=workdir) for cell in cells
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    baseline = outcomes[0]
    reference = reference_tables(workload)
    mismatches = tuple(
        mismatch
        for outcome in outcomes[1:]
        if (mismatch := _compare(baseline, outcome)) is not None
    )
    prototype_agrees: Optional[bool] = None
    if include_prototype:
        pair_count = len(workload.r) * len(workload.s)
        if pair_count <= PROLOG_PAIR_LIMIT:
            prototype_agrees = (
                compare_with_prototype(workload) == baseline.tables.mt
            )
    report = MatrixReport(
        workload=name,
        outcomes=outcomes,
        mismatches=mismatches,
        prototype_agrees=prototype_agrees,
        reference_agrees=reference == baseline.tables,
    )
    if tracer is not None and tracer.enabled:
        tracer.metrics.inc("conformance.cells", len(outcomes))
        tracer.metrics.inc("conformance.cell_mismatches", len(mismatches))
    return report


# ----------------------------------------------------------------------
# The Prolog prototype cell
# ----------------------------------------------------------------------
def compare_with_prototype(workload: Workload) -> Tuple[CanonicalPair, ...]:
    """The Appendix program's matching table, canonicalised.

    Encodes the workload for the mini-Prolog engine, runs
    ``setup_extkey`` over the workload's extended key, and renders the
    resulting ``matchtable`` solutions in the same canonical pair form
    the native cells produce (all workload values are strings, so the
    atom round trip is exact).
    """
    from repro.prolog.prototype import PrototypeSystem

    system = PrototypeSystem(workload.r, workload.s, workload.ilfds)
    system.setup_extkey(list(workload.extended_key))
    r_key = list(system.r_key)
    s_key = list(system.s_key)
    pairs = set()
    for row in system.matchtable_rows():
        r_values = tuple(
            sorted((attr, row[f"r_{attr}"]) for attr in r_key)
        )
        s_values = tuple(
            sorted((attr, row[f"s_{attr}"]) for attr in s_key)
        )
        pairs.add((r_values, s_values))
    return canonical_pairs(pairs)
