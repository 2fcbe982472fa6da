"""Parallel batch evaluation of candidate pairs.

:class:`ParallelPairExecutor` partitions a candidate-pair stream into
batches and classifies each pair against the identity and distinctness
rules, optionally across ``concurrent.futures`` workers.  Partial results
merge deterministically — batches are submitted and collected in order,
so every backend (serial, thread, process) produces the *same list in
the same order* — and the paper's consistency constraint (no pair both
matching and distinct, Section 3.2) is enforced at merge time, before
any table is materialised.

Per-pair evaluation is a pure function of ``(rows, rules)``: identity
rules go through ``IdentityRule.applies``, distinctness rules through
their :class:`~repro.rules.compiled.CompiledRules` form (compiled once
per ``evaluate`` call), not a :class:`~repro.rules.engine.RuleEngine`,
so worker processes need pickle nothing stateful.  Distinctness is
decided set-wise (Proposition 1): each row's single-entity rule parts
are evaluated once per batch, and a pair is then classified from its
two rows' signatures, evaluating per pair only the cross-entity
predicates of the rules whose single-entity parts already hold.  Rows,
rules, and the NULL sentinel all pickle faithfully (``NULL`` reduces to
its singleton); process workers receive the rows and rules once via the
pool initializer and are then fed plain index batches, keeping
per-batch IPC to a few bytes per pair.

The uniqueness constraint is *reported*, not raised — mirroring the
pipeline, where ``verify`` surfaces unsound keys as a report the DBA
acts on (the prototype's "extended key causes unsound matching result").

**Fault tolerance** (``docs/RESILIENCE.md``): a worker death
(``BrokenProcessPool``, or an injected
:class:`~repro.resilience.InjectedCrash` at the ``executor.batch``
site) loses batches, not results — lost batches are re-executed on the
next attempt and *serially in-parent on the final attempt*, so
``evaluate()`` returns the same deterministic, ordered result as the
serial path no matter which attempt produced which batch.  A pair whose
rule evaluation itself raises (a "poisoned" pair) is quarantined and
reported in :attr:`PairEvaluation.quarantined` instead of silently
dropped or allowed to sink the run.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.blocking.base import CandidatePairs, IndexPair
from repro.blocking.errors import BlockingError, MergeConsistencyError
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.nulls import Maybe
from repro.relational.row import Row
from repro.resilience.faults import (
    NO_OP_INJECTOR,
    SITE_EXECUTOR_BATCH,
    FaultInjector,
)
from repro.resilience.retry import RetryPolicy
from repro.rules.compiled import CompiledRules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.identity import IdentityRule

try:  # BrokenExecutor covers thread pools too on 3.8+
    from concurrent.futures import BrokenExecutor
except ImportError:  # pragma: no cover - ancient pythons only
    from concurrent.futures.process import BrokenProcessPool as BrokenExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard import
    from repro.store.base import KeyValues, MatchStore

__all__ = ["PairEvaluation", "ParallelPairExecutor"]

_BACKENDS = ("serial", "thread", "process")

# (matches, distinct, match rule indices, distinct rule indices, rule
# parts evaluated) — the two index lists are parallel to the two pair
# lists and name, by position in the rule sequences, the rule that fired
# for each classified pair.
BatchResult = Tuple[List[IndexPair], List[IndexPair], List[int], List[int], int]

# Per-process worker state, installed by the pool initializer so batches
# ship only index pairs (see module docstring).
_WORKER_STATE: Dict[str, object] = {}


def _evaluate_batch(
    batch: Sequence[IndexPair],
    r_rows: Sequence[Row],
    s_rows: Sequence[Row],
    identity_rules: Sequence[IdentityRule],
    distinctness: CompiledRules,
) -> BatchResult:
    """Classify one batch; the shared kernel of every backend.

    A pair is *matching* when some identity rule's antecedent is TRUE,
    *distinct* when some distinctness rule is TRUE in either orientation
    (distinctness is symmetric, its rule text is not), credited to the
    first such rule in rule order — exactly the rule engine's semantics,
    without its per-call metric accounting.  Each row's single-entity
    rule parts are evaluated once per batch (its signature); a pair's
    verdict is then mask arithmetic on its two signatures plus, for
    rules with cross-entity predicates only, those predicates.
    """
    matches: List[IndexPair] = []
    distinct: List[IndexPair] = []
    match_rules: List[int] = []
    distinct_rules: List[int] = []
    r_signatures: Dict[int, Tuple[int, int, int]] = {}
    s_signatures: Dict[int, Tuple[int, int, int]] = {}
    crossed = distinctness.cross_mask
    evaluated = 0
    for i, j in batch:
        r_row = r_rows[i]
        s_row = s_rows[j]
        for index, rule in enumerate(identity_rules):
            if rule.applies(r_row, s_row) is Maybe.TRUE:
                matches.append((i, j))
                match_rules.append(index)
                break
        if not distinctness:
            continue
        r_sig = r_signatures.get(i)
        if r_sig is None:
            r_sig = r_signatures[i] = distinctness.signature(r_row)
            evaluated += r_sig[2]
        s_sig = s_signatures.get(j)
        if s_sig is None:
            s_sig = s_signatures[j] = distinctness.signature(s_row)
            evaluated += s_sig[2]
        forward = r_sig[0] & s_sig[1]
        backward = s_sig[0] & r_sig[1]
        candidates = forward | backward
        if not candidates:
            continue
        if candidates & crossed:
            index, count = distinctness.first_firing(forward, backward, r_row, s_row)
            evaluated += count
            if index < 0:
                continue
        else:
            index = (candidates & -candidates).bit_length() - 1
        distinct.append((i, j))
        distinct_rules.append(index)
    return matches, distinct, match_rules, distinct_rules, evaluated


def _init_worker(
    r_rows: Sequence[Row],
    s_rows: Sequence[Row],
    identity_rules: Sequence[IdentityRule],
    distinctness: CompiledRules,
) -> None:
    _WORKER_STATE["args"] = (r_rows, s_rows, identity_rules, distinctness)


def _process_batch(batch: Sequence[IndexPair]) -> BatchResult:
    r_rows, s_rows, identity_rules, distinctness = _WORKER_STATE["args"]
    return _evaluate_batch(batch, r_rows, s_rows, identity_rules, distinctness)


@dataclass
class PairEvaluation:
    """Merged outcome of one executor run.

    ``matches`` and ``distinct`` hold ``(r_index, s_index)`` pairs in
    candidate order — identical across backends and worker counts.
    ``match_rules`` / ``distinct_rules`` are parallel lists of indices
    into the rule sequences given to ``evaluate``, naming which rule
    fired for each classified pair (the derivation journal's rule ids).
    """

    matches: List[IndexPair]
    distinct: List[IndexPair]
    pairs_evaluated: int
    batches: int
    workers: int
    backend: str
    match_rules: List[int] = field(default_factory=list)
    distinct_rules: List[int] = field(default_factory=list)
    quarantined: List[Tuple[IndexPair, str]] = field(default_factory=list)
    batches_recovered: int = 0
    worker_crashes: int = 0

    @property
    def unknown(self) -> int:
        """Candidates neither matched, declared distinct, nor quarantined."""
        return (
            self.pairs_evaluated
            - len(self.matches)
            - len(self.distinct)
            - len(self.quarantined)
        )

    @property
    def degraded(self) -> bool:
        """True iff some pairs could not be classified (quarantined)."""
        return bool(self.quarantined)

    def consistency_overlap(self) -> List[IndexPair]:
        """Pairs classified as both matching and distinct (should be empty)."""
        overlap = set(self.matches) & set(self.distinct)
        return sorted(overlap)


class ParallelPairExecutor:
    """Evaluates candidate pairs in batches, serially or across workers.

    Parameters
    ----------
    workers:
        Worker count; ``1`` is the serial fast path (no pool, no copies).
    backend:
        ``"thread"``, ``"process"``, or ``"serial"``.  Threads share the
        row lists for free but contend on the GIL for this pure-Python
        workload; processes (the default for ``workers > 1``) get real
        parallelism on multi-core hosts at the cost of one rows+rules
        shipment per worker.
    batch_size:
        Pairs per batch; defaults to an even split into ``4 × workers``
        batches (bounded below at 1) so stragglers rebalance.
    enforce_consistency:
        Raise :class:`~repro.blocking.errors.MergeConsistencyError` at
        merge time when a pair classifies as both matching and distinct.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy`.  Its attempt
        budget governs how many times lost batches are re-dispatched to
        the worker pool before the in-parent serial fallback runs, how
        the executor backs off between pool attempts, and whether the
        merged store write is retried after a failed transactional
        commit.  Without one, a single pool attempt is made and the
        serial fallback still guarantees completion (worker crashes are
        always recovered; only the *pool-level* retries are opt-in).
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted at
        the ``executor.batch`` site once per batch result collected from
        a pool — the deterministic stand-in for worker death used by the
        chaos tests and ``--inject-faults``.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        backend: str = "process",
        batch_size: Optional[int] = None,
        enforce_consistency: bool = True,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if workers < 1:
            raise BlockingError(f"workers must be >= 1, got {workers}")
        if backend not in _BACKENDS:
            raise BlockingError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.workers = workers
        self.backend = backend if workers > 1 else "serial"
        self._batch_size = batch_size
        self._enforce_consistency = enforce_consistency
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._retry = retry_policy
        self._injector = (
            fault_injector if fault_injector is not None else NO_OP_INJECTOR
        )

    # ------------------------------------------------------------------
    def _batches(self, pairs: List[IndexPair]) -> List[List[IndexPair]]:
        if self._batch_size is not None:
            size = max(1, self._batch_size)
        else:
            size = max(1, -(-len(pairs) // (self.workers * 4)))
        return [pairs[k : k + size] for k in range(0, len(pairs), size)]

    def evaluate(
        self,
        candidates: Iterable[IndexPair],
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        identity_rules: Sequence[IdentityRule] = (),
        distinctness_rules: Sequence[DistinctnessRule] = (),
        *,
        store: Optional["MatchStore"] = None,
        r_keys: Optional[Sequence["KeyValues"]] = None,
        s_keys: Optional[Sequence["KeyValues"]] = None,
    ) -> PairEvaluation:
        """Classify every candidate pair; merge and check consistency.

        When *store* is given (with *r_keys* / *s_keys* parallel to the
        row sequences), the merged result is written to it in **one
        transaction** — matches and non-matches land journaled with the
        name of the rule that fired, and a merge-time consistency
        failure leaves the store untouched.
        """
        identity = tuple(identity_rules)
        distinctness = CompiledRules(distinctness_rules)
        # A CandidatePairs stream is re-iterable and knows its count, so the
        # serial path never materialises it: a cross product stays lazy.
        pairs = (
            candidates
            if isinstance(candidates, CandidatePairs)
            else list(candidates)
        )
        tracer = self._tracer
        quarantined: List[Tuple[IndexPair, str]] = []
        recovered = 0
        crashes = 0
        with tracer.span(
            "executor.evaluate",
            workers=self.workers,
            backend=self.backend,
            pairs=len(pairs),
        ) as span:
            if self.backend == "serial" or self.workers == 1 or len(pairs) <= 1:
                try:
                    matches, distinct, match_rules, distinct_rules, evaluated = (
                        _evaluate_batch(
                            pairs, r_rows, s_rows, identity, distinctness
                        )
                    )
                except Exception:
                    # A poisoned pair: isolate it pair-by-pair instead of
                    # sinking the whole run.
                    matches, distinct, match_rules, distinct_rules, evaluated = (
                        self._quarantining_pass(
                            pairs,
                            r_rows,
                            s_rows,
                            identity,
                            distinctness,
                            quarantined,
                        )
                    )
                batches = 1 if pairs else 0
            else:
                chunks = self._batches(list(pairs))
                batches = len(chunks)
                results, quarantined, recovered, crashes = self._run_batches(
                    chunks, r_rows, s_rows, identity, distinctness
                )
                matches = []
                distinct = []
                match_rules = []
                distinct_rules = []
                evaluated = 0
                for batch_m, batch_d, batch_mr, batch_dr, batch_n in results:
                    matches.extend(batch_m)
                    distinct.extend(batch_d)
                    match_rules.extend(batch_mr)
                    distinct_rules.extend(batch_dr)
                    evaluated += batch_n
            span.set("matches", len(matches))
            span.set("distinct", len(distinct))
            span.set("batches", batches)
            if crashes:
                span.set("worker_crashes", crashes)
            if recovered:
                span.set("batches_recovered", recovered)
            if quarantined:
                span.set("pairs_quarantined", len(quarantined))
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.inc("executor.batches", batches)
            metrics.inc("executor.pairs_evaluated", len(pairs))
            metrics.inc("rules.identity_evaluations", len(pairs) * len(identity))
            metrics.inc("rules.distinctness_evaluations", evaluated)
            if batches:
                metrics.observe("executor.batch_pairs", -(-len(pairs) // batches))
            if crashes:
                metrics.inc("resilience.worker_crashes", crashes)
            if recovered:
                metrics.inc("resilience.batches_recovered", recovered)
            if quarantined:
                metrics.inc("resilience.pairs_quarantined", len(quarantined))
        evaluation = PairEvaluation(
            matches=matches,
            distinct=distinct,
            pairs_evaluated=len(pairs),
            batches=batches,
            workers=self.workers,
            backend=self.backend,
            match_rules=match_rules,
            distinct_rules=distinct_rules,
            quarantined=quarantined,
            batches_recovered=recovered,
            worker_crashes=crashes,
        )
        if self._enforce_consistency:
            overlap = evaluation.consistency_overlap()
            if overlap:
                if tracer.enabled:
                    tracer.metrics.inc("executor.consistency_conflicts", len(overlap))
                raise MergeConsistencyError(
                    f"{len(overlap)} candidate pair(s) classify as both "
                    f"matching and distinct at merge time, e.g. row pair "
                    f"{overlap[0]!r}"
                )
        if store is not None:
            if r_keys is None or s_keys is None:
                raise BlockingError(
                    "store writes need r_keys/s_keys parallel to the row lists"
                )
            def write_store() -> None:
                with store.transaction():
                    for (i, j), rule_index in zip(matches, match_rules):
                        store.record_match(
                            r_keys[i],
                            s_keys[j],
                            r_rows[i],
                            s_rows[j],
                            rule=identity[rule_index].name,
                        )
                    for (i, j), rule_index in zip(distinct, distinct_rules):
                        store.record_non_match(
                            r_keys[i],
                            s_keys[j],
                            r_rows[i],
                            s_rows[j],
                            rule=distinctness.rules[rule_index].name,
                        )

            if self._retry is not None and self._retry.max_attempts > 1:
                # A failed transactional commit rolls everything back
                # (journal appends and sequence numbers included), so
                # re-running the whole write is safe.  Integrity errors
                # are deterministic — retrying them only hides the
                # violation behind a RetryExhaustedError.
                from repro.store.errors import StoreIntegrityError

                self._retry.call(
                    write_store,
                    operation="executor.store_write",
                    fatal=(StoreIntegrityError,),
                    tracer=tracer,
                )
            else:
                write_store()
        return evaluation

    def _make_pool(
        self,
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        identity: Tuple[IdentityRule, ...],
        distinctness: CompiledRules,
    ) -> Executor:
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(list(r_rows), list(s_rows), identity, distinctness),
        )

    def _run_batches(
        self,
        chunks: List[List[IndexPair]],
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        identity: Tuple[IdentityRule, ...],
        distinctness: CompiledRules,
    ) -> Tuple[List[BatchResult], List[Tuple[IndexPair, str]], int, int]:
        """Run batches across a pool, recovering every lost batch.

        Returns ``(results, quarantined, batches_recovered,
        worker_crashes)`` with *results* in chunk order regardless of
        which attempt produced which batch, so the merged output is
        bit-identical to the serial path's.  Each pool attempt gets a
        fresh pool (a broken pool cannot run anything further); batches
        still lost after the attempt budget are re-executed serially
        in-parent, falling back to pair-by-pair quarantine if the batch
        itself is poisoned.  The in-parent fallback never consults the
        fault injector — recovery is the floor the chaos tests stand on.
        """
        results: List[Optional[BatchResult]] = [None] * len(chunks)
        quarantined: List[Tuple[IndexPair, str]] = []
        pending = list(range(len(chunks)))
        lost: set = set()
        crashes = 0
        attempts = self._retry.max_attempts if self._retry is not None else 1
        rng = Random(self._retry.seed) if self._retry is not None else None
        for attempt in range(1, attempts + 1):
            if not pending:
                break
            if attempt > 1 and self._retry is not None:
                delay = self._retry.delay_for(attempt - 1, rng)
                if self._tracer.enabled:
                    self._tracer.metrics.inc("resilience.retries")
                    self._tracer.metrics.observe(
                        "resilience.backoff_ms", delay * 1000.0
                    )
                if self._retry.sleep is not None and delay > 0:
                    self._retry.sleep(delay)
            pending, pass_crashes = self._pool_pass(
                pending, chunks, results, r_rows, s_rows, identity, distinctness
            )
            crashes += pass_crashes
            lost.update(pending)
        for index in pending:
            batch = chunks[index]
            try:
                results[index] = _evaluate_batch(
                    batch, r_rows, s_rows, identity, distinctness
                )
            except Exception:
                results[index] = self._quarantining_pass(
                    batch, r_rows, s_rows, identity, distinctness, quarantined
                )
        return (
            [result for result in results if result is not None],
            quarantined,
            len(lost),
            crashes,
        )

    def _pool_pass(
        self,
        pending: List[int],
        chunks: List[List[IndexPair]],
        results: List[Optional[BatchResult]],
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        identity: Tuple[IdentityRule, ...],
        distinctness: CompiledRules,
    ) -> Tuple[List[int], int]:
        """One pool attempt over *pending*; returns (still pending, crashes).

        Futures are submitted and collected in chunk order, which keeps
        the ``executor.batch`` injector site's invocation numbering
        deterministic.  A :class:`BrokenExecutor` on submit abandons the
        rest of the pass (the pool is dead); any failure collecting a
        single result loses only that batch.
        """
        still_pending: List[int] = []
        crashes = 0
        try:
            pool = self._make_pool(r_rows, s_rows, identity, distinctness)
        except Exception:
            return list(pending), 1
        with pool:
            futures: List[Tuple[int, "Future[BatchResult]"]] = []
            for pos, index in enumerate(pending):
                try:
                    if self.backend == "thread":
                        future = pool.submit(
                            _evaluate_batch,
                            chunks[index],
                            r_rows,
                            s_rows,
                            identity,
                            distinctness,
                        )
                    else:
                        future = pool.submit(_process_batch, chunks[index])
                except BrokenExecutor:
                    crashes += 1
                    still_pending.extend(pending[pos:])
                    break
                except Exception:
                    crashes += 1
                    still_pending.append(index)
                    continue
                futures.append((index, future))
            for index, future in futures:
                try:
                    self._injector.fire(SITE_EXECUTOR_BATCH)
                    results[index] = future.result()
                except Exception:
                    crashes += 1
                    still_pending.append(index)
        return sorted(set(still_pending)), crashes

    def _quarantining_pass(
        self,
        batch: Sequence[IndexPair],
        r_rows: Sequence[Row],
        s_rows: Sequence[Row],
        identity: Tuple[IdentityRule, ...],
        distinctness: CompiledRules,
        quarantined: List[Tuple[IndexPair, str]],
    ) -> BatchResult:
        """Evaluate *batch* pair by pair, isolating the pairs that raise.

        The last line of defence: a pair whose rule evaluation itself
        raises is appended to *quarantined* with the error text, and the
        rest of the batch still classifies normally.
        """
        matches: List[IndexPair] = []
        distinct: List[IndexPair] = []
        match_rules: List[int] = []
        distinct_rules: List[int] = []
        evaluated = 0
        for pair in batch:
            try:
                pair_m, pair_d, pair_mr, pair_dr, pair_n = _evaluate_batch(
                    [pair], r_rows, s_rows, identity, distinctness
                )
            except Exception as exc:
                quarantined.append((pair, f"{type(exc).__name__}: {exc}"))
                continue
            matches.extend(pair_m)
            distinct.extend(pair_d)
            match_rules.extend(pair_mr)
            distinct_rules.extend(pair_dr)
            evaluated += pair_n
        return matches, distinct, match_rules, distinct_rules, evaluated
