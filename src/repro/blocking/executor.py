"""Serial evaluation of candidate pairs: the one pair kernel.

:class:`PairExecutor` classifies a candidate-pair stream against the
identity and distinctness rules in candidate order and, when given a
store, writes the result to it in one transaction.  Both of
:class:`~repro.core.identifier.EntityIdentifier`'s tables go through it;
they differ only in the candidates.

Identity rules go through ``IdentityRule.applies``, distinctness rules
through their :class:`~repro.rules.compiled.CompiledRules` form
(compiled once per ``evaluate`` call).  Distinctness is decided
set-wise (Proposition 1): each row's single-entity rule parts are
evaluated once (its signature), and a pair is then classified from its
two rows' signatures, evaluating per pair only the cross-entity
predicates of the rules whose single-entity parts already hold.

The uniqueness and consistency constraints are not checked here: the
identifier's one verdict (:func:`~repro.core.consistency.check_table`)
judges the matching table before anything reaches the store.

**Fault tolerance** (``docs/RESILIENCE.md``): a pair whose rule
evaluation itself raises (a "poisoned" pair) is quarantined and
reported in :attr:`PairEvaluation.quarantined` instead of silently
dropped or allowed to sink the run, and a failed transactional store
write is retried under the executor's
:class:`~repro.resilience.RetryPolicy` (:meth:`PairExecutor.write_store`,
which the identifier's matching-table write goes through too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.blocking.base import CandidatePairs, IndexPair
from repro.blocking.errors import BlockingError
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.nulls import Maybe
from repro.relational.row import Row
from repro.resilience.retry import RetryPolicy
from repro.rules.compiled import CompiledRules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.identity import IdentityRule

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard import
    from repro.store.base import KeyValues, MatchStore

__all__ = ["PairEvaluation", "PairExecutor"]

# (matches, distinct, match rule indices, distinct rule indices, rule
# parts evaluated) — the two index lists are parallel to the two pair
# lists and name, by position in the rule sequences, the rule that fired
# for each classified pair.
BatchResult = Tuple[List[IndexPair], List[IndexPair], List[int], List[int], int]


def _evaluate_batch(
    batch: Iterable[IndexPair],
    r_rows: Sequence[Row],
    s_rows: Sequence[Row],
    identity_rules: Sequence[IdentityRule],
    distinctness: CompiledRules,
) -> BatchResult:
    """Classify *batch* in order; the pair kernel.

    A pair is *matching* when some identity rule's antecedent is TRUE,
    *distinct* when some distinctness rule is TRUE in either orientation
    (distinctness is symmetric, its rule text is not), credited to the
    first such rule in rule order — exactly the rule engine's semantics,
    without its per-call metric accounting.  Each row's single-entity
    rule parts are evaluated once per call (its signature); a pair's
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
    has_distinctness = bool(distinctness)
    evaluated = 0
    for i, j in batch:
        r_row = r_rows[i]
        s_row = s_rows[j]
        for index, rule in enumerate(identity_rules):
            if rule.applies(r_row, s_row) is Maybe.TRUE:
                matches.append((i, j))
                match_rules.append(index)
                break
        if not has_distinctness:
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


def _quarantining_pass(
    batch: Iterable[IndexPair],
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


@dataclass
class PairEvaluation:
    """Outcome of one executor run.

    ``matches`` and ``distinct`` hold ``(r_index, s_index)`` pairs in
    candidate order.  ``match_rules`` / ``distinct_rules`` are parallel
    lists of indices into the rule sequences given to ``evaluate``,
    naming which rule fired for each classified pair (the derivation
    journal's rule ids).
    """

    matches: List[IndexPair]
    distinct: List[IndexPair]
    pairs_evaluated: int
    match_rules: List[int] = field(default_factory=list)
    distinct_rules: List[int] = field(default_factory=list)
    quarantined: List[Tuple[IndexPair, str]] = field(default_factory=list)

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


class PairExecutor:
    """Classifies candidate pairs serially, in candidate order.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.observability.Tracer` receiving the
        ``executor.evaluate`` span and the ``executor.*`` / ``rules.*``
        counters.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` governing whether
        the store write is retried after a failed transactional commit.
    """

    def __init__(
        self,
        *,
        tracer: Optional[Tracer] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._retry = retry_policy

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
        """Classify every candidate pair.

        When *store* is given (with *r_keys* / *s_keys* parallel to the
        row sequences), the result is written to it in **one
        transaction** — matches and non-matches land journaled with the
        name of the rule that fired.
        """
        identity = tuple(identity_rules)
        distinctness = CompiledRules(distinctness_rules)
        # A CandidatePairs stream is re-iterable and knows its count, so
        # it is never materialised: a cross product stays lazy.
        pairs = (
            candidates
            if isinstance(candidates, CandidatePairs)
            else list(candidates)
        )
        tracer = self._tracer
        quarantined: List[Tuple[IndexPair, str]] = []
        with tracer.span("executor.evaluate", pairs=len(pairs)) as span:
            try:
                matches, distinct, match_rules, distinct_rules, evaluated = (
                    _evaluate_batch(pairs, r_rows, s_rows, identity, distinctness)
                )
            except Exception:
                # A poisoned pair: isolate it pair-by-pair instead of
                # sinking the whole run.
                matches, distinct, match_rules, distinct_rules, evaluated = (
                    _quarantining_pass(
                        pairs, r_rows, s_rows, identity, distinctness, quarantined
                    )
                )
            span.set("matches", len(matches))
            span.set("distinct", len(distinct))
            if quarantined:
                span.set("pairs_quarantined", len(quarantined))
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.inc("executor.pairs_evaluated", len(pairs))
            metrics.inc("rules.identity_evaluations", len(pairs) * len(identity))
            metrics.inc("rules.distinctness_evaluations", evaluated)
            if quarantined:
                metrics.inc("resilience.pairs_quarantined", len(quarantined))
        evaluation = PairEvaluation(
            matches=matches,
            distinct=distinct,
            pairs_evaluated=len(pairs),
            match_rules=match_rules,
            distinct_rules=distinct_rules,
            quarantined=quarantined,
        )
        if store is not None:
            if r_keys is None or s_keys is None:
                raise BlockingError(
                    "store writes need r_keys/s_keys parallel to the row lists"
                )

            def write() -> None:
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

            self.write_store(store, write)
        return evaluation

    def write_store(self, store: "MatchStore", write: Callable[[], None]) -> None:
        """Run *write* in one *store* transaction, retried under the policy.

        A failed transactional commit rolls everything back (journal
        appends and sequence numbers included), so re-running the whole
        write is safe.  Integrity errors are deterministic — retrying
        them only hides the violation behind a ``RetryExhaustedError``.
        """

        def transact() -> None:
            with store.transaction():
                write()

        if self._retry is None or self._retry.max_attempts <= 1:
            transact()
            return
        from repro.store.errors import StoreIntegrityError

        self._retry.call(
            transact,
            operation="executor.store_write",
            fatal=(StoreIntegrityError,),
            tracer=self._tracer,
        )
