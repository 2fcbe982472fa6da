"""Deterministic fault injection: plans, sites, and the injector.

A :class:`FaultPlan` names, per instrumented *site*, which invocations
fail and how.  Plans are pure data — no wall-clock, no global state —
so a plan plus a workload is a reproducible chaos experiment: the
``k``-th time the pipeline passes a site, the same fault fires (or does
not), regardless of machine speed or thread scheduling.

Sites are dotted strings.  The ones built into the pipeline:

========================================  =====================================
site                                      instrumented operation
========================================  =====================================
``federation.load_source.r`` / ``.s``     one attempt to load/refresh a source
``store.commit``                          one transactional commit
``store.checkpoint``                      one checkpoint snapshot write
``serving.request``                       one serving operation (a resolve
                                          lookup or an ingest) being handled
``serving.invalidate``                    one post-commit cache invalidation
``entities.persist``                      one batch of an entity build being
                                          committed
========================================  =====================================

Plans come from three constructors:

- :meth:`FaultPlan.parse` — the CLI's ``--inject-faults`` syntax, e.g.
  ``"store.checkpoint:crash@0;store.commit:error@1..2"``,
- :meth:`FaultPlan.random` — a seeded random schedule over given sites
  (the chaos property tests draw these),
- :meth:`FaultPlan.none` — the empty plan.

The :class:`FaultInjector` holds a plan plus per-site invocation
counters; components call :meth:`FaultInjector.fire` at their sites.
:data:`NO_OP_INJECTOR` is the free default every instrumented component
falls back to.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.errors import (
    FaultPlanError,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedKill,
)

__all__ = [
    "SITE_SOURCE_LOAD_R",
    "SITE_SOURCE_LOAD_S",
    "SITE_STORE_COMMIT",
    "SITE_CHECKPOINT",
    "SITE_SERVING_REQUEST",
    "SITE_SERVING_INVALIDATE",
    "SITE_ENTITY_PERSIST",
    "KNOWN_SITES",
    "SERVING_SITES",
    "FAULT_KINDS",
    "KIND_KILL",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "NO_OP_INJECTOR",
]

SITE_SOURCE_LOAD_R = "federation.load_source.r"
SITE_SOURCE_LOAD_S = "federation.load_source.s"
SITE_STORE_COMMIT = "store.commit"
SITE_CHECKPOINT = "store.checkpoint"
SITE_SERVING_REQUEST = "serving.request"
SITE_SERVING_INVALIDATE = "serving.invalidate"
SITE_ENTITY_PERSIST = "entities.persist"

KNOWN_SITES = (
    SITE_SOURCE_LOAD_R,
    SITE_SOURCE_LOAD_S,
    SITE_STORE_COMMIT,
    SITE_CHECKPOINT,
    SITE_SERVING_REQUEST,
    SITE_SERVING_INVALIDATE,
    SITE_ENTITY_PERSIST,
)
"""The sites the pipeline instruments (plans may name others freely)."""

SERVING_SITES = (
    SITE_SERVING_REQUEST,
    SITE_SERVING_INVALIDATE,
    SITE_STORE_COMMIT,
)
"""The sites a live server exercises (chaos schedules draw from these)."""

KIND_KILL = "kill"
"""The lethal kind: a real ``SIGKILL`` to the current process."""

FAULT_KINDS: Dict[str, Type[InjectedFault]] = {
    "error": InjectedFault,
    "crash": InjectedCrash,
    "hang": InjectedHang,
    KIND_KILL: InjectedKill,
}
"""Fault kind names → the exception class the injector raises."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *site*'s invocation number *index* raises *kind*.

    ``index`` is 0-based and counts invocations of the site across the
    injector's lifetime, which is what makes schedules deterministic.
    """

    site: str
    index: int
    kind: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.index < 0:
            raise FaultPlanError(f"fault index must be >= 0, got {self.index}")

    def __str__(self) -> str:
        return f"{self.site}:{self.kind}@{self.index}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (nothing ever fails)."""
        return cls(())

    @classmethod
    def of(cls, specs: Iterable[FaultSpec]) -> "FaultPlan":
        """A plan from explicit specs."""
        return cls(tuple(specs))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax: ``site:kind@index[..last]``, ``;``-joined.

        Examples::

            store.commit:crash@0
            store.commit:error@1;store.checkpoint:crash@0..2
            federation.load_source.s:error@0..1

        ``kind`` defaults to ``error`` when omitted
        (``"store.commit@0"``).  Raises :class:`FaultPlanError` on
        malformed input.
        """
        specs: List[FaultSpec] = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                raise FaultPlanError(
                    f"fault spec {chunk!r} lacks '@index' "
                    "(expected site[:kind]@index[..last])"
                )
            head, _, index_text = chunk.rpartition("@")
            site, _, kind = head.partition(":")
            site = site.strip()
            kind = kind.strip() or "error"
            if not site:
                raise FaultPlanError(f"fault spec {chunk!r} names no site")
            first_text, dots, last_text = index_text.partition("..")
            try:
                first = int(first_text)
                last = int(last_text) if dots else first
            except ValueError:
                raise FaultPlanError(
                    f"fault spec {chunk!r}: bad index {index_text!r}"
                ) from None
            if last < first:
                raise FaultPlanError(
                    f"fault spec {chunk!r}: empty index range {index_text!r}"
                )
            for index in range(first, last + 1):
                specs.append(FaultSpec(site, index, kind))
        return cls(tuple(specs))

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        sites: Sequence[str] = KNOWN_SITES,
        rate: float = 0.25,
        horizon: int = 6,
        kinds: Sequence[str] = ("error", "crash"),
    ) -> "FaultPlan":
        """A seeded random schedule — same seed, same plan, any machine.

        For each *site* and each invocation index below *horizon*, a
        fault of a random *kind* is scheduled with probability *rate*
        (drawn from ``random.Random(seed)``; no wall-clock anywhere).
        """
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        for site in sites:
            for index in range(horizon):
                if rng.random() < rate:
                    specs.append(FaultSpec(site, index, rng.choice(list(kinds))))
        return cls(tuple(specs))

    def is_empty(self) -> bool:
        """True iff the plan schedules nothing."""
        return not self.specs

    def lookup(self) -> Dict[str, Dict[int, str]]:
        """``site → {invocation index → kind}`` (later specs win)."""
        table: Dict[str, Dict[int, str]] = {}
        for spec in self.specs:
            table.setdefault(spec.site, {})[spec.index] = spec.kind
        return table

    def __str__(self) -> str:
        return ";".join(str(spec) for spec in self.specs) or "(no faults)"


@dataclass
class FaultInjector:
    """Fires a :class:`FaultPlan` deterministically at instrumented sites.

    One injector observes one run: it counts invocations per site and
    raises the scheduled exception when the counter hits a planned
    index.  ``fired`` records every fault raised (for reports and
    assertions); metrics land in the tracer as
    ``resilience.faults_injected``.
    """

    plan: FaultPlan = field(default_factory=FaultPlan.none)
    tracer: Tracer = NO_OP_TRACER

    enabled: bool = True
    lethal: bool = True

    def __post_init__(self) -> None:
        self._table = self.plan.lookup()
        self._counts: Dict[str, int] = {}
        self.fired: List[FaultSpec] = []

    def fire(self, site: str) -> None:
        """Count one invocation of *site*; raise (or kill) if the plan says so.

        A scheduled ``kill`` delivers a real ``SIGKILL`` to the current
        process — no exception, no cleanup, the honest mid-transaction
        death the chaos harness schedules in subprocesses.  With
        ``lethal=False`` it raises :class:`InjectedKill` instead, so
        in-process tests can assert the schedule without dying.
        """
        index = self._counts.get(site, 0)
        self._counts[site] = index + 1
        kind = self._table.get(site, {}).get(index)
        if kind is None:
            return
        spec = FaultSpec(site, index, kind)
        self.fired.append(spec)
        if self.tracer.enabled:
            self.tracer.metrics.inc("resilience.faults_injected")
        if kind == KIND_KILL and self.lethal:
            os.kill(
                os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM)
            )  # never returns
        raise FAULT_KINDS[kind](f"injected {kind} at {spec}")

    def invocations(self, site: str) -> int:
        """How many times *site* has fired (including faulted calls)."""
        return self._counts.get(site, 0)

    def reset(self) -> None:
        """Zero all counters and the fired log (plan unchanged)."""
        self._counts.clear()
        self.fired.clear()


class _NoOpInjector(FaultInjector):
    """The free default: counts nothing, raises nothing."""

    def __init__(self) -> None:
        super().__init__(FaultPlan.none())
        self.enabled = False

    def fire(self, site: str) -> None:  # noqa: D102 - free no-op
        pass


NO_OP_INJECTOR = _NoOpInjector()
"""Shared do-nothing injector every instrumented component defaults to."""
