"""``repro.resilience`` — fault tolerance for the identification pipeline.

The paper's guarantees (soundness, completeness, monotonicity, the
uniqueness/consistency constraints on MT_RS/NMT_RS) are statements about
the *final* state of the tables; this subpackage makes sure the system
still reaches such a state when the machinery under it misbehaves —
a server process killed mid-request, a SQLite commit failing, a federated
source refusing to load, a checkpoint file losing its tail.

- :mod:`repro.resilience.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`: deterministic, seeded fault injection at named
  pipeline sites (no wall-clock anywhere), usable from tests and the
  ``--inject-faults`` CLI flag.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy`: capped
  exponential backoff with seeded jitter and per-operation deadlines,
  applied to source loading (:mod:`repro.federation.incremental`), the
  pair executor's store write (:mod:`repro.blocking.executor`), and
  transactional commits (:mod:`repro.store`).
- :mod:`repro.resilience.overload` — :class:`AdmissionController`
  (bounded in-flight queue + per-class token buckets shedding with
  429/503 + ``Retry-After`` *before* work is queued) and
  :class:`CircuitBreaker` (closed/open/half-open with a seeded,
  deterministic probe schedule), the serving layer's overload armour.
- :mod:`repro.resilience.chaos` — the chaos harness behind
  ``repro chaos`` and ``tests/chaos/``: real server subprocesses,
  seeded fault schedules (including SIGKILL + restart), bit-identical
  convergence checks.
- :mod:`repro.resilience.errors` — the exception vocabulary (injected
  faults vs. give-ups).

Recovery behaviours built on these live with the components they guard:
pair quarantine in :class:`~repro.blocking.PairExecutor`, corruption-safe resume
and salvage in :mod:`repro.store.checkpoint`, and graceful source
degradation in :class:`~repro.federation.view.VirtualIntegratedView`.
Every failure handled emits ``resilience.*`` metrics through
:mod:`repro.observability`; ``repro stats`` renders them as a resilience
section.  See ``docs/RESILIENCE.md`` for the fault model.
"""

from repro.observability.metrics import register_metric
from repro.resilience.chaos import (
    ChaosClient,
    ChaosError,
    ChaosReport,
    ChaosSchedule,
    ChaosWorkload,
    ServerProcess,
    default_schedules,
    run_chaos,
    run_entity_build_chaos,
    run_schedule,
)
from repro.resilience.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultPlanError,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    InjectedKill,
    OverloadShedError,
    ResilienceError,
    RetryExhaustedError,
    SourceLoadError,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    KIND_KILL,
    KNOWN_SITES,
    NO_OP_INJECTOR,
    SERVING_SITES,
    SITE_CHECKPOINT,
    SITE_ENTITY_PERSIST,
    SITE_SERVING_INVALIDATE,
    SITE_SERVING_REQUEST,
    SITE_SOURCE_LOAD_R,
    SITE_SOURCE_LOAD_S,
    SITE_STORE_COMMIT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    AdmissionTicket,
    CircuitBreaker,
    TokenBucket,
)
from repro.resilience.retry import NO_RETRY, RetryPolicy

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "ChaosClient",
    "ChaosError",
    "ChaosReport",
    "ChaosSchedule",
    "ChaosWorkload",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "InjectedKill",
    "KIND_KILL",
    "KNOWN_SITES",
    "NO_OP_INJECTOR",
    "NO_RETRY",
    "OverloadShedError",
    "ResilienceError",
    "RetryExhaustedError",
    "RetryPolicy",
    "SERVING_SITES",
    "ServerProcess",
    "SITE_CHECKPOINT",
    "SITE_ENTITY_PERSIST",
    "SITE_SERVING_INVALIDATE",
    "SITE_SERVING_REQUEST",
    "SITE_SOURCE_LOAD_R",
    "SITE_SOURCE_LOAD_S",
    "SITE_STORE_COMMIT",
    "SourceLoadError",
    "TokenBucket",
    "default_schedules",
    "run_chaos",
    "run_entity_build_chaos",
    "run_schedule",
]

for _name, _description in (
    ("resilience.faults_injected", "deterministic faults fired by the injector"),
    ("resilience.retries", "operation attempts retried after a failure"),
    ("resilience.giveups", "operations abandoned after exhausting retries"),
    ("resilience.backoff_ms", "milliseconds of scheduled retry backoff"),
    ("resilience.pairs_quarantined", "poisoned pairs isolated and reported"),
    ("resilience.commit_failures", "transactional commits that failed and rolled back"),
    ("resilience.source_failures", "federated source loads/refreshes that failed"),
    ("resilience.degraded_refreshes", "view refreshes that left a source stale"),
    ("resilience.stale_served", "queries served from last-known-good state"),
    ("resilience.salvages", "checkpoint salvage recoveries performed"),
    ("overload.admitted", "requests admitted past the admission controller"),
    ("overload.shed_429", "requests shed with 429 (rate limit exhausted)"),
    ("overload.shed_503", "requests shed with 503 (in-flight queue full)"),
    ("overload.queue_depth", "in-flight requests observed at each admission"),
):
    register_metric(_name, _description)
del _name, _description
