"""Chaos properties: recovery from any seeded fault schedule is exact.

The headline guarantee of ``repro.resilience``: for *any* deterministic
fault schedule the injector can draw — commit failures and crashes,
source-load errors — a run with enough retry budget produces a matching
table **bit-identical** to the fault-free run, on both store backends.
A second property drives the corruption path: a checkpoint truncated at
an arbitrary offset is always detected on resume, and salvage rebuilds
the baseline session exactly.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.blocking import BlockingContext, CrossProductBlocker, PairExecutor
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import key_values
from repro.federation import IncrementalIdentifier
from repro.relational.row import Row
from repro.resilience import (
    SITE_SOURCE_LOAD_R,
    SITE_SOURCE_LOAD_S,
    SITE_STORE_COMMIT,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.store import MemoryStore, SqliteStore, StoreError, salvage_incremental
from repro.workloads import EmployeeWorkloadSpec, employee_workload

# RetryPolicy.fast(8) outrides any schedule FaultPlan.random draws with
# horizon=6: at most 6 consecutive faults per site, so attempt 7 (of 8)
# always lands — which is what makes the equivalence property total.
RETRY = RetryPolicy.fast(8)
CHAOS = dict(rate=0.3, horizon=6, kinds=("error", "crash"))

KEY = ExtendedKey(["name", "cuisine"])
IDENTITY = (KEY.identity_rule(),)
R_ROWS = [{"name": f"r{i}", "cuisine": "Indian"} for i in range(8)] + [
    {"name": f"both{i}", "cuisine": "Thai"} for i in range(2)
]
S_ROWS = [{"name": f"s{i}", "cuisine": "Chinese"} for i in range(8)] + [
    {"name": f"both{i}", "cuisine": "Thai"} for i in range(2)
]
R_KEYS = [key_values(Row(row), KEY.attributes) for row in R_ROWS]
S_KEYS = [key_values(Row(row), KEY.attributes) for row in S_ROWS]

WORKLOAD = employee_workload(EmployeeWorkloadSpec(n_entities=12, seed=3))


def _candidates():
    return CrossProductBlocker().candidate_pairs(
        R_ROWS, S_ROWS, BlockingContext.of(KEY.attributes)
    )


def _evaluate(executor, store):
    return executor.evaluate(
        _candidates(),
        R_ROWS,
        S_ROWS,
        IDENTITY,
        store=store,
        r_keys=R_KEYS,
        s_keys=S_KEYS,
    )


def _sqlite_path():
    fd, path = tempfile.mkstemp(suffix=".sqlite")
    os.close(fd)
    os.remove(path)
    return path


def _baseline_session(store=None):
    identifier = IncrementalIdentifier(
        WORKLOAD.r.schema,
        WORKLOAD.s.schema,
        WORKLOAD.extended_key,
        ilfds=list(WORKLOAD.ilfds),
        store=store,
    )
    identifier.load(WORKLOAD.r, WORKLOAD.s)
    return identifier


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_executor_and_commit_chaos_is_bit_identical(seed):
    baseline_store = MemoryStore()
    baseline_store.set_key_attributes(KEY.attributes, KEY.attributes)
    baseline = _evaluate(PairExecutor(), baseline_store)

    plan = FaultPlan.random(seed, sites=(SITE_STORE_COMMIT,), **CHAOS)
    injector = FaultInjector(plan)
    store = MemoryStore(fault_injector=injector)
    store.set_key_attributes(KEY.attributes, KEY.attributes)
    chaotic = _evaluate(PairExecutor(retry_policy=RETRY), store)
    assert chaotic.matches == baseline.matches
    assert chaotic.distinct == baseline.distinct
    assert chaotic.match_rules == baseline.match_rules
    assert not chaotic.quarantined
    assert store.match_pairs() == baseline_store.match_pairs()
    assert store.non_match_pairs() == baseline_store.non_match_pairs()
    store.verify_journal()
    store.check_constraints()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_source_and_commit_chaos_is_bit_identical_on_sqlite(seed):
    baseline = _baseline_session()

    plan = FaultPlan.random(
        seed,
        sites=(SITE_SOURCE_LOAD_R, SITE_SOURCE_LOAD_S, SITE_STORE_COMMIT),
        **CHAOS,
    )
    injector = FaultInjector(plan)
    path = _sqlite_path()
    store = SqliteStore(path, retry_policy=RETRY, fault_injector=injector)
    try:
        identifier = IncrementalIdentifier(
            WORKLOAD.r.schema,
            WORKLOAD.s.schema,
            WORKLOAD.extended_key,
            ilfds=list(WORKLOAD.ilfds),
            store=store,
            retry_policy=RETRY,
            fault_injector=injector,
        )
        identifier.load_sources(lambda: WORKLOAD.r, lambda: WORKLOAD.s)
        assert identifier.match_pairs() == baseline.match_pairs()
        assert (
            identifier.matching_table().pairs()
            == baseline.matching_table().pairs()
        )
        # The durable mirror agrees with the live state, faults and all.
        assert store.match_pairs() == identifier.match_pairs()
        store.verify_journal()
        store.check_constraints()
    finally:
        store.close()
        os.remove(path)


@settings(max_examples=15, deadline=None)
@given(percent=st.integers(min_value=5, max_value=95))
def test_truncation_is_detected_and_salvage_restores_the_baseline(percent):
    baseline = _baseline_session()
    path = _sqlite_path()
    try:
        baseline.checkpoint(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size * percent // 100))

        with pytest.raises(StoreError):
            IncrementalIdentifier.resume(path)

        salvaged, report = salvage_incremental(
            path,
            r=WORKLOAD.r,
            s=WORKLOAD.s,
            extended_key=WORKLOAD.extended_key,
            ilfds=WORKLOAD.ilfds,
        )
        assert salvaged.match_pairs() == baseline.match_pairs()
        assert salvaged.verify().is_sound
        salvaged.store.verify_journal()
        assert report.matches_rebuilt == len(baseline.match_pairs())
    finally:
        os.remove(path)
