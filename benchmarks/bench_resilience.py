"""X4 — resilience: clean-path overhead and checkpoint salvage.

Two modes:

- pytest-benchmark (the harness this directory shares): small workloads,
  asserting that runs with the fault-tolerance machinery attached stay
  bit-identical to plain runs while timing them.
- script mode (``python benchmarks/bench_resilience.py``): the
  characterisation at 1k/5k/10k rows per side, written machine-readable
  to ``BENCH_resilience.json`` — the wall-clock overhead of attaching an
  (idle) retry policy to the pair executor's store write, and the cost
  of salvaging a truncated checkpoint.  ``--smoke`` runs one small size
  and asserts equivalence (the CI check).

Honesty notes, recorded in the JSON itself: timings are best-of-N with
the runs interleaved, so the overhead percentage compares like with
like; on a loaded CI host individual numbers still jitter, which is why
the smoke assertion is on *equivalence*, not on a timing threshold —
the ≤5 % overhead claim is asserted in the full (script-mode) report
where the 10k-row run amortises the noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.blocking import BlockingContext, ExtendedKeyHashBlocker, PairExecutor
from repro.core.identifier import EntityIdentifier
from repro.core.matching_table import key_values
from repro.federation import IncrementalIdentifier
from repro.resilience import RetryPolicy
from repro.store import MemoryStore
from repro.store.checkpoint import salvage_incremental
from repro.workloads import (
    EmployeeWorkloadSpec,
    RestaurantWorkloadSpec,
    employee_workload,
    restaurant_workload,
)

_ROWS_PER_ENTITY = 0.75


def _workload(rows: int):
    n_entities = max(8, round(rows / _ROWS_PER_ENTITY))
    return restaurant_workload(
        RestaurantWorkloadSpec(
            n_entities=n_entities,
            name_pool=max(25, n_entities // 2),
            derivable_fraction=1.0,
            seed=31,
        )
    )


def _identifier(workload, **kwargs):
    return EntityIdentifier(
        workload.r,
        workload.s,
        workload.extended_key,
        ilfds=list(workload.ilfds),
        derive_ilfd_distinctness=False,
        **kwargs,
    )


def _idle_executor() -> PairExecutor:
    """The clean path under test: a retry policy attached, nothing failing."""
    return PairExecutor(retry_policy=RetryPolicy.fast(3))


# ----------------------------------------------------------------------
# pytest-benchmark mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [150, 400])
def test_clean_path_with_resilience_attached(benchmark, rows):
    workload = _workload(rows)
    plain = _identifier(
        workload, blocker=ExtendedKeyHashBlocker()
    ).matching_table()

    def run():
        return _identifier(
            workload,
            blocker=ExtendedKeyHashBlocker(),
            executor=_idle_executor(),
        ).matching_table()

    matching = benchmark(run)
    assert matching.pairs() == plain.pairs()


# ----------------------------------------------------------------------
# Script mode
# ----------------------------------------------------------------------
def _time_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


def _bench_overhead(rows: int, reps: int) -> dict:
    """Idle-resilience overhead on the instrumented stage.

    The executor's resilience hook is the retry policy around its store
    write, so the honest overhead measurement times
    ``PairExecutor.evaluate`` over the *same* pre-built candidate list,
    writing its matches to a fresh :class:`MemoryStore`, with and
    without the policy attached — derivation and blocking noise,
    identical in both arms, never enters the comparison.  Timings
    interleave plain/resilient and take the best of *reps*, so host
    noise hits both arms alike.
    """
    workload = _workload(rows)
    identifier = _identifier(workload)
    extended_r, extended_s = identifier.extended_relations()
    r_rows, s_rows = list(extended_r), list(extended_s)
    context = BlockingContext.of(identifier.extended_key.attributes)
    candidates = ExtendedKeyHashBlocker().candidate_pairs(
        r_rows, s_rows, context
    ).pair_list()
    rules = identifier.rules.identity_rules
    r_keys = [key_values(row, identifier.r_key_attributes) for row in r_rows]
    s_keys = [key_values(row, identifier.s_key_attributes) for row in s_rows]

    def write(executor):
        store = MemoryStore()
        store.set_key_attributes(
            identifier.r_key_attributes, identifier.s_key_attributes
        )
        return executor.evaluate(
            candidates,
            r_rows,
            s_rows,
            rules,
            store=store,
            r_keys=r_keys,
            s_keys=s_keys,
        )

    plain_exec = PairExecutor()
    resilient_exec = _idle_executor()

    def plain():
        return write(plain_exec)

    def resilient():
        return write(resilient_exec)

    assert resilient().matches == plain().matches  # before any timing
    plain_times, resilient_times = [], []
    for _ in range(reps):
        plain_times.append(_time_ms(plain))
        resilient_times.append(_time_ms(resilient))
    plain_ms = min(plain_times)
    resilient_ms = min(resilient_times)
    overhead = (resilient_ms - plain_ms) / plain_ms if plain_ms else 0.0
    return {
        "rows_r": len(workload.r),
        "rows_s": len(workload.s),
        "candidate_pairs": len(candidates),
        "plain_ms": round(plain_ms, 1),
        "resilient_idle_ms": round(resilient_ms, 1),
        "overhead_fraction": round(overhead, 4),
        "matches_equal": True,
    }


def _bench_salvage(rows: int) -> dict:
    """Cost of rebuilding a verified session from a truncated checkpoint."""
    import tempfile

    workload = employee_workload(
        EmployeeWorkloadSpec(
            n_entities=max(8, round(rows / 2)),
            name_pool=max(120, rows),
            seed=7,
        )
    )
    identifier = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        workload.extended_key,
        ilfds=list(workload.ilfds),
    )
    identifier.load(workload.r, workload.s)
    fd, path = tempfile.mkstemp(suffix=".sqlite")
    os.close(fd)
    os.remove(path)
    try:
        checkpoint_ms = _time_ms(lambda: identifier.checkpoint(path))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        start = time.perf_counter()
        salvaged, report = salvage_incremental(
            path, r=workload.r, s=workload.s
        )
        salvage_ms = (time.perf_counter() - start) * 1000.0
        return {
            "rows_r": len(workload.r),
            "checkpoint_bytes": size,
            "truncated_to_bytes": size // 2,
            "checkpoint_ms": round(checkpoint_ms, 1),
            "salvage_ms": round(salvage_ms, 1),
            "matches_equal": salvaged.match_pairs()
            == identifier.match_pairs(),
            "journal_recovered": report.journal_recovered,
            "journal_total": report.journal_total,
        }
    finally:
        if os.path.exists(path):
            os.remove(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Resilience bench; writes BENCH_resilience.json."
    )
    parser.add_argument(
        "--sizes",
        default="1000,5000,10000",
        help="comma-separated rows-per-side targets (default 1000,5000,10000)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="repetitions per timing (best-of; default 5)",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
        ),
        help="output JSON path (default: BENCH_resilience.json at the repo root)",
    )
    parser.add_argument(
        "--history",
        default=None,
        help="bench-history JSONL to append to "
        "(default: BENCH_HISTORY.jsonl at the repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small size, assert equivalence, skip the file write",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        overhead = _bench_overhead(300, reps=2)
        print(f"smoke: overhead={overhead['overhead_fraction']:.2%}")
        assert overhead["matches_equal"], "idle resilience changed the result"
        return 0

    from conftest import env_header
    from history import record_series

    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    report = {
        "bench": "resilience",
        "env": env_header(),
        "overhead": [],
        "salvage": None,
        "note": "overhead_fraction compares best-of-N interleaved timings of "
        "the identical pair evaluation and MemoryStore write with and "
        "without the retry policy attached; the acceptance threshold is "
        "overhead <= 5% at the largest size",
    }
    for rows in sizes:
        print(f"benching idle-resilience overhead at {rows} rows ...", flush=True)
        report["overhead"].append(_bench_overhead(rows, args.reps))
    print("benching checkpoint salvage ...", flush=True)
    report["salvage"] = _bench_salvage(1000)

    largest = report["overhead"][-1]
    report["overhead_ok"] = largest["overhead_fraction"] <= 0.05

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for entry in report["overhead"]:
        print(
            f"  rows={entry['rows_r']}: plain {entry['plain_ms']}ms, "
            f"resilient-idle {entry['resilient_idle_ms']}ms "
            f"(overhead {entry['overhead_fraction']:.2%})"
        )
    salvage = report["salvage"]
    print(
        f"  salvage: {salvage['salvage_ms']}ms to rebuild "
        f"{salvage['rows_r']}-row session from a half-truncated checkpoint "
        f"(matches_equal={salvage['matches_equal']})"
    )
    if not report["overhead_ok"]:
        print(
            "  WARNING: overhead at the largest size exceeds the 5% budget",
            file=sys.stderr,
        )

    record_series(
        "resilience",
        [
            (
                "resilient_idle",
                "latency",
                largest["resilient_idle_ms"],
                largest["rows_r"],
            ),
        ],
        env=report["env"],
        history_path=args.history,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
