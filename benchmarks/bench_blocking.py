"""X2 — candidate-pair blocking: pruning ratios and wall-clock.

Two modes:

- pytest-benchmark (the harness this directory shares): small workloads,
  asserting blocked/legacy equivalence while timing both paths.
- script mode (``python benchmarks/bench_blocking.py``): the scaling
  characterisation at 1k/5k/10k rows per side, written machine-readable
  to ``BENCH_blocking.json`` — pairs-pruned ratio and wall-clock of the
  hash-blocked pipeline vs the cross-product path.  ``--smoke`` runs one
  small size and asserts the reduction ratio is positive (the CI check).

Honesty note, recorded in the JSON itself: full cross-product pair
evaluation is only measured outright where affordable; at larger sizes
it is extrapolated from a timed slice (``estimated: true``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import pytest

from repro.blocking import (
    BlockingContext,
    CrossProductBlocker,
    ExtendedKeyHashBlocker,
    PairExecutor,
)
from repro.core.identifier import EntityIdentifier
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload

# rows per side ≈ 0.75 × n_entities with the default split fractions
_ROWS_PER_ENTITY = 0.75
_EVALUATE_BUDGET_PAIRS = 2_000_000


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


# ----------------------------------------------------------------------
# pytest-benchmark mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows", [150, 400])
def test_hash_blocked_pipeline(benchmark, rows):
    workload = _workload(rows)
    legacy = _identifier(workload).matching_table().pairs()

    def run():
        return _identifier(
            workload, blocker=ExtendedKeyHashBlocker()
        ).matching_table()

    matching = benchmark(run)
    assert matching.pairs() == legacy


@pytest.mark.parametrize("rows", [150, 400])
def test_legacy_pipeline(benchmark, rows):
    workload = _workload(rows)

    def run():
        return _identifier(workload).matching_table()

    matching = benchmark(run)
    assert matching.pairs() == workload.truth


def test_reduction_ratio_positive(benchmark):
    workload = _workload(200)
    identifier = _identifier(workload)
    extended_r, extended_s = identifier.extended_relations()
    r_rows, s_rows = list(extended_r), list(extended_s)
    context = BlockingContext.of(identifier.extended_key.attributes)

    def run():
        return ExtendedKeyHashBlocker().candidate_pairs(r_rows, s_rows, context)

    candidates = benchmark(run)
    assert candidates.reduction_ratio > 0


# ----------------------------------------------------------------------
# Script mode
# ----------------------------------------------------------------------
def _time_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1000.0


def _evaluate_cross_ms(identifier, r_rows, s_rows, context) -> dict:
    """Wall-clock of evaluating the cross product, sliced when too big."""
    total = len(r_rows) * len(s_rows)
    candidates = CrossProductBlocker().candidate_pairs(r_rows, s_rows, context)
    executor = PairExecutor()
    rules = identifier.rules.identity_rules
    if total <= _EVALUATE_BUDGET_PAIRS:
        elapsed = _time_ms(
            lambda: executor.evaluate(candidates, r_rows, s_rows, rules)
        )
        return {"evaluate_ms": round(elapsed, 1), "estimated": False}
    slice_pairs = list(itertools.islice(iter(candidates), _EVALUATE_BUDGET_PAIRS))
    elapsed = _time_ms(
        lambda: executor.evaluate(slice_pairs, r_rows, s_rows, rules)
    )
    scaled = elapsed * (total / len(slice_pairs))
    return {
        "evaluate_ms": round(scaled, 1),
        "estimated": True,
        "measured_pairs": len(slice_pairs),
        "measured_ms": round(elapsed, 1),
    }


def _bench_size(rows: int) -> dict:
    workload = _workload(rows)
    legacy = _identifier(workload)
    legacy_mt_ms = _time_ms(legacy.matching_table)
    legacy_nmt_ms = _time_ms(legacy.negative_matching_table)

    blocked = _identifier(workload, blocker=ExtendedKeyHashBlocker())
    blocked_mt_ms = _time_ms(blocked.matching_table)
    blocked_nmt_ms = _time_ms(blocked.negative_matching_table)

    extended_r, extended_s = legacy.extended_relations()
    r_rows, s_rows = list(extended_r), list(extended_s)
    context = BlockingContext.of(legacy.extended_key.attributes)
    generate_ms = _time_ms(
        lambda: ExtendedKeyHashBlocker()
        .candidate_pairs(r_rows, s_rows, context)
        .pair_list()
    )
    stats = ExtendedKeyHashBlocker().candidate_pairs(r_rows, s_rows, context).stats()

    return {
        "rows_r": len(r_rows),
        "rows_s": len(s_rows),
        "total_pairs": stats["total_pairs"],
        "hash": {
            "pairs_generated": stats["pairs_generated"],
            "pairs_pruned": stats["pairs_pruned"],
            "reduction_ratio": round(stats["reduction_ratio"], 6),
            "fraction_evaluated": round(1.0 - stats["reduction_ratio"], 6),
            "generate_ms": round(generate_ms, 1),
            "pipeline_mt_ms": round(blocked_mt_ms, 1),
            "pipeline_nmt_ms": round(blocked_nmt_ms, 1),
        },
        "cross": {
            "pipeline_mt_ms": round(legacy_mt_ms, 1),
            "pipeline_nmt_ms": round(legacy_nmt_ms, 1),
            **_evaluate_cross_ms(legacy, r_rows, s_rows, context),
        },
        "mt_equal": blocked.matching_table().pairs()
        == legacy.matching_table().pairs(),
        "nmt_equal": blocked.negative_matching_table().pairs()
        == legacy.negative_matching_table().pairs(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Blocking scaling bench; writes BENCH_blocking.json."
    )
    parser.add_argument(
        "--sizes",
        default="1000,5000,10000",
        help="comma-separated rows-per-side targets (default 1000,5000,10000)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_blocking.json"),
        help="output JSON path (default: BENCH_blocking.json at the repo root)",
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
        help="one small size, assert reduction ratio > 0, skip the file write",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        result = _bench_size(300)
        ratio = result["hash"]["reduction_ratio"]
        print(f"smoke: reduction_ratio={ratio:.4f} mt_equal={result['mt_equal']}")
        assert ratio > 0, "hash blocker pruned nothing"
        assert result["mt_equal"], "blocked matching table diverged"
        return 0

    from conftest import env_header
    from history import record_series

    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    report = {"bench": "blocking", "env": env_header(), "sizes": []}
    for rows in sizes:
        print(f"benching {rows} rows per side ...", flush=True)
        report["sizes"].append(_bench_size(rows))

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for entry in report["sizes"]:
        print(
            f"  rows={entry['rows_r']}: evaluated "
            f"{entry['hash']['fraction_evaluated']:.2%} of "
            f"{entry['total_pairs']} pairs, mt_equal={entry['mt_equal']}, "
            f"nmt_equal={entry['nmt_equal']}"
        )

    largest = report["sizes"][-1]
    record_series(
        "blocking",
        [
            (
                "hash_pipeline_mt",
                "latency",
                largest["hash"]["pipeline_mt_ms"],
                largest["rows_r"],
            ),
            (
                "hash_generate",
                "latency",
                largest["hash"]["generate_ms"],
                largest["rows_r"],
            ),
        ],
        env=report["env"],
        history_path=args.history,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
