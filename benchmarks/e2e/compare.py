"""``compare``: judge a change's runs against its parent's, per metric.

``python3 benchmarks/e2e/run.py compare A.json... -- B.json...`` reads
result files written by ``--out`` (A = parent, B = change; list them in
the order they ran, so A[i] and B[i] form the i-th pair) and prints one
row per (workload, metric) with each side's quartiles and a verdict:

- ``unresolved``: either side's spread (interquartile range over its
  median) is wider than the metric's bound, unless every B run reads
  better than every A run;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: there are at least ten pairs, B wins at least nine
  tenths of them (ties count for neither side), and the medians differ,
  in B's favour, by more than A's interquartile range;
- ``unchanged``: otherwise.

Per-layer metrics have no bound; their rows carry the quartiles and the
verdict ``-``.  Exit status 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.spans import quartiles

MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def _load(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, value in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(float(value))
    return values


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> str:
    """The verdict for one metric, by the rules in the module docstring."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if lower_is_better else -1.0

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    spread = max(
        (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
        (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0,
    )
    all_better = all(better(x, y) for x in b for y in a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    gain = sign * (qa[1] - qb[1])
    improved = (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and gain > qa[2] - qa[0]
    )
    if spread > bound and not all_better:
        return "unresolved"
    if qa[1] and sign * (qb[1] - qa[1]) / abs(qa[1]) > bound:
        return "regressed"
    return "improved" if improved else "unchanged"


def compare_main(argv: Sequence[str], benchmark_json: Path) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json... -- B.json...")
        return 2
    split = list(argv).index("--")
    a_files, b_files = argv[:split], argv[split + 1:]
    if not a_files or not b_files:
        print("usage: run.py compare A.json... -- B.json...")
        return 2
    spec = json.loads(benchmark_json.read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    a_values, b_values = _load(a_files), _load(b_files)

    header = (
        f"{'workload':<15} {'metric':<30} {'unit':<8} "
        f"{'A q1/median/q3':<32} {'B q1/median/q3':<32} {'change':>8}  verdict"
    )
    print(header)
    regressed = 0
    for key in sorted(set(a_values) | set(b_values)):
        workload, name = key
        entry = metrics.get(name)
        if entry is None:
            continue
        a, b = a_values.get(key), b_values.get(key)
        if not a or not b:
            print(f"{workload:<15} {name:<30} {entry['unit']:<8} missing on one side")
            continue
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        if "bound" in entry:
            result = verdict(a, b, entry["bound"], entry["better"] == "lower")
        else:
            result = "-"
        regressed += result == "regressed"
        print(
            f"{workload:<15} {name:<30} {entry['unit']:<8} "
            f"{'/'.join(f'{q:.4g}' for q in qa):<32} "
            f"{'/'.join(f'{q:.4g}' for q in qb):<32} {change:>+8.1%}  {result}"
        )
    print(f"# {len(a_files)} A file(s), {len(b_files)} B file(s); {regressed} regressed")
    return 1 if regressed else 0
