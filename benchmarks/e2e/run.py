"""Run the end-to-end benchmark, or compare two sets of its results.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE]
    python3 benchmarks/e2e/run.py compare A.json... -- B.json...

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same command.)
Each (workload, trace) run prints its metrics one per line as
``workload metric value unit``, informational lines starting with ``#``,
and finally one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones; without
``--trace`` both run.

Exit status: 0 when every output check passed; 1 when a check failed
(the JSON line says ``"correct": false``); 2 when the run is invalid —
the source tree is missing, or the load generator ran late or used too
much CPU to trust the numbers — in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("identify-nmt", "entities-build", "serve-read", "serve-mixed")

#: A run is invalid, not a result, past these (see README).
MAX_WRITE_LAG_P99_MS = 20.0
MAX_CLIENT_CPU_FRAC = 0.9


def _git_sha() -> str:
    """HEAD's SHA read from ``.git`` in the tree itself (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env_line(when: str) -> str:
    load = " ".join(f"{value:.2f}" for value in os.getloadavg())
    return (
        f"# env {when}: nproc {os.cpu_count()}, python "
        f"{platform.python_version()}, sha {_git_sha()[:12]}, loadavg {load}"
    )


def _run_one(workload: str, seed: int, seconds: float, trace: bool,
             scale: str, workdir: str) -> Dict[str, Any]:
    if workload in ("identify-nmt", "entities-build"):
        from benchmarks.e2e.batch import run_batch as runner
    else:
        from benchmarks.e2e.serve import run_serve as runner
    return runner(ROOT, workload, seed, seconds, trace, scale, workdir)


def _invalid(info: Dict[str, Any]) -> Optional[str]:
    lag = info.get("write_lag_p99_ms") or 0.0
    if lag > MAX_WRITE_LAG_P99_MS:
        return f"write generator ran {lag:.1f} ms late at p99 (limit {MAX_WRITE_LAG_P99_MS})"
    cpu = info.get("client_cpu_frac", 0.0)
    if cpu > MAX_CLIENT_CPU_FRAC:
        return f"the client used {cpu:.2f} of a core (limit {MAX_CLIENT_CPU_FRAC})"
    return None


def _format(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import compare_main

        return compare_main(argv[1:], ROOT / "BENCHMARK.json")

    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run (default: BENCHMARK.json "
                        "run_seconds, 1 with --smoke)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both, one run each)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 1 s window (the smoke test)")
    parser.add_argument("--out", help="also write the results as JSON to FILE")
    parser.add_argument("--trace-out", help="write the traced runs' spans as JSONL")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"e2e: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "default"
    seconds = args.seconds or (1.0 if args.smoke else float(spec["run_seconds"]))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (args.trace == "1",)

    runs: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    # Temporary files of this process, its children and SQLite stay in
    # the checkout too.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(scratch)
    try:
        for workload in workloads:
            for trace in modes:
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                print(f"# e2e: workload {workload}, seed {args.seed}, "
                      f"{seconds:g} s, trace {int(trace)}, scale {scale}")
                print(_env_line("before"), flush=True)
                with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                    outcome = _run_one(workload, args.seed, seconds, trace, scale, workdir)
                print(_env_line("after"))
                reason = _invalid(outcome["info"])
                if reason:
                    print(f"e2e: invalid run ({workload}): {reason}", file=sys.stderr)
                    return 2
                metrics = {}
                for entry in wanted:
                    # A layer this workload never calls did no work: 0.
                    value = outcome["metrics"].get(entry["name"], 0 if trace else None)
                    if value is None:
                        raise RuntimeError(f"{workload} did not measure {entry['name']}")
                    metrics[entry["name"]] = value
                    print(f"{workload} {entry['name']} {_format(value)} {entry['unit']}")
                info = " ".join(f"{k}={_format(v)}" for k, v in outcome["info"].items())
                print(f"# info {workload}: {info}")
                for failure in outcome["failures"]:
                    print(f"# CHECK FAILED {workload}: {failure}")
                spans.extend(outcome["spans"])
                runs.append({
                    "workload": workload, "seed": args.seed, "seconds": seconds,
                    "trace": int(trace), "scale": scale,
                    "correct": not outcome["failures"],
                    "attempted": outcome["attempted"], "failed": outcome["failed"],
                    "metrics": metrics, "info": outcome["info"],
                })
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    single = len(runs) == 1
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (name if single else f"{run['workload']}:{name}"): {
                "value": value, "unit": units[name]}
            for run in runs
            for name, value in run["metrics"].items()
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"benchmark": "e2e", "runs": runs}, indent=1))
    if args.trace_out:
        from benchmarks.e2e.spans import write_jsonl

        write_jsonl(args.trace_out, spans)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


if __name__ == "__main__":
    # Script mode: make the benchmark package and the program importable.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # SIGTERM unwinds like Ctrl-C, so every server and job is reaped.
    signal.signal(signal.SIGTERM, _interrupt)
    sys.exit(main())
