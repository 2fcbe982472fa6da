"""Smoke test of the end-to-end benchmark (``PYTHONPATH=src pytest benchmarks/e2e``).

Runs the benchmark twice at ``--smoke`` scale with one seed, both trace
modes, every workload, and checks that it reports everything
``BENCHMARK.json`` names, that every output check passed, and that the
counts the program's work determines repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
DETERMINISTIC = (
    "core.nmt_entries",
    "entities.clusters",
    "blocking.candidates",
    "store.calls",
)


def _smoke(out: Path):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "5", "--out", str(out)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return completed.stdout, json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e-smoke")
    return _smoke(tmp / "first.json"), _smoke(tmp / "second.json")


def test_every_metric_of_every_workload_is_printed_with_its_unit(two_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (stdout, _runs), _ = two_runs
    printed = {tuple(line.split()) for line in stdout.splitlines() if not line.startswith(("#", "{"))}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert any(
                fields[:2] == (workload["name"], metric["name"])
                and fields[-1] == metric["unit"]
                for fields in printed
            ), f"{workload['name']} {metric['name']} not printed with {metric['unit']}"


def test_all_output_checks_pass(two_runs):
    for stdout, runs in two_runs:
        result = json.loads(stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert "CHECK FAILED" not in stdout
        assert all(run["correct"] for run in runs)


def test_deterministic_counts_repeat_exactly(two_runs):
    (_, first), (_, second) = two_runs
    traced = [
        (a, b) for a, b in zip(first, second) if a["trace"] == 1 and b["trace"] == 1
    ]
    assert traced
    for a, b in traced:
        assert a["workload"] == b["workload"]
        for name in DETERMINISTIC:
            assert a["metrics"][name] == b["metrics"][name], (a["workload"], name)
