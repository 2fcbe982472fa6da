"""The batch workloads: ``identify-nmt`` and ``entities-build``.

Each job runs in a fresh child process (``python -m benchmarks.e2e.batch``)
with one worker, so its memory peak, import cost and set-up are its own.
The child builds its inputs from the seed, runs the timed job, checks
its outputs after the clock stops, and prints one JSON line for the
parent.  A traced job also returns its spans.

Job shapes:

- ``identify-nmt``: the Section-4 Employee/Performance workload with the
  13 dept→division ILFDs and their Proposition-1 distinctness duals.
  The default exact ``EntityIdentifier`` (no blocker) writes MT and the
  full NMT through a ``SqliteStore``: ``run()`` then ``integrate()``.
  Pair classification for the full NMT is most of the job.
- ``entities-build``: three overlapping sources of one employee
  universe, extended key ``(name, division)``.  Two sources carry only
  ``dept`` and must chase the ILFDs.  Hash blocker, ``IdentityGraph`` →
  ``build_entity_store`` → ``verify_entity_store``.  Chase, blocking,
  pairwise runs, closure, golden records and persist are the job; the
  NMT is empty, so an NMT change should not move this workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.blocking import make_blocker
from repro.blocking.base import Blocker
from repro.core.errors import ConsistencyError
from repro.core.identifier import EntityIdentifier
from repro.core.matching_table import check_consistency, key_values
from repro.entities import IdentityGraph, build_entity_store, verify_entity_store
from repro.rules.engine import MatchStatus
from repro.store import SqliteStore
from repro.workloads import (
    EmployeeWorkloadSpec,
    SideSpec,
    employee_workload,
    split_universe_many,
)

from benchmarks.e2e.spans import (
    Recorder,
    TimedStore,
    instrument,
    maxrss_mb,
    percentile,
    self_times,
    tail_percentile,
)

#: Universe sizes (employees) per scale.
SIZES = {
    "default": {"identify-nmt": 80, "entities-build": 1000},
    "smoke": {"identify-nmt": 30, "entities-build": 200},
}

#: Span names whose self time is reported as a share of the job.
LAYER_SPANS = (
    "ilfd.extend",
    "blocking.block",
    "core.mt",
    "core.nmt",
    "core.run",
    "core.verify",
    "core.integrate",
    "entities.closure",
    "entities.build",
    "entities.verify",
    "entities.verify_store",
    "store.busy",
)

_IDENTIFIER_SPANS = {
    "extended_relations": "ilfd.extend",
    "matching_table": "core.mt",
    "negative_matching_table": "core.nmt",
    "run": "core.run",
    "verify": "core.verify",
    "integrate": "core.integrate",
}

_CLASSIFY_SAMPLE = 200


class TimedBlocker(Blocker):
    """Delegates to a blocker, recording ``block()`` as ``blocking.block``."""

    def __init__(self, inner: Blocker, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name
        self.candidates = 0

    def candidate_pairs(self, r_rows, s_rows, context):
        return self._inner.candidate_pairs(r_rows, s_rows, context)

    def block(self, r_rows, s_rows, context, *, tracer=None):
        with self._recorder.span("blocking.block"):
            candidates = self._inner.block(r_rows, s_rows, context, tracer=tracer)
            self.candidates += candidates.count
        return candidates


def _employees(seed: int, size: int):
    return employee_workload(
        EmployeeWorkloadSpec(n_entities=size, name_pool=max(20, size // 2), seed=seed)
    )


def _fingerprint(*pair_sets) -> str:
    material = json.dumps([sorted(pairs) for pairs in pair_sets])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _open_store(path: str, recorder: Optional[Recorder]):
    start = perf_counter()
    store = SqliteStore(path)
    if recorder is None:
        return store
    recorder.leaf("store.busy", start, perf_counter())
    return TimedStore(store, recorder)


# ----------------------------------------------------------------------
# identify-nmt
# ----------------------------------------------------------------------
def _identify_inputs(seed: int, size: int) -> Dict[str, Any]:
    workload = _employees(seed, size)
    return {"workload": workload, "rows": len(workload.r) + len(workload.s)}


def _identify_job(inputs, path: str, recorder: Optional[Recorder]) -> Dict[str, Any]:
    workload = inputs["workload"]
    store = _open_store(path, recorder)
    identifier = EntityIdentifier(
        workload.r,
        workload.s,
        workload.extended_key,
        ilfds=workload.ilfds,
        store=store,
    )
    if recorder is not None:
        instrument(identifier, _IDENTIFIER_SPANS, recorder)
    result = identifier.run()
    integrated = identifier.integrate()
    store.close()
    return {
        "identifier": identifier,
        "result": result,
        "integrated": integrated,
        "store": store,
    }


def _identify_check(inputs, outputs, seed: int) -> Dict[str, Any]:
    workload = inputs["workload"]
    identifier = outputs["identifier"]
    result = outputs["result"]
    matches = result.matching.pairs()
    non_matches = result.negative.pairs()
    failures: List[str] = []
    if matches != set(workload.truth):
        failures.append(
            f"MT has {len(matches)} pairs, ground truth {len(workload.truth)}"
        )
    if not result.report.is_sound:
        failures.append("soundness report is not sound")
    try:
        check_consistency(result.matching, result.negative)
    except ConsistencyError as exc:
        failures.append(f"check_consistency: {exc}")
    expected_rows = len(workload.r) + len(workload.s) - len(matches)
    if len(outputs["integrated"]) != expected_rows:
        failures.append(
            f"T_RS has {len(outputs['integrated'])} rows, expected {expected_rows}"
        )
    rng = random.Random(seed)
    r_rows, s_rows = list(workload.r), list(workload.s)
    for _ in range(_CLASSIFY_SAMPLE):
        r_row, s_row = rng.choice(r_rows), rng.choice(s_rows)
        pair = (
            key_values(r_row, identifier.r_key_attributes),
            key_values(s_row, identifier.s_key_attributes),
        )
        expected = (
            MatchStatus.MATCH
            if pair in matches
            else MatchStatus.NON_MATCH
            if pair in non_matches
            else MatchStatus.UNKNOWN
        )
        status = identifier.classify_pair(r_row, s_row)
        if status is not expected:
            failures.append(f"classify_pair{pair!r} = {status}, tables say {expected}")
            break
    counts = {
        "ilfd.rows_extended": len(result.extended_r) + len(result.extended_s),
        "core.mt_entries": len(matches),
        "core.nmt_pairs": result.pair_count,
        "core.nmt_entries": len(non_matches),
    }
    return {
        "failures": failures,
        "fingerprint": _fingerprint(matches, non_matches),
        "counts": counts,
    }


# ----------------------------------------------------------------------
# entities-build
# ----------------------------------------------------------------------
def _entities_inputs(seed: int, size: int) -> Dict[str, Any]:
    workload = _employees(seed, size)
    sides = [
        SideSpec("hr", ("name", "dept", "title"), ("name", "dept"), 0.8),
        SideSpec("payroll", ("name", "dept", "rating"), ("name", "dept"), 0.8),
        SideSpec("review", ("name", "division", "rating"), ("name", "division"), 0.8),
    ]
    relations, _ = split_universe_many(workload.universe, sides, seed=seed)
    placed = [
        {tuple(row[attr] for attr in side.key) for row in relations[side.name]}
        for side in sides
    ]
    in_two_or_more = sum(
        1
        for entity in workload.universe
        if sum(
            tuple(entity[attr] for attr in side.key) in keys
            for side, keys in zip(sides, placed)
        )
        >= 2
    )
    return {
        "relations": relations,
        "ilfds": workload.ilfds,
        "expected_clusters": in_two_or_more,
        "rows": sum(len(relation) for relation in relations.values()),
    }


def _entities_job(inputs, path: str, recorder: Optional[Recorder]) -> Dict[str, Any]:
    blockers: List[TimedBlocker] = []

    def blocker_factory():
        if recorder is None:
            return make_blocker("hash")
        blocker = TimedBlocker(make_blocker("hash"), recorder)
        blockers.append(blocker)
        return blocker

    store = _open_store(path, recorder)
    graph = IdentityGraph(
        inputs["relations"],
        ("name", "division"),
        ilfds=inputs["ilfds"],
        blocker_factory=blocker_factory,
    )
    if recorder is None:
        report = build_entity_store(graph, store)
        verified = verify_entity_store(store)
    else:
        instrument(
            graph,
            {
                "extended": "ilfd.extend",
                "clusters": "entities.closure",
                "verify": "entities.verify",
            },
            recorder,
        )
        pair_identifier = graph.pair_identifier
        instrumented = set()

        def traced_pair_identifier(first, second):
            identifier = pair_identifier(first, second)
            if id(identifier) not in instrumented:
                instrumented.add(id(identifier))
                instrument(identifier, _IDENTIFIER_SPANS, recorder)
            return identifier

        graph.pair_identifier = traced_pair_identifier
        with recorder.span("entities.build"):
            report = build_entity_store(graph, store)
        with recorder.span("entities.verify_store"):
            verified = verify_entity_store(store)
    store.close()
    return {
        "graph": graph,
        "report": report,
        "verified": verified,
        "blockers": blockers,
        "store": store,
    }


def _entities_check(inputs, outputs, seed: int) -> Dict[str, Any]:
    graph, report = outputs["graph"], outputs["report"]
    clusters = graph.clusters()
    failures: List[str] = []
    if len(clusters) != inputs["expected_clusters"]:
        failures.append(
            f"{len(clusters)} clusters, but {inputs['expected_clusters']} "
            "universe entities sit in two or more sources"
        )
    if outputs["verified"] != (report.entities, report.fingerprint):
        failures.append(
            f"verify_entity_store returned {outputs['verified']!r}, the build "
            f"sealed {(report.entities, report.fingerprint)!r}"
        )
    if not report.is_sound:
        failures.append("entity build reports uniqueness violations")
    rows_extended = sum(len(relation) for relation in graph.extended().values())
    mt_entries = nmt_entries = 0
    for first, second in graph.pair_names():
        result = graph.pair_result(first, second)
        rows_extended += len(result.extended_r) + len(result.extended_s)
        mt_entries += len(result.matching)
        nmt_entries += len(result.negative)
    candidates = sum(blocker.candidates for blocker in outputs["blockers"])
    counts = {
        "ilfd.rows_extended": rows_extended,
        "core.mt_entries": mt_entries,
        # The blocked evaluation classifies each candidate pair once.
        "core.nmt_pairs": candidates,
        "core.nmt_entries": nmt_entries,
        "blocking.candidates": candidates,
        "entities.pairwise_runs": len(graph.pair_names()),
        "entities.clusters": len(clusters),
    }
    return {"failures": failures, "fingerprint": report.fingerprint, "counts": counts}


_WORKLOADS = {
    "identify-nmt": (_identify_inputs, _identify_job, _identify_check),
    "entities-build": (_entities_inputs, _entities_job, _entities_check),
}


def child_main(argv: List[str]) -> int:
    """One job: ``WORKLOAD SEED SCALE TRACED WORKDIR LAUNCH_MONOTONIC``."""
    workload, seed, scale, traced, workdir, launch = argv
    seed, traced, launch = int(seed), traced == "1", float(launch)
    make_inputs, job, check = _WORKLOADS[workload]
    inputs = make_inputs(seed, SIZES[scale][workload])
    setup_s = time.monotonic() - launch
    path = os.path.join(workdir, f"job-{os.getpid()}.sqlite")
    recorder = Recorder(f"{workload}-{os.getpid()}") if traced else None
    start = perf_counter()
    if recorder is None:
        outputs = job(inputs, path, None)
    else:
        with recorder.span("job"):
            outputs = job(inputs, path, recorder)
    job_s = perf_counter() - start
    peak_rss_mb = maxrss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # Exported before the checks, whose calls must not add spans.
    spans = recorder.export() if recorder is not None else []
    store_bytes = os.path.getsize(path)
    os.remove(path)
    checked = check(inputs, outputs, seed)
    line = {
        "setup_s": setup_s,
        "job_s": job_s,
        "rows": inputs["rows"],
        "peak_rss_mb": peak_rss_mb,
        "store_bytes": store_bytes,
        "fingerprint": checked["fingerprint"],
        "failures": checked["failures"],
    }
    if recorder is not None:
        store = outputs["store"]
        line["counts"] = dict(
            checked["counts"], **{"store.calls": store.calls, "store.commits": store.commits}
        )
        line["spans"] = spans
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _run_child(
    root: Path, workload: str, seed: int, scale: str, traced: bool, workdir: str
) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
    launch = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "benchmarks.e2e.batch",
            workload,
            str(seed),
            scale,
            "1" if traced else "0",
            workdir,
            repr(launch),
        ],
        cwd=str(root),
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-3:]
        return {"error": f"job exited {completed.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def run_batch(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    workdir: str,
) -> Dict[str, Any]:
    """Jobs back to back for *seconds*; metrics are medians over jobs.

    A traced run alternates untraced and traced jobs, so the traced
    jobs give the per-layer shares and the pairs give the tracing
    overhead.
    """
    min_jobs = 4 if trace else 3
    jobs: List[Dict[str, Any]] = []
    cpu_start, wall_start = time.process_time(), time.monotonic()
    while len(jobs) < min_jobs or time.monotonic() - wall_start < seconds:
        traced = trace and len(jobs) % 2 == 1
        job = _run_child(root, workload, seed, scale, traced, workdir)
        job["traced"] = traced
        jobs.append(job)
    client_cpu = (time.process_time() - cpu_start) / (time.monotonic() - wall_start)

    done = [job for job in jobs if "error" not in job]
    failures = [job["error"] for job in jobs if "error" in job]
    for job in done:
        failures.extend(job["failures"])
    fingerprints = {job["fingerprint"] for job in done}
    if len(fingerprints) > 1:
        failures.append(
            f"{len(fingerprints)} different output fingerprints across repeats"
        )
    traced_jobs = [job for job in done if job["traced"]]
    untraced = [job for job in done if not job["traced"]]
    if not untraced or (trace and not traced_jobs):
        failures.append("no job of each kind completed")
        return {"attempted": len(jobs), "failed": len(jobs) - len(done),
                "failures": failures, "metrics": {}, "info": {}, "spans": []}
    job_s = [job["job_s"] for job in untraced]
    tail = tail_percentile(len(job_s))
    info: Dict[str, Any] = {
        "jobs": len(jobs),
        "rows_per_job": done[0]["rows"],
        "job_s": [round(value, 4) for value in job_s],
        "tail_percentile": tail,
        "client_cpu_frac": client_cpu,
    }
    spans: List[Dict[str, Any]] = []
    if not trace:
        metrics = {
            "setup_s": statistics.median([job["setup_s"] for job in done]),
            "latency_p50_ms": percentile(job_s, 50) * 1000.0,
            "latency_tail_ms": percentile(job_s, tail) * 1000.0,
            "throughput": done[0]["rows"] / percentile(job_s, 50),
            "peak_rss_mb": statistics.median([job["peak_rss_mb"] for job in done]),
            "store_bytes_per_row": statistics.median(
                [job["store_bytes"] / job["rows"] for job in done]
            ),
        }
    else:
        shares: Dict[str, List[float]] = {name: [] for name in LAYER_SPANS}
        coverage: List[float] = []
        for job in traced_jobs:
            spans.extend(job["spans"])
            selfs = self_times(job["spans"])
            wall = next(s["duration"] for s in job["spans"] if s["name"] == "job")
            for name in LAYER_SPANS:
                shares[name].append(selfs.get(name, 0.0) / wall)
            coverage.append(1.0 - selfs["job"] / wall)
        counts = traced_jobs[0]["counts"]
        metrics = {
            f"{name}_share": statistics.median(values) for name, values in shares.items()
        }
        metrics.update(counts)
        metrics["core.nmt_yield"] = _ratio(counts["core.nmt_entries"], counts["core.nmt_pairs"])
        metrics["blocking.match_yield"] = _ratio(
            counts["core.mt_entries"], counts.get("blocking.candidates", 0)
        )
        traced_s = statistics.median([job["job_s"] for job in traced_jobs])
        metrics["bench.trace_overhead"] = traced_s / statistics.median(job_s) - 1.0
        metrics["bench.trace_coverage"] = statistics.median(coverage)
        info["traced_job_s"] = [round(job["job_s"], 4) for job in traced_jobs]
    metrics["bench.client_cpu_frac"] = client_cpu
    return {
        "attempted": len(jobs),
        "failed": len(jobs) - len(done),
        "failures": failures,
        "metrics": metrics,
        "info": info,
        "spans": spans,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
