"""The serving workloads: ``serve-read`` and ``serve-mixed``.

Both run a real ``repro serve`` subprocess with its CLI defaults (two
replica workers, LRU of 1024 entries, admission queue of 64) over an
``IncrementalIdentifier`` checkpoint of an employee workload, and drive
it from this one process over at most two keep-alive connections, one
thread each (the host has two CPUs; the server needs one of them).

- ``serve-read``: both connections run a closed loop of ``GET /resolve``
  with Zipf(1.1) keys over every loaded R and S tuple, so the hot set
  mostly fits the LRU and the cache tier plus the HTTP and thread-hop
  path dominate.  Gated operation: the read.
- ``serve-mixed``: one connection runs a closed loop of uniform-key
  resolves (most miss the LRU and read a replica); the other runs an
  open loop of ``POST /ingest`` of held-out R rows at a fixed rate,
  each timed from its due time.  Gated operation: the write; the read
  loop's throughput gates the miss path.

Set-up (workload, store build and checkpoint, server start to its
readiness line) is repeated and its median reported.  A traced run also
reads ``GET /stats`` after the window and replays the window's requests
in-process against a pristine copy of the store, timing
``MatchLookupService.resolve``/``ingest``, the JSON encoding, and the
read-only replica primitives, so each layer's share of the HTTP request
time can be stated.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from repro.core.matching_table import key_values
from repro.federation import IncrementalIdentifier
from repro.serving import MatchLookupService
from repro.store import SqliteStore
from repro.workloads import EmployeeWorkloadSpec, employee_workload

from benchmarks.e2e.spans import (
    Recorder,
    maxrss_mb,
    percentile,
    self_times,
    tail_percentile,
)

#: Universe size (employees), set-up repeats, per scale.
SIZES = {"default": 5000, "smoke": 300}
SETUP_REPEATS = {"default": 3, "smoke": 1}
WRITE_RATE = 25.0  # ingests per second in serve-mixed
ZIPF_EXPONENT = 1.1
SAMPLE_EVERY = 16  # every 16th resolve body is checked against the truth

_READY = re.compile(r"listening on http://([^:]+):(\d+)")


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------
def _inputs(seed: int, size: int, held_out: int) -> Dict[str, Any]:
    workload = employee_workload(
        EmployeeWorkloadSpec(n_entities=size, name_pool=max(20, size // 2), seed=seed)
    )
    r_rows = [dict(row) for row in workload.r]
    s_rows = [dict(row) for row in workload.s]
    rng = random.Random(seed)
    held = rng.sample(range(len(r_rows)), min(held_out, len(r_rows) // 2))
    held_set = set(held)
    return {
        "workload": workload,
        "loaded_r": [row for i, row in enumerate(r_rows) if i not in held_set],
        "s_rows": s_rows,
        "ingest": [r_rows[i] for i in held],
    }


def _build_store(inputs: Dict[str, Any], path: str) -> None:
    workload = inputs["workload"]
    session = IncrementalIdentifier(
        workload.r.schema,
        workload.s.schema,
        list(workload.extended_key),
        ilfds=list(workload.ilfds),
    )
    for row in inputs["loaded_r"]:
        session.insert_r(row)
    for row in inputs["s_rows"]:
        session.insert_s(row)
    session.checkpoint(path)
    session.store.close()


def _store_bytes(path: str) -> int:
    return sum(
        os.path.getsize(candidate)
        for candidate in (path, path + "-wal")
        if os.path.exists(candidate)
    )


class Server:
    """A ``repro serve`` child process, always reaped by :meth:`stop`."""

    def __init__(self, root: Path, store: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "w", encoding="utf-8")
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--store",
                 f"sqlite:{store}", "--port", "0"],
                cwd=str(root),
                env=env,
                stdout=subprocess.PIPE,
                stderr=self._log,
                text=True,
            )
        except BaseException:
            self._log.close()
            raise
        self.address: Optional[Tuple[str, int]] = None
        self.peak_rss_mb = 0.0

    def wait_ready(self, timeout: float = 60.0) -> Tuple[str, int]:
        # readline() blocks; the timer unblocks it by killing a stuck server.
        timer = threading.Timer(timeout, self._proc.kill)
        timer.start()
        try:
            for line in self._proc.stdout:
                match = _READY.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    return self.address
        finally:
            timer.cancel()
        raise RuntimeError("repro serve exited before its readiness line")

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (graceful drain), SIGKILL after *timeout*, then reap."""
        proc = self._proc
        if proc.returncode is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + timeout
            reaped = None
            while reaped is None and time.monotonic() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    reaped = (status, usage)
                else:
                    time.sleep(0.02)
            if reaped is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = (status, usage)
            status, usage = reaped
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = maxrss_mb(usage.ru_maxrss)
        proc.stdout.close()
        self._log.close()


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._address = address
        self._conn: Optional[HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = HTTPConnection(*self._address, timeout=30)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def _read_loop(client: _Client, paths: List[str], stream: List[int],
               stop_at: float, records: List[tuple]) -> None:
    """Closed loop: the next resolve goes out when the previous returns."""
    index = 0
    while perf_counter() < stop_at:
        key = stream[index % len(stream)]
        start = perf_counter()
        status, body = client.call("GET", paths[key])
        records.append(
            (start, perf_counter() - start, key, status,
             body if index % SAMPLE_EVERY == 0 else None)
        )
        index += 1


def _write_loop(client: _Client, bodies: List[bytes], start: float,
                stop_at: float, records: List[tuple]) -> None:
    """Open loop at WRITE_RATE; each ingest is timed from its due time."""
    for index, body in enumerate(bodies):
        due = start + index / WRITE_RATE
        if due >= stop_at:
            break
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = perf_counter()
        status, response = client.call("POST", "/ingest", body)
        done = perf_counter()
        records.append((due, sent, done, index, status, response))


def _key_text(key) -> str:
    return ",".join(f"{attr}={value}" for attr, value in key)


def _pairs(matches) -> set:
    return {
        (tuple(map(tuple, match["r_key"])), tuple(map(tuple, match["s_key"])))
        for match in matches
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_serve(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    workdir: str,
) -> Dict[str, Any]:
    mixed = workload == "serve-mixed"
    held_out = int(WRITE_RATE * seconds) + 25
    setups: List[float] = []
    server: Optional[Server] = None
    path = ""
    replay_path = os.path.join(workdir, "replay.sqlite")
    try:
        for repeat in range(SETUP_REPEATS[scale]):
            if server is not None:
                server.stop()
                os.remove(path)
            path = os.path.join(workdir, f"serve-{repeat}.sqlite")
            start = perf_counter()
            inputs = _inputs(seed, SIZES[scale], held_out)
            _build_store(inputs, path)
            server = Server(root, path, os.path.join(workdir, f"serve-{repeat}.log"))
            server.wait_ready()
            setups.append(perf_counter() - start)
        if trace:
            shutil.copyfile(path, replay_path)
        keys, paths, streams, bodies = _traffic(inputs, seed, seconds, mixed)
        reads, writes, wall, client_cpu = _window(
            server.address, paths, streams, bodies, seconds
        )
        failures, ingested, stats = _check(server.address, inputs, keys, reads, writes)
    finally:
        if server is not None:
            server.stop()

    not_ok = sum(1 for r in reads if r[3] != 200) + sum(1 for w in writes if w[4] != 200)
    if not_ok:
        failures.append(f"{not_ok} responses were not 200")
    read_ms = [r[1] * 1000.0 for r in reads if r[3] != 0]
    write_ms = [(w[2] - w[0]) * 1000.0 for w in writes]
    lag_ms = [(w[1] - w[0]) * 1000.0 for w in writes]
    gated = write_ms if mixed else read_ms
    tail = tail_percentile(len(gated))
    cache = stats.get("cache", {})
    info: Dict[str, Any] = {
        "reads": len(read_ms),
        "read_p50_ms": percentile(read_ms, 50) if read_ms else None,
        "read_p99_ms": percentile(read_ms, 99) if read_ms else None,
        "read_p99.9_ms": percentile(read_ms, 99.9) if read_ms else None,
        "writes": len(write_ms),
        "write_p50_ms": percentile(write_ms, 50) if write_ms else None,
        "write_p99_ms": percentile(write_ms, 99) if write_ms else None,
        "write_lag_p99_ms": percentile(lag_ms, 99) if lag_ms else 0.0,
        "tail_percentile": tail,
        "client_cpu_frac": client_cpu,
        "cache": cache,
        "setup_s": [round(value, 4) for value in setups],
        "peak_rss_mb": server.peak_rss_mb,
    }
    outcome = {
        "attempted": len(reads) + len(writes),
        "failed": not_ok,
        "failures": failures,
        "info": info,
        "spans": [],
    }
    if not trace:
        rows = len(inputs["loaded_r"]) + len(inputs["s_rows"]) + len(ingested)
        outcome["metrics"] = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": percentile(gated, 50) if gated else 0.0,
            "latency_tail_ms": percentile(gated, tail) if gated else 0.0,
            "throughput": sum(1 for r in reads if r[3] == 200) / wall,
            "peak_rss_mb": server.peak_rss_mb,
            "store_bytes_per_row": _store_bytes(path) / rows,
        }
        return outcome
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    admission = stats.get("admission", {})
    outcome["metrics"] = {
        "serving.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serving.cache_evictions": cache.get("evictions", 0),
        "serving.cache_invalidations": cache.get("invalidations", 0),
        "serving.cache_rejected_puts": cache.get("rejected_puts", 0),
        "serving.shed": admission.get("shed_429", 0) + admission.get("shed_503", 0),
        "bench.client_cpu_frac": client_cpu,
    }
    ops = sorted(
        [(r[0], "read", r[1], keys[r[2]]) for r in reads]
        + [(w[1], "write", w[2] - w[1], inputs["ingest"][w[3]]) for w in writes]
    )
    outcome["metrics"].update(_layer_shares(replay_path, ops, outcome, seconds))
    return outcome


def _traffic(inputs, seed: int, seconds: float, mixed: bool):
    """Keys (shuffled by the seed), request paths, key streams, ingest bodies."""
    workload = inputs["workload"]
    r_attrs = sorted(workload.r.schema.primary_key)
    s_attrs = sorted(workload.s.schema.primary_key)
    keys = sorted(
        [("r", key_values(row, r_attrs)) for row in inputs["loaded_r"]]
        + [("s", key_values(row, s_attrs)) for row in inputs["s_rows"]]
    )
    rng = random.Random(seed)
    rng.shuffle(keys)  # the seed picks which keys are hot
    paths = [
        f"/resolve?source={side}&key={quote(_key_text(key))}" for side, key in keys
    ]
    budget = int(3000 * seconds) + 1000  # more than one loop can send
    if mixed:
        streams = [[rng.randrange(len(keys)) for _ in range(budget)]]
    else:
        weights, total = [], 0.0
        for rank in range(len(keys)):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            weights.append(total)
        streams = [
            rng.choices(range(len(keys)), cum_weights=weights, k=budget)
            for _ in range(2)
        ]
    bodies = [
        json.dumps({"source": "r", "row": row}).encode("utf-8")
        for row in inputs["ingest"]
    ] if mixed else []
    return keys, paths, streams, bodies


def _window(address, paths, streams, bodies, seconds: float):
    """One read loop per stream, plus the write loop when there are bodies."""
    clients = [_Client(address) for _ in range(2)]
    read_records: List[List[tuple]] = [[] for _ in streams]
    writes: List[tuple] = []
    cpu_start, wall_start = time.process_time(), perf_counter()
    stop_at = wall_start + seconds
    threads = [
        threading.Thread(
            target=_read_loop,
            args=(clients[i], paths, stream, stop_at, read_records[i]),
        )
        for i, stream in enumerate(streams)
    ]
    if bodies:
        threads.append(
            threading.Thread(
                target=_write_loop,
                args=(clients[1], bodies, wall_start, stop_at, writes),
            )
        )
    # A short GIL switch interval keeps one client thread's parsing from
    # delaying the other's send by up to the default 5 ms.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(switch)
        for client in clients:
            client.close()
    wall = perf_counter() - wall_start
    client_cpu = (time.process_time() - cpu_start) / wall
    reads = [record for records in read_records for record in records]
    return reads, writes, wall, client_cpu


def _check(address, inputs, keys, reads, writes):
    """Sampled resolve bodies, ingest results and post-window resolves
    against the ground truth; returns (failures, ingested keys, /stats)."""
    workload = inputs["workload"]
    r_attrs = sorted(workload.r.schema.primary_key)
    r_partner = {r_key: s_key for r_key, s_key in workload.truth}
    s_partner = {s_key: r_key for r_key, s_key in workload.truth}
    loaded_r = {key_values(row, r_attrs) for row in inputs["loaded_r"]}
    ingested = {
        key_values(inputs["ingest"][w[3]], r_attrs) for w in writes if w[4] == 200
    }

    def expected(side, key, present):
        if side == "r":
            partner = r_partner.get(key)
            return {(key, partner)} if partner is not None else set()
        partner = s_partner.get(key)
        return {(partner, key)} if partner in present else set()

    failures: List[str] = []
    mismatches = 0
    for _start, _latency, key_index, status, body in reads:
        if body is None or status != 200:
            continue
        side, key = keys[key_index]
        result = json.loads(body)
        got = _pairs(result.get("matches", ())) if result.get("found") else None
        # An S tuple may gain its partner mid-window when serve-mixed
        # ingests the held-out R row.
        if got is None or not (
            expected(side, key, loaded_r) <= got <= expected(side, key, loaded_r | ingested)
        ):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} sampled resolve bodies disagree with the truth")
    for _due, _sent, _done, index, status, body in writes:
        key = key_values(inputs["ingest"][index], r_attrs)
        if status == 200 and _pairs(json.loads(body)["matches_added"]) != expected("r", key, ()):
            failures.append(f"ingest of {key!r} reported the wrong matches")
            break
    checker = _Client(address)
    try:
        for key in sorted(ingested):
            status, body = checker.call(
                "GET", f"/resolve?source=r&key={quote(_key_text(key))}"
            )
            if status != 200 or _pairs(json.loads(body)["matches"]) != expected("r", key, ()):
                failures.append(f"ingested key {key!r} does not resolve to its match")
                break
        status, body = checker.call("GET", "/stats")
    finally:
        checker.close()
    return failures, ingested, json.loads(body) if status == 200 else {}


def _replica_read(store, side: str, key) -> None:
    """The primitive reads one resolve miss makes on a replica."""
    row = store.get_row(side, key)
    if row is None:
        return
    text = store.extended_key_text(row[1])
    if text is not None:
        for member_side in store.sides():
            store.rows_by_extended_key(member_side, text)
        store.entity_by_ext_key(text)
    for (r_key, s_key), _rows in store.matches_for_key(side, key):
        store.journal_entries(r_key=r_key, s_key=s_key)


def _layer_shares(path: str, ops, outcome, seconds: float) -> Dict[str, float]:
    """Replay the window's requests in-process; each layer's share of the
    HTTP time of the same requests.

    *ops* are ``(start, "read", http_s, (side, key))`` and ``(start,
    "write", http_s, row)`` in the order they were sent; the replay stops
    at its time budget.
    """
    recorder = Recorder("serve-replay")
    http_s = 0.0
    replayed = 0
    miss_keys = []
    stop_at = perf_counter() + max(0.5, seconds / 4.0)
    with MatchLookupService(path, workers=2, cache_size=1024, deadline=0.25) as service:
        for _start, kind, latency, item in ops:
            if perf_counter() >= stop_at:
                break
            replayed += 1
            http_s += latency
            with recorder.span("request"):
                if kind == "read":
                    side, key = item
                    start = perf_counter()
                    result = service.resolve(side, key)
                    hit = result.get("cache") == "hit"
                    recorder.leaf("serving.cache" if hit else "serving.lookup",
                                  start, perf_counter())
                    if not hit:
                        miss_keys.append((side, key))
                else:
                    start = perf_counter()
                    result = service.ingest("r", item)
                    recorder.leaf("serving.ingest", start, perf_counter())
                start = perf_counter()
                json.dumps(result)
                recorder.leaf("serving.encode", start, perf_counter())
    selfs = self_times(recorder.spans)
    replica_s = 0.0
    if miss_keys:
        timed = 0
        stop_at = perf_counter() + max(0.25, seconds / 8.0)
        store = SqliteStore(path, read_only=True)
        try:
            for side, key in miss_keys:
                if perf_counter() >= stop_at:
                    break
                start = perf_counter()
                _replica_read(store, side, key)
                replica_s += perf_counter() - start
                timed += 1
        finally:
            store.close()
        replica_s *= len(miss_keys) / timed  # the untimed misses at the same mean
    shares = {
        "serving.cache": selfs.get("serving.cache", 0.0),
        "serving.lookup": selfs.get("serving.lookup", 0.0) - replica_s,
        "store.replica_read": replica_s,
        "serving.ingest": selfs.get("serving.ingest", 0.0),
        "serving.encode": selfs.get("serving.encode", 0.0),
    }
    shares = {name: value / http_s for name, value in shares.items()}
    shares["serving.transport"] = 1.0 - sum(shares.values())
    metrics = {f"{name}_share": value for name, value in shares.items()}
    outcome["spans"] = recorder.export()
    outcome["info"]["replayed_requests"] = replayed
    # Tracing runs after the window, so the window itself carries none.
    metrics["bench.trace_overhead"] = 0.0
    metrics["bench.trace_coverage"] = 1.0
    return metrics
