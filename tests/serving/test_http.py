"""ServingServer over a real socket: routes, codes, keep-alive, metrics."""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.serving import (
    BadRequestError,
    MatchLookupService,
    ServingServer,
    ServingTracer,
    parse_query_key,
)
from repro.federation import IncrementalIdentifier
from repro.ilfd.ilfd import ILFD
from repro.relational.attribute import string_attribute
from repro.relational.schema import Schema
from repro.resilience import CircuitBreaker
from repro.store import SqliteStore


class _RunningServer:
    """Boots the asyncio server in a thread; exposes a blocking client."""

    def __init__(self, service, tracer=None):
        self._server = ServingServer(service, port=0, tracer=tracer)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=10)

    def _run(self):
        asyncio.set_event_loop(self._loop)

        async def boot():
            await self._server.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()

    @property
    def base(self):
        host, port = self._server.address
        return f"http://{host}:{port}"

    def request(self, path, data=None, method=None):
        url = self.base + path
        body = json.dumps(data).encode() if data is not None else None
        req = urllib.request.Request(url, data=body, method=method)
        if body is not None:
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, response.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def close(self):
        async def shutdown():
            await self._server.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


@pytest.fixture()
def running(store_path):
    tracer = ServingTracer()
    service = MatchLookupService(store_path, tracer=tracer)
    server = _RunningServer(service, tracer=tracer)
    yield server
    server.close()
    service.close()


def _first_pair(store_path):
    store = SqliteStore(store_path, read_only=True)
    try:
        pairs = sorted(pair for pair, _rows in store.match_items())
    finally:
        store.close()
    return pairs[0]


class TestRoutes:
    def test_health(self, running):
        status, body = running.request("/health")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["can_ingest"] is True

    def test_resolve_get_roundtrip(self, running, store_path):
        r_key, _ = _first_pair(store_path)
        quoted = urllib.parse.quote(",".join(f"{a}={v}" for a, v in r_key))
        status, body = running.request(f"/resolve?source=r&key={quoted}")
        payload = json.loads(body)
        assert status == 200
        assert payload["found"] is True
        assert payload["matches"]
        assert payload["provenance"]

    def test_resolve_post_json_key(self, running, store_path):
        r_key, _ = _first_pair(store_path)
        status, body = running.request(
            "/resolve", data={"source": "r", "key": dict(r_key)}
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["found"] is True

    def test_resolve_not_found_is_200(self, running):
        quoted = urllib.parse.quote("dept=Nowhere,name=No One")
        status, body = running.request(f"/resolve?source=r&key={quoted}")
        assert status == 200
        assert json.loads(body)["found"] is False

    def test_resolve_missing_params_is_400(self, running):
        status, body = running.request("/resolve?source=r")
        assert status == 400
        assert "error" in json.loads(body)

    def test_resolve_bad_side_is_400(self, running):
        quoted = urllib.parse.quote("a=b")
        status, _ = running.request(f"/resolve?source=z&key={quoted}")
        assert status == 400

    def test_ingest_duplicate_is_400(self, running, store_path):
        store = SqliteStore(store_path, read_only=True)
        try:
            key, raw, _ext = next(iter(store.row_items("r")))
        finally:
            store.close()
        status, body = running.request(
            "/ingest", data={"source": "r", "row": dict(raw)}
        )
        assert status == 400
        assert "duplicate" in json.loads(body)["error"]

    def test_ingest_malformed_body_is_400(self, running):
        status, _ = running.request("/ingest", data={"source": "r"})
        assert status == 400

    def test_stats(self, running):
        status, body = running.request("/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["store"]["matches"] > 0
        assert "cache" in payload

    def test_metrics_prometheus_exposition(self, running):
        running.request("/health")
        status, body = running.request("/metrics")
        assert status == 200
        assert "repro_serving_requests_total" in body
        assert "# HELP" in body

    def test_invalidate(self, running, store_path):
        r_key, _ = _first_pair(store_path)
        quoted = urllib.parse.quote(",".join(f"{a}={v}" for a, v in r_key))
        running.request(f"/resolve?source=r&key={quoted}")
        status, body = running.request("/invalidate", data={})
        assert status == 200
        assert json.loads(body)["invalidated"] >= 1

    def test_unknown_route_is_404(self, running):
        status, _ = running.request("/nope")
        assert status == 404

    def test_method_not_allowed_is_405(self, running):
        status, _ = running.request("/health", data={})
        assert status == 405


class TestProtocol:
    def test_keep_alive_reuses_connection(self, running):
        host, port = running._server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            for _ in range(3):
                sock.sendall(
                    b"GET /health HTTP/1.1\r\n"
                    b"Host: test\r\nConnection: keep-alive\r\n\r\n"
                )
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(4096)
                headers, _, rest = head.partition(b"\r\n\r\n")
                assert b"200 OK" in headers
                length = int(
                    [
                        line.split(b":")[1]
                        for line in headers.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                while len(rest) < length:
                    rest += sock.recv(4096)

    def test_malformed_request_line_gets_400(self, running):
        host, port = running._server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response

    def test_request_metrics_counted(self, running):
        running.request("/health")
        running.request("/nope")
        status, body = running.request("/metrics")
        assert status == 200
        lines = dict(
            line.rsplit(" ", 1)
            for line in body.splitlines()
            if line and not line.startswith("#")
        )
        assert int(lines["repro_serving_requests_total"]) >= 2
        assert int(lines["repro_serving_errors_total"]) >= 1


class TestContradictedIngest:
    """An ingest the ILFD duals contradict is a 409 that changes nothing."""

    THAI = {"name": "TwinCities", "speciality": "Hunan", "cuisine": "Thai"}

    @pytest.fixture()
    def thai_store(self, tmp_path):
        schema = Schema(
            [string_attribute(n) for n in ("name", "speciality", "cuisine")],
            keys=[("name", "speciality")],
        )
        session = IncrementalIdentifier(
            schema,
            schema,
            ["name", "cuisine"],
            ilfds=[ILFD({"speciality": "Hunan"}, {"cuisine": "Chinese"}, name="I1")],
        )
        session.insert_s(self.THAI)
        path = str(tmp_path / "thai.sqlite")
        session.checkpoint(path)
        session.store.close()
        return path

    @staticmethod
    def _snapshot(path):
        store = SqliteStore(path, read_only=True)
        try:
            return (
                dict(store.counts()),
                [entry.seq for entry in store.journal_entries()],
                dict(store.meta_items()),
            )
        finally:
            store.close()

    def test_contradicted_ingest_is_409_and_writes_nothing(self, thai_store):
        before = self._snapshot(thai_store)
        breaker = CircuitBreaker("write", failure_threshold=1)
        service = MatchLookupService(thai_store, write_breaker=breaker)
        server = _RunningServer(service)
        try:
            status, body = server.request(
                "/ingest", data={"source": "r", "row": self.THAI}
            )
            assert status == 409
            assert "I1" in json.loads(body)["error"]
            assert service.version == int(before[2]["version"])
            # The request was at fault, not the store: the breaker
            # stays closed even at a one-failure threshold.
            assert breaker.state == "closed"
            # A tuple with no partner is still admitted.
            status, _ = server.request(
                "/ingest",
                data={
                    "source": "r",
                    "row": dict(self.THAI, speciality="Dimsum", cuisine="Chinese"),
                },
            )
            assert status == 200
        finally:
            server.close()
            service.close()
        counts, journal, meta = self._snapshot(thai_store)
        assert counts["r_rows"] == 1 and counts["matches"] == 0
        assert journal == before[1]
        assert meta["version"] == str(int(before[2]["version"]) + 1)


class TestQueryKeyParsing:
    def test_parse_query_key_sorts_pairs(self):
        assert parse_query_key("b=2,a=1") == (("a", "1"), ("b", "2"))

    def test_parse_query_key_rejects_bad_specs(self):
        with pytest.raises(BadRequestError):
            parse_query_key("no-equals-sign")
        with pytest.raises(BadRequestError):
            parse_query_key("")
