"""A stdlib-only asyncio JSON-over-HTTP front end for the service.

No framework, no dependencies: :func:`asyncio.start_server` plus a
minimal HTTP/1.1 parser (request line, headers, ``Content-Length``
bodies, keep-alive).  The event loop only ever parses and serialises;
every store touch happens off-loop — reads on the
:class:`~repro.serving.replica.ReplicaPool` workers, writes on the
service's single writer thread — via ``run_in_executor`` semantics
wrapped by the service, so one slow lookup never stalls the accept
loop.

Routes (see ``docs/SERVING.md`` for the contract):

====== ============= ====================================================
method path          meaning
====== ============= ====================================================
GET    /health       liveness + store identity
GET    /resolve      point lookup; ``?source=r&key=attr=value,...``
POST   /resolve      same, JSON body ``{"source": ..., "key": {...}}``
POST   /ingest       search-before-insert ``{"source": ..., "row": {...}}``;
                     409 when the ILFD duals contradict a new match
POST   /invalidate   drop the resolve cache
GET    /stats        cache/store/metrics snapshot (JSON)
GET    /metrics      Prometheus text exposition
====== ============= ====================================================

Every request is wrapped in a ``serving.request`` tracer span and
counted under ``serving.requests`` / ``serving.errors`` with its wall
time observed in ``serving.request_ms`` — the numbers ``repro stats``
and the ``/metrics`` exposition render.

**Overload** is handled *before* work is queued: when an
:class:`~repro.resilience.AdmissionController` is attached, each
request is classified (``/resolve``/``/stats`` → ``read``,
``/ingest``/``/invalidate`` → ``write``; ``/health`` and ``/metrics``
are exempt so probes keep working under load) and admitted — or shed
right here with a structured 429 (rate limit) / 503 (queue full) body
and a ``Retry-After`` header, never touching the service.  That is
what keeps the admitted requests' p99 bounded at 2× capacity
(``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.errors import ConsistencyError
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.errors import CircuitOpenError, OverloadShedError
from repro.resilience.overload import AdmissionController
from repro.serving.errors import (
    BadRequestError,
    ServiceUnavailableError,
    ServingError,
)
from repro.serving.service import MatchLookupService, decode_key_json
from repro.store.codec import KeyValues
from repro.telemetry.prometheus import metrics_to_prometheus

__all__ = ["ServingServer", "parse_query_key"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Admission endpoint classes; paths absent here bypass the controller.
_ENDPOINT_CLASS = {
    "/resolve": "read",
    "/stats": "read",
    "/ingest": "write",
    "/invalidate": "write",
}


def _retry_after_header(seconds: "float | None") -> Dict[str, str]:
    """A ``Retry-After`` header for *seconds* (integral, minimum 1)."""
    if seconds is None:
        return {}
    return {"Retry-After": str(max(1, int(-(-float(seconds) // 1))))}


def parse_query_key(text: str) -> KeyValues:
    """``attr=value,attr=value`` (percent-decoded) as canonical KeyValues."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise BadRequestError(
                f"key spec {text!r}: {part!r} is not of the form attr=value"
            )
        attr, _, value = part.partition("=")
        pairs.append((attr.strip(), value.strip()))
    if not pairs:
        raise BadRequestError(f"key spec {text!r} names no attributes")
    return tuple(sorted(pairs))


class _HttpError(Exception):
    """Internal: carries a status + JSON error body to the writer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServingServer:
    """Asyncio HTTP server speaking JSON around a :class:`MatchLookupService`."""

    def __init__(
        self,
        service: MatchLookupService,
        *,
        host: str = "127.0.0.1",
        port: int = 8571,
        tracer: Optional[Tracer] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._admission = admission
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The attached admission controller, if any (``/stats`` reads it)."""
        return self._admission

    @property
    def inflight(self) -> int:
        """Requests currently being dispatched (the drain's wait target)."""
        return self._inflight

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — port resolved after :meth:`start`."""
        if self._server is not None and self._server.sockets:
            bound = self._server.sockets[0].getsockname()
            return bound[0], bound[1]
        return self._host, self._port

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._idle = asyncio.Event()
            self._idle.set()
            self._draining = False
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )

    async def stop(
        self, *, drain: bool = True, drain_timeout: float = 10.0
    ) -> None:
        """Stop accepting; optionally drain in-flight requests first.

        The graceful path (SIGINT *and* SIGTERM take it, see
        ``repro serve``): close the listening sockets so no new request
        arrives, mark the server draining so keep-alive loops end after
        their current response, then wait up to *drain_timeout* seconds
        for every in-flight request to finish.  Requests still running
        at the timeout are abandoned to the connection close.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain and self._idle is not None and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - slow request
                if self._tracer.enabled:
                    self._tracer.metrics.inc("serving.drain_timeouts")

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI cancels on SIGINT/SIGTERM)."""
        await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # One connection: keep-alive loop over single requests
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    and not self._draining
                )
                status, payload, content_type, extra = await self._dispatch(
                    method, path, query, body
                )
                await self._write_response(
                    writer, status, payload, content_type, keep_alive, extra
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        except _HttpError as exc:
            # Unparseable request framing: answer once, then hang up.
            try:
                await self._write_response(
                    writer,
                    exc.status,
                    json.dumps({"error": str(exc)}),
                    "application/json",
                    False,
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Dict[str, str], bytes]]:
        """One parsed request, or None on clean EOF between requests."""
        try:
            line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError):
            return None
        if not line:
            return None
        if len(line) > _MAX_HEADER_BYTES:
            raise _HttpError(400, "request line too long")
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {line!r}") from None
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _HttpError(400, "headers too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        parsed = urllib.parse.urlsplit(target)
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(
                parsed.query, keep_blank_values=True
            ).items()
        }
        return method.upper(), parsed.path, query, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str,
        content_type: str,
        keep_alive: bool,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = payload.encode("utf-8")
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: bytes,
    ) -> Tuple[int, str, str, Dict[str, str]]:
        started = time.perf_counter()
        status = 500
        content_type = "application/json"
        extra: Dict[str, str] = {}
        # Admission first: a shed request is refused here, before any
        # work is queued on the service — that is the whole point.
        ticket = None
        endpoint_class = _ENDPOINT_CLASS.get(path)
        if self._admission is not None and endpoint_class is not None:
            try:
                ticket = self._admission.admit(endpoint_class)
            except OverloadShedError as exc:
                payload = json.dumps(
                    {
                        "error": str(exc),
                        "shed": True,
                        "endpoint_class": endpoint_class,
                        "retry_after_s": exc.retry_after,
                    }
                )
                if self._tracer.enabled:
                    self._tracer.metrics.inc("serving.requests")
                    self._tracer.metrics.inc("serving.errors")
                return (
                    exc.status,
                    payload,
                    content_type,
                    _retry_after_header(exc.retry_after),
                )
        try:
            with self._tracer.span(
                "serving.request", method=method, path=path
            ) as span:
                self._inflight += 1
                if self._idle is not None:
                    self._idle.clear()
                try:
                    status, payload, content_type = await self._route(
                        method, path, query, body
                    )
                except BadRequestError as exc:
                    status, payload = 400, json.dumps({"error": str(exc)})
                except ConsistencyError as exc:
                    status, payload = 409, json.dumps({"error": str(exc)})
                except ServiceUnavailableError as exc:
                    status, payload = 503, json.dumps({"error": str(exc)})
                    extra = _retry_after_header(exc.retry_after)
                except CircuitOpenError as exc:
                    status, payload = 503, json.dumps({"error": str(exc)})
                    extra = _retry_after_header(exc.retry_after)
                except ServingError as exc:
                    status, payload = 400, json.dumps({"error": str(exc)})
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    status, payload = 500, json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}
                    )
                span.set("status", status)
        finally:
            self._inflight -= 1
            if self._inflight == 0 and self._idle is not None:
                self._idle.set()
            if ticket is not None:
                ticket.release()
        if self._tracer.enabled:
            metrics = self._tracer.metrics
            metrics.inc("serving.requests")
            if status >= 400:
                metrics.inc("serving.errors")
            metrics.observe(
                "serving.request_ms", (time.perf_counter() - started) * 1000.0
            )
        return status, payload, content_type, extra

    async def _route(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: bytes,
    ) -> Tuple[int, str, str]:
        loop = asyncio.get_running_loop()
        if path == "/health":
            if method != "GET":
                return self._method_not_allowed("GET")
            return (
                200,
                json.dumps(
                    {
                        "status": "ok",
                        "store": self._service.path,
                        "version": self._service.version,
                        "can_ingest": self._service.can_ingest,
                    }
                ),
                "application/json",
            )
        if path == "/resolve":
            side, key = self._resolve_arguments(method, query, body)
            # The pool already runs the lookup off-thread; run_in_executor
            # here keeps the *wait* for its future off the event loop too.
            result = await loop.run_in_executor(
                None, lambda: self._service.resolve(side, key)
            )
            return 200, json.dumps(result), "application/json"
        if path == "/ingest":
            if method != "POST":
                return self._method_not_allowed("POST")
            data = self._json_body(body)
            side = str(data.get("source", ""))
            row = data.get("row")
            if not isinstance(row, Mapping):
                raise BadRequestError('"row" must be an attribute/value object')
            result = await loop.run_in_executor(
                None, lambda: self._service.ingest(side, row)
            )
            return 200, json.dumps(result), "application/json"
        if path == "/invalidate":
            if method != "POST":
                return self._method_not_allowed("POST")
            dropped = self._service.invalidate()
            return 200, json.dumps({"invalidated": dropped}), "application/json"
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            stats = await loop.run_in_executor(None, self._service.stats)
            if self._admission is not None:
                stats["admission"] = self._admission.stats()
            return 200, json.dumps(stats), "application/json"
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            snapshot = (
                self._tracer.metrics.snapshot() if self._tracer.enabled else {}
            )
            return (
                200,
                metrics_to_prometheus(snapshot),
                "text/plain; version=0.0.4",
            )
        return 404, json.dumps({"error": f"no route {path!r}"}), "application/json"

    @staticmethod
    def _method_not_allowed(allowed: str) -> Tuple[int, str, str]:
        return (
            405,
            json.dumps({"error": f"method not allowed; use {allowed}"}),
            "application/json",
        )

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            raise BadRequestError("request body is empty")
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise BadRequestError("body must be a JSON object")
        return data

    def _resolve_arguments(
        self, method: str, query: Mapping[str, str], body: bytes
    ) -> Tuple[str, KeyValues]:
        if method == "GET":
            side = query.get("source", "")
            key_text = query.get("key", "")
            if not side or not key_text:
                raise BadRequestError(
                    "GET /resolve needs ?source=NAME&key=attr=value,..."
                )
            return side, parse_query_key(key_text)
        if method == "POST":
            data = self._json_body(body)
            return str(data.get("source", "")), decode_key_json(data.get("key"))
        raise BadRequestError("use GET or POST for /resolve")
