"""HTTP front-end for the serving layer (stdlib only, no frameworks).

:class:`HttpFrontend` exposes the solver service over four endpoints:

``POST /solve``
    Body: a ``repro.solve-request/1`` JSON document (``costs`` square
    matrix, required ``deadline_s`` key — explicitly ``null`` for no
    deadline — optional ``tier`` / ``session_id`` / ``name``).  Response:
    a ``repro.solve-response/1`` document; completed solves are 200,
    rejects map to typed 4xx/5xx (below).  *Every* response — including
    malformed-input 4xxs — carries a correlation id, so a client log line
    can always be joined against server logs and spans.
``GET /healthz``
    200 when the backing pool/service is up (503 while workers are down).
``GET /metrics``
    Prometheus exposition (:func:`repro.obs.metrics.metrics_to_prometheus_text`).
``GET /stats``
    The ``repro.serve/1`` stats document as JSON.

Reject code → HTTP status:

==================  ======
``bad_json``        400
``missing_deadline``  400
``invalid``         400
``oversized``       400
``body_too_large``  413
``not_found``       404
``bad_method``      405
``queue_full``      429
``deadline_expired``  408
``worker_lost``     503
``shutdown``        503
``internal_error``  500
==================  ======

The front-end is a thin codec: it validates the wire document, mints a
correlation id for requests that die before submission, and forwards to
any *pool-style* backend — :class:`repro.serve.workers.WorkerPool` for
multi-process serving, or :class:`ServiceAdapter` wrapping an in-process
:class:`~repro.serve.service.SolverService` (what the protocol-conformance
tests use; the wire behaviour is identical).  Malformed input must never
crash the server: the conformance suite in ``tests/serve/test_http.py``
throws broken JSON, NaNs, ragged and oversized matrices at it and expects
typed 4xxs with the server still answering afterwards.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.request import Request, urlopen

import numpy as np

from repro.obs.export import (
    SOLVE_REQUEST_SCHEMA,
    SchemaError,
    to_jsonable,
    validate_solve_request,
)
from repro.serve.request import QUALITY_TIERS
from repro.serve.workers import reject_document, wire_response

__all__ = [
    "HttpClient",
    "HttpFrontend",
    "ServiceAdapter",
    "STATUS_OF_REJECT",
]

logger = logging.getLogger(__name__)

#: Typed reject code → HTTP status.
STATUS_OF_REJECT = {
    "bad_json": 400,
    "missing_deadline": 400,
    "invalid": 400,
    "oversized": 400,
    "body_too_large": 413,
    "not_found": 404,
    "bad_method": 405,
    "queue_full": 429,
    "deadline_expired": 408,
    "cancelled": 409,
    "worker_lost": 503,
    "shutdown": 503,
    "internal_error": 500,
}

#: Default request-body ceiling (a 512×512 float matrix in JSON is ~3 MB;
#: this is a serving guardrail, not a solver limit).
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted matrix dimension (oversized → typed 400).
_MAX_MATRIX_N = 512

#: How long the handler thread waits for the backend before giving up.
_RESPONSE_TIMEOUT_S = 120.0


class ServiceAdapter:
    """Pool-style facade over an in-process :class:`SolverService`.

    Presents the same ``submit(costs, ...) -> ticket`` / ``stats_document``
    / ``prometheus_text`` surface as :class:`~repro.serve.workers.WorkerPool`,
    so :class:`HttpFrontend` serves either interchangeably.
    """

    def __init__(self, service) -> None:
        self.service = service

    def submit(
        self,
        costs,
        *,
        tier: str = "auto",
        deadline_s: float | None = None,
        session_id: str | None = None,
        name: str | None = None,
        correlation_id: str | None = None,
    ):
        from repro.lap.problem import LAPInstance

        instance = LAPInstance(
            np.asarray(costs, dtype=np.float64), name=name or "http"
        )
        ticket = self.service.submit(
            instance, tier=tier, deadline_s=deadline_s, session_id=session_id
        )
        return _AdapterTicket(ticket, tier)

    def healthy(self) -> bool:
        return True

    def stats_document(self, meta: dict | None = None) -> dict:
        return self.service.stats_document(meta)

    def prometheus_text(self) -> str:
        return self.service.prometheus_text()

    def close(self) -> None:
        self.service.close()


class _AdapterTicket:
    """Wraps a service :class:`~repro.serve.request.Ticket` to wire dicts."""

    def __init__(self, ticket, tier: str) -> None:
        self._ticket = ticket
        self._tier = tier

    def response(self, timeout: float | None = None) -> dict:
        response = self._ticket.response(timeout)
        return wire_response(
            response,
            request_id=response.request_id,
            correlation_id=response.correlation_id,
            tier=self._tier,
        )


class _WireError(Exception):
    """A typed pre-submission failure (never reaches the backend)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _parse_solve_body(body: bytes) -> dict:
    """Decode and validate a ``/solve`` body; raises :class:`_WireError`."""
    try:
        document = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _WireError("bad_json", f"request body is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise _WireError("bad_json", "request body must be a JSON object")
    document.setdefault("schema", SOLVE_REQUEST_SCHEMA)
    if "deadline_s" not in document:
        raise _WireError(
            "missing_deadline",
            "the deadline_s key is required (use null for no deadline)",
        )
    costs = document.get("costs")
    if isinstance(costs, list) and len(costs) > _MAX_MATRIX_N:
        raise _WireError(
            "oversized",
            f"matrix dimension {len(costs)} exceeds the service limit "
            f"({_MAX_MATRIX_N})",
        )
    try:
        validate_solve_request(document)
    except SchemaError as exc:
        raise _WireError("invalid", str(exc))
    return document


class _Handler(BaseHTTPRequestHandler):
    """One request handler; the frontend instance rides on the server."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The default handler logs to stderr; route through logging instead.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http %s", format % args)

    @property
    def frontend(self) -> "HttpFrontend":
        return self.server.frontend  # type: ignore[attr-defined]

    def _send_json(self, status: int, document: dict) -> None:
        payload = json.dumps(to_jsonable(document)).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_reject(self, code: str, detail: str) -> None:
        front = self.frontend
        front.metrics_inc(f"http.rejected.{code}")
        self._send_json(
            STATUS_OF_REJECT.get(code, 500),
            reject_document(
                request_id=-1,
                correlation_id=front._next_http_correlation(),
                tier=None,
                code=code,
                detail=detail,
            ),
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        front = self.frontend
        try:
            if self.path == "/healthz":
                healthy = front.backend.healthy()
                self._send_json(
                    200 if healthy else 503,
                    {"ok": healthy, "endpoint": "healthz"},
                )
            elif self.path == "/metrics":
                self._send_text(
                    200,
                    front.backend.prometheus_text(),
                    "text/plain; version=0.0.4",
                )
            elif self.path == "/stats":
                self._send_json(
                    200, front.backend.stats_document({"transport": "http"})
                )
            else:
                self._send_reject("not_found", f"unknown path {self.path!r}")
        except Exception as exc:  # noqa: BLE001 - the server must survive
            logger.exception("GET %s failed", self.path)
            self._send_reject("internal_error", str(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        front = self.frontend
        try:
            if self.path != "/solve":
                self._send_reject("not_found", f"unknown path {self.path!r}")
                return
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length > front.max_body_bytes:
                # Drain modest overshoots so well-behaved clients (urllib
                # has no Expect: 100-continue) can still read the typed
                # 413; truly abusive bodies just get the connection cut.
                if length <= 4 * front.max_body_bytes:
                    remaining = length
                    while remaining > 0:
                        chunk = self.rfile.read(min(65536, remaining))
                        if not chunk:
                            break
                        remaining -= len(chunk)
                else:
                    self.close_connection = True
                self._send_reject(
                    "body_too_large",
                    f"body of {length} bytes exceeds the "
                    f"{front.max_body_bytes}-byte limit",
                )
                return
            body = self.rfile.read(length)
            try:
                document = _parse_solve_body(body)
            except _WireError as exc:
                self._send_reject(exc.code, exc.detail)
                return
            front.metrics_inc("http.solve")
            ticket = front.backend.submit(
                document["costs"],
                tier=document.get("tier", "auto"),
                deadline_s=document["deadline_s"],
                session_id=document.get("session_id"),
                name=document.get("name"),
            )
            response = ticket.response(timeout=front.response_timeout_s)
            if response["status"] == "completed":
                self._send_json(200, response)
            else:
                code = response["reject"]["code"]
                front.metrics_inc(f"http.rejected.{code}")
                self._send_json(STATUS_OF_REJECT.get(code, 500), response)
        except Exception as exc:  # noqa: BLE001 - the server must survive
            logger.exception("POST %s failed", self.path)
            self._send_reject("internal_error", str(exc))

    def do_PUT(self) -> None:  # noqa: N802
        self._send_reject("bad_method", "only GET and POST are supported")

    do_DELETE = do_PUT
    do_PATCH = do_PUT


class HttpFrontend:
    """Threaded HTTP server over a pool-style backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.workers.WorkerPool` or
        :class:`ServiceAdapter` (anything with ``submit`` / ``healthy`` /
        ``stats_document`` / ``prometheus_text``).
    host / port:
        Bind address; ``port=0`` picks a free one (see :attr:`port`).
    max_body_bytes:
        Request-body ceiling; beyond it ``/solve`` answers a typed 413.
    response_timeout_s:
        Hard cap a handler thread waits on the backend before answering
        ``internal_error`` (backends always terminate requests, so this
        only fires if supervision itself is wedged).
    """

    def __init__(
        self,
        backend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = _MAX_BODY_BYTES,
        response_timeout_s: float = _RESPONSE_TIMEOUT_S,
    ) -> None:
        self.backend = backend
        self.max_body_bytes = int(max_body_bytes)
        self.response_timeout_s = float(response_timeout_s)
        self._counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._http_ids = 0
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.frontend = self  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="http-frontend",
            daemon=True,
        )
        self._thread.start()
        logger.info("HTTP front-end listening on %s:%d", host, self.port)

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def metrics_inc(self, name: str) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def counters(self) -> dict[str, int]:
        with self._counter_lock:
            return dict(sorted(self._counters.items()))

    def _next_http_correlation(self) -> str:
        with self._counter_lock:
            self._http_ids += 1
            return f"http-{self._http_ids:06d}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        logger.info("HTTP front-end closed")

    def __enter__(self) -> "HttpFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HttpClient:
    """Minimal stdlib client for the front-end (tests, loadgen, CLI)."""

    def __init__(self, base_url: str, *, timeout: float = 120.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self,
        path: str,
        *,
        method: str = "GET",
        body: bytes | None = None,
    ) -> tuple[int, bytes]:
        request = Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urlopen(request, timeout=self.timeout) as reply:
                return reply.status, reply.read()
        except Exception as exc:
            from urllib.error import HTTPError

            if isinstance(exc, HTTPError):
                return exc.code, exc.read()
            raise

    def solve_raw(self, body: bytes) -> tuple[int, dict]:
        """POST raw bytes to ``/solve`` (the conformance tests' entry)."""
        status, payload = self._request("/solve", method="POST", body=body)
        return status, json.loads(payload)

    def solve(
        self,
        costs,
        *,
        tier: str = "auto",
        deadline_s: float | None = None,
        session_id: str | None = None,
        name: str | None = None,
    ) -> tuple[int, dict]:
        document: dict[str, Any] = {
            "schema": SOLVE_REQUEST_SCHEMA,
            "costs": np.asarray(costs, dtype=np.float64).tolist(),
            "tier": tier,
            "deadline_s": deadline_s,
        }
        if session_id is not None:
            document["session_id"] = session_id
        if name is not None:
            document["name"] = name
        assert tier in QUALITY_TIERS, tier
        return self.solve_raw(json.dumps(document).encode())

    def healthz(self) -> tuple[int, dict]:
        status, payload = self._request("/healthz")
        return status, json.loads(payload)

    def metrics(self) -> tuple[int, str]:
        status, payload = self._request("/metrics")
        return status, payload.decode()

    def stats(self) -> tuple[int, dict]:
        status, payload = self._request("/stats")
        return status, json.loads(payload)
