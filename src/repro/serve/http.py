"""Dependency-free JSON HTTP API over :class:`SelectionEngine`.

Endpoints
---------
``GET /healthz``
    Liveness + the served corpus version.
``GET /metrics``
    Engine metrics as JSON; ``?format=prometheus`` (or an ``Accept:
    text/plain`` header) switches to the Prometheus text format.
``POST /v1/select``
    Body: ``{"target": ..., "m": 3, "lam": 1.0, "mu": 0.1, "scheme":
    "binary", "algorithm": "CompaReSetS+", "max_comparisons": 10,
    "min_reviews": 3}`` — every field optional.  Returns ``{"result":
    ..., "provenance": ...}``.
``POST /v1/narrow``
    The select body plus ``k``, ``time_limit`` and ``stages``.
``POST /v1/reload``
    Admin: ``{"path": "corpus.jsonl"}`` — validate the new corpus in the
    background (old generation keeps serving) and atomically swap it in.
``POST /v1/ingest``
    Durable delta ingest: ``{"reviews": [{"review_id": ..., "product_id":
    ..., ...}, ...]}``, fsynced to the write-ahead log before the ack.
``POST /v1/snapshot``
    Admin: write an atomic generation snapshot now and compact the WAL.

The handler is a transport: it reads the announced body, lets
:mod:`repro.serve.wire` check the request and map any failure to its
status (the table the cluster answers by too), and sends the reply.  An
``X-Deadline-Ms`` header bounds the request's server-side work.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly what the engine's single-flight cache and
micro-batcher are designed to coalesce.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.serve.engine import SelectionEngine
from repro.serve.wire import (
    JSON_TYPE,
    PROMETHEUS_TYPE,
    BadRequest,
    WireError,
    body_length,
    deadline_ms,
    failure,
    health,
    ingest_batch,
    json_body,
    metrics_as_text,
    only_fields,
    query,
    route,
    snapshot,
)


def encode_json(payload: object) -> bytes:
    """The canonical response encoding (sorted keys, no whitespace).

    Shared by the server and the equivalence tests so "HTTP result ==
    offline selector result" is a plain bytes comparison.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _reload(engine: SelectionEngine, body: dict) -> dict:
    """Swap in the corpus at ``body["path"]`` once it validates."""
    only_fields(body, ("path",))
    path = body.get("path")
    if not isinstance(path, str) or not path:
        raise BadRequest("field 'path' (a corpus file path) is required")
    previous = engine.store.version
    try:
        version = engine.reload_from_path(path)
    except Exception as exc:
        error = failure(exc, "reload", engine.jitter)
        if error.status == 409:
            # Nothing was swapped: the previous generation is still the
            # one serving (that *is* the rollback).
            error.extra = {"version": previous}
        raise error from exc
    return {"version": version, "previous": previous}


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine for its handlers."""

    daemon_threads = True
    # The stdlib default backlog of 5 drops connections under the very
    # bursts admission control is built to absorb; shedding must happen
    # at the application layer (429), not as kernel connection resets.
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], engine: SelectionEngine) -> None:
        super().__init__(address, ServeHandler)
        self.engine = engine
        self.started_at = time.monotonic()


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # Typed for handler-side access; set by ServingHTTPServer.__init__.
    server: ServingHTTPServer

    def log_message(self, format: str, *args) -> None:
        # Access logs go to metrics, not stderr (the CLI keeps stdout for
        # the one "serving on ..." line the smoke harness parses).
        pass

    # -- plumbing ------------------------------------------------------------

    def _send(
        self,
        status: int,
        payload: object,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        body = (
            payload if isinstance(payload, bytes) else encode_json(payload)
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _post(self, endpoint: str, raw: bytes) -> dict:
        engine = self.server.engine
        deadline = deadline_ms(self.headers.get("X-Deadline-Ms"))
        body = json_body(raw)
        if endpoint == "ingest":
            return engine.ingest_reviews(ingest_batch(body))
        if endpoint == "snapshot":
            return snapshot(engine)
        if endpoint == "reload":
            return _reload(engine, body)
        return query(engine, endpoint, body, deadline)

    # -- requests ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve one request of any method.

        The announced body is read before any reply, so the next request
        on a keep-alive connection starts on a clean stream.  A body that
        can be neither read nor skipped (a bad or oversized
        ``Content-Length``) is answered, then the connection closes.
        """
        engine = self.server.engine
        try:
            size = body_length(self.headers.get("Content-Length"))
        except WireError as error:
            status, payload, headers = error.reply(engine.metrics)
            headers = {**(headers or {}), "Connection": "close"}
            self._send(status, payload, headers=headers)
            return
        raw = self.rfile.read(size) if size else b""
        url = urlparse(self.path)
        endpoint = None
        content, headers = JSON_TYPE, None
        try:
            endpoint = route(self.command, url.path)
            if endpoint == "healthz":
                status, payload = health(engine, self.server.started_at)
            elif endpoint != "metrics":
                status, payload = 200, self._post(endpoint, raw)
            elif metrics_as_text(url.query, self.headers.get("Accept", "")):
                status, payload = 200, engine.metrics.render_prometheus().encode()
                content = PROMETHEUS_TYPE
            else:
                status, payload = 200, engine.metrics.as_dict()
        except Exception as exc:
            status, payload, headers = failure(
                exc, endpoint, engine.jitter
            ).reply(engine.metrics)
        self._send(status, payload, content, headers)

    # One path for every method: the wire table answers a GET, and a PUT,
    # DELETE or PATCH gets its JSON 405 instead of the stdlib's 501 page.
    do_GET = do_PUT = do_DELETE = do_PATCH = do_POST


def make_server(
    engine: SelectionEngine, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind (but do not start) a serving HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address`` — the end-to-end tests and the smoke target
    rely on this to avoid port collisions.
    """
    return ServingHTTPServer((host, port), engine)


def run_server(
    engine: SelectionEngine,
    host: str,
    port: int,
    *,
    drain_timeout: float = 30.0,
) -> None:
    """Blocking convenience used by ``repro-cli serve``.

    Installs SIGTERM/SIGINT handlers (when running on the main thread)
    that shut down *gracefully*: the engine enters the draining state —
    new requests get 503 + ``Retry-After`` — in-flight requests finish
    within ``drain_timeout`` seconds, and only then does the process
    exit.  A second signal falls back to the default handler (immediate
    exit) so a hung drain can still be interrupted.
    """
    server = make_server(engine, host, port)
    bound_host, bound_port = server.server_address[:2]
    stopping = threading.Event()

    def _graceful_stop() -> None:
        drained = engine.drain(drain_timeout)
        if not drained:
            print("drain timeout: cancelled remaining in-flight work", flush=True)
        server.shutdown()

    def _handle_signal(signum, frame) -> None:
        if stopping.is_set():
            raise KeyboardInterrupt
        stopping.set()
        print(f"received signal {signum}: draining...", flush=True)
        # Drain off the signal-handler frame so the serve loop keeps
        # completing in-flight responses while we wait.
        threading.Thread(
            target=_graceful_stop, name="repro-serve-drain", daemon=True
        ).start()

    installed: list[int] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _handle_signal)
                installed.append(signum)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                break
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum in installed:
            signal.signal(signum, signal.SIG_DFL)
        server.server_close()
        if not stopping.is_set():
            engine.close()
        print("server stopped", flush=True)
