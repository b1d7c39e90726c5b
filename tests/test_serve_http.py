"""End-to-end tests of the stdlib HTTP serving API.

Boots a real ThreadingHTTPServer on an ephemeral port and talks to it
over actual sockets with urllib — the same path `repro-cli serve`
exercises minus the argv parsing.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import NamedTuple
from urllib.parse import urlparse

import pytest

from repro.core.problem import SelectionConfig
from repro.core.selection import make_selector
from repro.data.instances import build_instance
from repro.data.io import save_corpus
from repro.data.synthetic import generate_corpus
from repro.serve.admission import AdmissionController
from repro.serve.engine import SelectionEngine, selection_payload
from repro.serve.http import encode_json, make_server
from repro.serve.store import ItemStore
from repro.serve.wire import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=3)


@pytest.fixture(scope="module")
def served(corpus):
    """(base_url, engine) for a live server on an ephemeral port."""
    engine = SelectionEngine(ItemStore(corpus), workers=2)
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", engine
    server.shutdown()
    server.server_close()
    engine.close()


def _post(url: str, body: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read(), response.headers


def _status_of(call) -> int:
    try:
        call()
    except urllib.error.HTTPError as error:
        return error.code
    pytest.fail("expected an HTTP error")


class TestHealthz:
    def test_ok(self, served):
        base, engine = served
        status, body, _ = _get(f"{base}/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["corpus_version"] == engine.store.version


class TestSelect:
    def test_result_is_byte_identical_to_offline_selector(self, served, corpus):
        """The HTTP JSON result equals CompareSetsSelector byte-for-byte."""
        base, _ = served
        status, payload = _post(
            f"{base}/v1/select", {"m": 3, "algorithm": "CompaReSetS"}
        )
        assert status == 200

        instance = build_instance(
            corpus, payload["result"]["target"], max_comparisons=10, min_reviews=3
        )
        offline = make_selector("CompaReSetS").select(
            instance, SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)
        )
        assert encode_json(payload["result"]) == encode_json(
            selection_payload(offline)
        )

    def test_provenance_reports_cache_hit(self, served):
        base, _ = served
        _post(f"{base}/v1/select", {"m": 2})
        status, payload = _post(f"{base}/v1/select", {"m": 2})
        assert status == 200
        assert payload["provenance"]["cache"] == "hit"
        assert payload["provenance"]["wall_ms"] < 10.0

    def test_empty_body_uses_defaults(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/v1/select", data=b"", method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["result"]["algorithm"] == "CompaReSetS+"


class TestNarrow:
    def test_narrow_end_to_end(self, served):
        base, _ = served
        status, payload = _post(f"{base}/v1/narrow", {"m": 2, "k": 3})
        assert status == 200
        assert payload["result"]["k"] <= 3
        assert payload["provenance"]["backend"] == "bnb"
        assert payload["provenance"]["proven_optimal"] is True


class TestErrorMapping:
    def test_malformed_json_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/v1/select", data=b"{not json", method="POST"
        )
        assert _status_of(lambda: urllib.request.urlopen(request, timeout=30)) == 400

    def test_mistyped_field_is_400(self, served):
        base, _ = served
        assert _status_of(lambda: _post(f"{base}/v1/select", {"m": "three"})) == 400

    def test_unknown_field_is_400(self, served):
        base, _ = served
        assert _status_of(lambda: _post(f"{base}/v1/select", {"budget": 3})) == 400

    def test_unknown_target_is_422(self, served):
        base, _ = served
        assert (
            _status_of(lambda: _post(f"{base}/v1/select", {"target": "GHOST"}))
            == 422
        )

    def test_unknown_algorithm_is_422(self, served):
        base, _ = served
        assert (
            _status_of(lambda: _post(f"{base}/v1/select", {"algorithm": "Oracle"}))
            == 422
        )

    def test_brute_force_algorithm_is_422(self, served):
        base, _ = served
        for path in ("/v1/select", "/v1/narrow"):
            assert (
                _status_of(
                    lambda: _post(
                        f"{base}{path}", {"algorithm": "CompaReSetS_Exhaustive"}
                    )
                )
                == 422
            )

    def test_exhausted_deadline_is_503(self, served):
        base, _ = served
        assert (
            _status_of(
                lambda: _post(
                    f"{base}/v1/select",
                    {"m": 7, "algorithm": "CompaReSetS+"},
                    headers={"X-Deadline-Ms": "0.001"},
                )
            )
            == 503
        )

    def test_bad_deadline_header_is_400(self, served):
        base, _ = served
        assert (
            _status_of(
                lambda: _post(
                    f"{base}/v1/select", {"m": 2},
                    headers={"X-Deadline-Ms": "soon"},
                )
            )
            == 400
        )

    def test_unknown_path_is_404(self, served):
        base, _ = served
        assert _status_of(lambda: _get(f"{base}/v2/select")) == 404

    def test_get_on_select_is_405(self, served):
        base, _ = served
        assert _status_of(lambda: _get(f"{base}/v1/select")) == 405


class Reply(NamedTuple):
    status: int
    content_type: str | None
    retry_after: str | None
    body: bytes

    def json(self):
        return json.loads(self.body)


def connect(base: str) -> http.client.HTTPConnection:
    """One keep-alive connection to the server at ``base``."""
    url = urlparse(base)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=60)


def exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes = b"",
    headers: dict | None = None,
) -> Reply:
    """One request on ``conn``; the connection stays open for the next."""
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return Reply(
        response.status,
        response.getheader("Content-Type"),
        response.getheader("Retry-After"),
        response.read(),
    )


def raw_exchange(base: str, request: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes; the reply's head and body once the server hangs up."""
    url = urlparse(base)
    with socket.create_connection((url.hostname, url.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


class RequestEdgeChecks:
    """Request edges that both front ends must answer alike.

    A subclass supplies the ``base`` URL fixture: this module runs the
    checks against the single-process server, and
    ``tests/test_serve_cluster.py`` against the cluster gateway.
    """

    def test_error_replies_leave_the_connection_usable(self, base):
        conn = connect(base)
        try:
            assert exchange(
                conn, "POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "soon"}
            ).status == 400
            snapshot = exchange(conn, "POST", "/v1/snapshot", b'{"note": "x"}')
            assert snapshot.status in (200, 409)  # 409: no state dir
            assert snapshot.content_type == "application/json"
            assert exchange(conn, "POST", "/healthz", b'{"m": 2}').status == 405
            reply = exchange(conn, "POST", "/v1/select", b'{"m": 2}')
        finally:
            conn.close()
        assert reply.status == 200
        assert reply.content_type == "application/json"
        assert reply.json()["result"]["selections"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "0"])
    def test_deadline_must_be_positive_and_finite(self, base, value):
        conn = connect(base)
        try:
            reply = exchange(
                conn, "POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": value}
            )
        finally:
            conn.close()
        assert reply.status == 400
        assert reply.json()["error"].startswith("X-Deadline-Ms must be")

    def test_oversized_body_is_413_then_close(self, base):
        head, body = raw_exchange(
            base,
            b"POST /v1/select HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 1000000000000\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {
            "error": f"body of {10**12} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
            "status": 413,
        }

    def test_unreadable_content_length_is_400_then_close(self, base):
        head, body = raw_exchange(
            base,
            b"POST /v1/select HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: lots\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {
            "error": "invalid Content-Length: 'lots'", "status": 400,
        }

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_other_methods_are_405_json(self, base, method):
        conn = connect(base)
        try:
            reply = exchange(conn, method, "/v1/select", b"{}")
        finally:
            conn.close()
        assert reply.status == 405
        assert reply.content_type == "application/json"
        assert reply.json() == {
            "error": f"method {method} is not supported", "status": 405,
        }

    def test_undecodable_body_is_400(self, base):
        conn = connect(base)
        try:
            reply = exchange(conn, "POST", "/v1/select", b"\xff\xfe\xfd")
        finally:
            conn.close()
        assert reply.status == 400
        assert reply.json()["error"].startswith("invalid JSON body")


class TestRequestEdges(RequestEdgeChecks):
    @pytest.fixture()
    def base(self, served):
        return served[0]


class TestMetricsEndpoint:
    def test_json_metrics_report_cache_activity(self, served):
        base, _ = served
        _post(f"{base}/v1/select", {"m": 4})
        _post(f"{base}/v1/select", {"m": 4})
        status, body, headers = _get(f"{base}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["gauges"]["repro_cache_hit_ratio"] > 0.0
        assert payload["counters"]['repro_requests_total{endpoint="select"}'] >= 2

    def test_prometheus_rendering(self, served):
        base, _ = served
        _post(f"{base}/v1/select", {"m": 4})
        status, body, headers = _get(f"{base}/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_cache_hit_ratio" in text

    def test_accept_header_switches_to_prometheus(self, served):
        base, _ = served
        _, body, _ = _get(f"{base}/metrics", headers={"Accept": "text/plain"})
        assert body.decode().startswith("# ")


@contextmanager
def _fresh_server(engine):
    """A dedicated server for tests that mutate engine health/admission."""
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


class TestOverloadResponses:
    def test_shed_request_is_429_with_retry_after(self, corpus):
        engine = SelectionEngine(
            ItemStore(corpus),
            workers=2,
            admission=AdmissionController(max_pending=1),
        )
        with _fresh_server(engine) as base:
            slot = engine.admission.admit()  # wedge the queue full
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(f"{base}/v1/select", {"m": 2})
                error = excinfo.value
                assert error.code == 429
                # RFC 9110: the header is an integer number of seconds
                # (rounded up); the JSON body carries the precise float.
                assert int(error.headers["Retry-After"]) >= 1
                payload = json.loads(error.read())
                assert payload["reason"] == "queue_full"
                assert payload["retry_after"] > 0
            finally:
                slot.release()
            # Queue free again: the same request now succeeds.
            status, _ = _post(f"{base}/v1/select", {"m": 2})
            assert status == 200

    def test_draining_engine_answers_503(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            engine.health.start_draining()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/select", {"m": 2})
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1

    def test_healthz_reports_draining_as_503(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            status, body, _ = _get(f"{base}/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            engine.health.start_draining()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{base}/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["status"] == "draining"

    def test_healthz_reports_degraded_backends(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            engine.breakers.breaker("milp")  # lazily created, then wedged
            for _ in range(3):
                engine.breakers.breaker("milp").record_failure()
            status, body, _ = _get(f"{base}/healthz")
            assert status == 200  # degraded still serves
            payload = json.loads(body)
            assert payload["status"] == "degraded"
            assert any("milp" in reason for reason in payload["reasons"])


class TestReloadEndpoint:
    def test_reload_swaps_corpus_and_reports_versions(self, corpus, tmp_path):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            previous = engine.store.version
            path = tmp_path / "corpus.json"
            save_corpus(generate_corpus("Toy", scale=0.3, seed=11), path)
            status, payload = _post(f"{base}/v1/reload", {"path": str(path)})
            assert status == 200
            assert payload["previous"] == previous
            assert payload["version"] == engine.store.version != previous
            # The swapped corpus serves immediately.
            status, _ = _post(f"{base}/v1/select", {"m": 2})
            assert status == 200

    def test_reload_invalid_corpus_is_409_and_rolls_back(self, corpus, tmp_path):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            previous = engine.store.version
            path = tmp_path / "broken.json"
            path.write_text('{"not": "a corpus"}', encoding="utf-8")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/reload", {"path": str(path)})
            assert excinfo.value.code == 409
            payload = json.loads(excinfo.value.read())
            assert payload["version"] == previous
            assert engine.store.version == previous

    @pytest.mark.parametrize(
        "mention",
        [
            '{"aspect": "a", "sentiment": 1, "strength": NaN}',
            '{"aspect": "a", "sentiment": Infinity}',
        ],
    )
    def test_reload_undecodable_record_is_409_naming_its_line(
        self, corpus, tmp_path, mention
    ):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            previous = engine.store.version
            path = tmp_path / "poisoned.json"
            fresh = generate_corpus("Toy", scale=0.3, seed=11)
            save_corpus(fresh, path)
            product = fresh.products[0].product_id
            with path.open("a", encoding="utf-8") as handle:
                handle.write(
                    f'{{"kind": "review", "review_id": "NAN-1", '
                    f'"product_id": "{product}", "mentions": [{mention}]}}\n'
                )
            line = len(path.read_text(encoding="utf-8").splitlines())
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/reload", {"path": str(path)})
            assert excinfo.value.code == 409
            payload = json.loads(excinfo.value.read())
            assert f"{path}:{line}: " in payload["error"]
            assert engine.store.version == previous

    def test_reload_missing_path_field_is_400(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/reload", {})
            assert excinfo.value.code == 400

    def test_reload_unknown_field_is_400(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/reload", {"path": "x", "force": True})
            assert excinfo.value.code == 400

    def test_reload_nonexistent_file_is_409(self, corpus):
        engine = SelectionEngine(ItemStore(corpus), workers=2)
        with _fresh_server(engine) as base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{base}/v1/reload", {"path": "/does/not/exist.json"})
            assert excinfo.value.code == 409

    def test_get_on_reload_is_405(self, served):
        base, _ = served
        assert _status_of(lambda: _get(f"{base}/v1/reload")) == 405
