"""The wire contract: request checks, the error table, both reply forms."""

from __future__ import annotations

import errno
import json
import sys

import numpy as np
import pytest

from repro.data.io import save_corpus
from repro.data.synthetic import generate_corpus
from repro.resilience.deadline import DeadlineExceeded
from repro.serve.admission import Overloaded
from repro.serve.breaker import CircuitOpen
from repro.serve.cluster import handle_message
from repro.serve.engine import (
    EngineClosed,
    EngineDraining,
    InvalidRequest,
    NarrowRequest,
    build_durable_engine,
)
from repro.serve.jitter import NO_JITTER, RetryJitter
from repro.serve.metrics import MetricsRegistry
from repro.serve.store import (
    CorpusValidationError,
    DeltaValidationError,
    ReloadInProgress,
    UnknownTargetError,
    UnviableTargetError,
)
from repro.serve.wire import (
    MAX_BODY_BYTES,
    BadRequest,
    WireError,
    body_length,
    deadline_ms,
    failure,
    ingest_batch,
    json_body,
    parse_request,
    review_batch,
    route,
)


class TestFailureTable:
    """One case per row, with the endpoints a row depends on."""

    @pytest.mark.parametrize(
        "exc, endpoint, status",
        [
            (BadRequest("nope"), "select", 400),
            (WireError(501, "not here"), "reload", 501),
            (DeltaValidationError("malformed record"), "ingest", 400),
            (DeltaValidationError("duplicate", conflict=True), "ingest", 409),
            (ReloadInProgress("busy"), "reload", 409),
            (CorpusValidationError("no products"), "reload", 409),
            (TypeError("bad kwarg"), "select", 400),
            (TypeError("bad kwarg"), "narrow", 400),
            (TypeError("a bug"), "ingest", 500),
            (InvalidRequest("m must be >= 1"), "select", 422),
            (UnknownTargetError("ghost"), "narrow", 422),
            (UnviableTargetError("thin"), "select", 422),
            (Overloaded("full", retry_after=0.25), "select", 429),
            (EngineDraining("draining"), "ingest", 503),
            (CircuitOpen("open"), "narrow", 503),
            (DeadlineExceeded("late"), "select", 503),
            # A TimeoutError is an OSError, yet it is no failed log write.
            (DeadlineExceeded("late"), "ingest", 503),
            (EngineClosed("closed"), "select", 503),
            (OSError("disk full"), "ingest", 503),
            (OSError("disk full"), "snapshot", 503),
            # A query-path OSError has no WAL involved: backstop 500.
            (OSError("x"), "select", 500),
            (RuntimeError("no state dir"), "snapshot", 409),
            (RuntimeError("boom"), "select", 500),
            (ValueError("boom"), None, 500),
        ],
    )
    def test_status(self, exc, endpoint, status):
        assert failure(exc, endpoint, NO_JITTER).status == status

    def test_retry_hints_and_reasons(self):
        def frame(exc, endpoint="select"):
            return failure(exc, endpoint, NO_JITTER).frame()

        assert frame(Overloaded("full", retry_after=0.25, reason="rate_limited")) == {
            "status": 429, "error": "full", "retry_after": 0.25,
            "extra": {"reason": "rate_limited"},
        }
        assert frame(EngineDraining("draining")) == {
            "status": 503, "error": "draining", "retry_after": 1.0,
        }
        assert frame(CircuitOpen("open")) == {
            "status": 503, "error": "open", "retry_after": 5.0,
            "extra": {"reason": "circuit_open"},
        }
        assert frame(OSError("no space"), "ingest") == {
            "status": 503, "error": "cannot persist delta: no space",
            "retry_after": 2.0, "extra": {"reason": "wal_unavailable"},
        }
        assert frame(OSError("no space"), "snapshot") == {
            "status": 503, "error": "snapshot failed: no space", "retry_after": 2.0,
        }
        assert frame(DeadlineExceeded("late")) == {"status": 503, "error": "late"}
        assert frame(RuntimeError("boom")) == {
            "status": 500, "error": "RuntimeError: boom",
        }

    def test_jitter_is_drawn_only_by_rows_that_hint(self):
        jitter = RetryJitter(seed=3)
        failure(BadRequest("x"), "select", jitter)
        failure(DeadlineExceeded("late"), "select", jitter)
        failure(OSError("x"), "select", jitter)
        assert jitter.applications == 0
        failure(EngineDraining("draining"), "select", jitter)
        assert jitter.applications == 1


class TestWireError:
    def test_http_reply_rounds_the_header_up_and_counts(self):
        metrics = MetricsRegistry()
        error = WireError(
            503, "busy", retry_after=2.0001, extra={"reason": "circuit_open"}
        )
        status, body, headers = error.reply(metrics)
        assert status == 503
        assert body == {
            "error": "busy", "status": 503, "retry_after": 2.0,
            "reason": "circuit_open",
        }
        assert headers == {"Retry-After": "3"}
        assert metrics.as_dict()["counters"][
            'repro_http_errors_total{status="503"}'
        ] == 1
        assert WireError(429, "x", retry_after=0.2).reply(metrics)[2] == {
            "Retry-After": "1"
        }
        assert WireError(404, "x").reply(metrics) == (
            404, {"error": "x", "status": 404}, None,
        )

    def test_frame_round_trip_renders_the_same_reply(self):
        error = WireError(409, "dup", retry_after=1.5, extra={"reason": "r"})
        again = WireError.from_frame(error.frame())
        assert again.frame() == error.frame()
        assert again.reply(MetricsRegistry()) == error.reply(MetricsRegistry())
        assert WireError(400, "bad").frame() == {"status": 400, "error": "bad"}

    def test_from_frame_adds_context(self):
        relayed = WireError.from_frame(
            {"status": 503, "error": "x", "extra": {"reason": "r"}}, shard=2
        )
        assert relayed.extra == {"reason": "r", "shard": 2}
        assert WireError.from_frame({}).frame() == {
            "status": 503, "error": "shard error",
        }


class TestRequestChecks:
    @pytest.mark.parametrize(
        "raw, expected", [(None, None), ("250", 250.0), ("0.5", 0.5), (40, 40.0)]
    )
    def test_deadline_accepts_positive_finite(self, raw, expected):
        assert deadline_ms(raw) == expected

    @pytest.mark.parametrize(
        "raw", ["soon", "", "nan", "NaN", "inf", "-inf", "0", "-5", True, [5]]
    )
    def test_deadline_rejects_everything_else(self, raw):
        with pytest.raises(BadRequest) as excinfo:
            deadline_ms(raw)
        assert excinfo.value.status == 400

    def test_body_length(self):
        assert body_length(None) == 0
        assert body_length("12") == 12
        assert body_length(str(MAX_BODY_BYTES)) == MAX_BODY_BYTES
        for raw in ("twelve", "-1", "1.5"):
            with pytest.raises(BadRequest):
                body_length(raw)
        with pytest.raises(WireError) as excinfo:
            body_length(str(10**12))
        assert excinfo.value.status == 413

    @pytest.mark.parametrize(
        "method, path, answer",
        [
            ("GET", "/healthz", "healthz"),
            ("GET", "/metrics", "metrics"),
            ("POST", "/v1/select", "select"),
            ("POST", "/v1/narrow", "narrow"),
            ("POST", "/v1/reload", "reload"),
            ("POST", "/v1/ingest", "ingest"),
            ("POST", "/v1/snapshot", "snapshot"),
            ("GET", "/v1/select", 405),
            ("POST", "/healthz", 405),
            ("PUT", "/v1/select", 405),
            ("DELETE", "/nope", 405),
            ("GET", "/nope", 404),
            ("POST", "/v1/select/", 404),
        ],
    )
    def test_route(self, method, path, answer):
        if isinstance(answer, str):
            assert route(method, path) == answer
            return
        with pytest.raises(WireError) as excinfo:
            route(method, path)
        assert excinfo.value.status == answer

    def test_json_body(self):
        assert json_body(b"") == {}
        assert json_body(b'{"m": 2}') == {"m": 2}
        # Bad JSON, bytes that are not UTF-8, and nesting too deep for
        # the decoder are all the client's fault.
        for raw in (b"{not json", b"\xff\xfe\xfd", b"[" * 100_000, b"[1]"):
            with pytest.raises(BadRequest):
                json_body(raw)

    def test_parse_request(self):
        request = parse_request({"k": 2, "stages": ["bnb"]}, narrow=True)
        assert isinstance(request, NarrowRequest)
        assert request.stages == ("bnb",)
        for body, narrow in (
            ({"k": 2}, False),
            ({"m": True}, False),
            ({"m": "3"}, False),
            ({"stages": ["bnb", 1]}, True),
        ):
            with pytest.raises(BadRequest):
                parse_request(body, narrow)

    def test_ingest_batch(self):
        record = {"review_id": "r", "product_id": "p"}
        assert ingest_batch({"reviews": [record]}) == [record]
        assert review_batch([record]) == [record]
        for body in ({}, {"reviews": []}, {"reviews": "x"}, {"reviews": [1]},
                     {"reviews": [record], "extra": 1}):
            with pytest.raises(BadRequest):
                ingest_batch(body)


class TestShardFrames:
    def test_failed_snapshot_is_503_with_retry_hint(self, tmp_path, monkeypatch):
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus("Toy", scale=0.3, seed=11), corpus_path)
        engine = build_durable_engine(tmp_path / "state", corpus_path=corpus_path)

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine.snapshots, "save", disk_full)
        try:
            assert handle_message(engine, {"op": "snapshot"}) == {
                "status": 503,
                "error": "snapshot failed: [Errno 28] No space left on device",
                "retry_after": 2.0,
            }
        finally:
            engine.close()


#: Finite lam/mu past sys.float_info.max ** 0.25: their squares times a
#: Gram entry or an item distance overflow, so both front ends refuse them.
LAM_MU_PAST_BOUND = [
    ("narrow", '{"lam": 1e154, "k": 2}'),
    ("narrow", '{"lam": 1e154, "k": 3}'),
    ("narrow", '{"mu": 1e154, "k": 3}'),
    ("select", '{"lam": 1e154}'),
    ("select", '{"mu": 1e154}'),
    ("select", '{"m": 2, "lam": 1.2e77}'),
]


class TestNonFiniteInput:
    """NaN, the infinities and overflowing numbers, which JSON bodies carry."""

    @pytest.fixture(scope="class")
    def engine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("nonfinite")
        corpus_path = root / "corpus.jsonl"
        save_corpus(generate_corpus("Toy", scale=0.3, seed=11), corpus_path)
        engine = build_durable_engine(root / "state", corpus_path=corpus_path)
        yield engine
        engine.close()

    @pytest.mark.parametrize(
        "op, body",
        [
            ("select", '{"lam": NaN}'),
            ("select", '{"mu": Infinity}'),
            ("select", '{"lam": -Infinity}'),
            ("select", '{"m": 2, "lam": 1e308}'),
            ("select", '{"mu": 1%s}' % ("0" * 200)),
            ("narrow", '{"time_limit": NaN}'),
            ("narrow", '{"time_limit": Infinity}'),
            ("narrow", '{"time_limit": 1%s}' % ("0" * 400)),
            *LAM_MU_PAST_BOUND,
        ],
        ids=[
            "lam-nan", "mu-inf", "lam-minus-inf", "lam-square-overflows",
            "mu-int-square-overflows", "time_limit-nan", "time_limit-inf",
            "time_limit-int-overflows", "narrow-lam-1e154-k2",
            "narrow-lam-1e154-k3", "narrow-mu-1e154-k3", "select-lam-1e154",
            "select-mu-1e154", "select-lam-past-fourth-root",
        ],
    )
    def test_query_is_422(self, engine, op, body):
        reply = handle_message(engine, {"op": op, "body": json.loads(body)})
        assert reply["status"] == 422, reply

    def test_refused_weights_leave_breakers_and_health_alone(self, engine):
        # Three rounds reach every breaker's failure threshold, were any
        # refusal counted against a backend.
        for _ in range(3):
            for op, body in LAM_MU_PAST_BOUND:
                reply = handle_message(engine, {"op": op, "body": json.loads(body)})
                assert reply["status"] == 422, reply
        assert engine.breakers.open_backends() == ()
        health = handle_message(engine, {"op": "healthz"})
        assert health["status"] == 200
        assert health["payload"]["status"] == "ok"

    @pytest.mark.parametrize("scheme", ["binary", "3-polarity", "unary-scale"])
    def test_weights_at_the_bound_answer_finite(self, engine, scheme):
        bound = repr(sys.float_info.max**0.25)
        bodies = [
            ("select", f'{{"m": 3, "scheme": "{scheme}", "lam": {bound}}}'),
            ("select", f'{{"m": 10, "scheme": "{scheme}", "mu": {bound}}}'),
            ("narrow", f'{{"k": 3, "scheme": "{scheme}", "lam": {bound}}}'),
            ("narrow", f'{{"k": 5, "scheme": "{scheme}", "mu": {bound}}}'),
        ]
        with np.errstate(all="raise"):
            for op, body in bodies:
                reply = handle_message(engine, {"op": op, "body": json.loads(body)})
                assert reply["status"] == 200, (body, reply)
                json.dumps(reply["payload"], allow_nan=False)

    @pytest.mark.parametrize(
        "mention",
        [
            '{"aspect": "a", "sentiment": 1, "strength": NaN}',
            '{"aspect": "a", "sentiment": 1, "strength": Infinity}',
            '{"aspect": "a", "sentiment": Infinity}',
        ],
    )
    def test_ingest_is_400_and_logs_nothing(self, engine, mention):
        product = engine.store.corpus.products[0].product_id
        reviews = json.loads(
            f'[{{"review_id": "NF-1", "product_id": "{product}", '
            f'"mentions": [{mention}]}}]'
        )
        before = engine.wal.stats()
        reply = handle_message(engine, {"op": "ingest", "reviews": reviews})
        assert reply["status"] == 400, reply
        assert engine.wal.stats() == before
