"""Shard worker: op handling, error taxonomy, and the framed TCP server."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.data.instances import build_instance
from repro.data.synthetic import generate_corpus
from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.cluster import (
    AppliedDeltaSeqs,
    ShardServer,
    handle_message,
)
from repro.serve.cluster.proto import recv_frame, send_frame
from repro.serve.engine import EngineDraining, SelectionEngine
from repro.serve.store import ItemStore, UnviableTargetError
from repro.serve.wire import BadRequest, failure


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=11)


@pytest.fixture()
def engine(corpus):
    engine = SelectionEngine(ItemStore(corpus), workers=2)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def viable_target(corpus):
    for product in corpus.products:
        if build_instance(corpus, product.product_id, 10, min_reviews=3):
            return product.product_id
    raise AssertionError("toy corpus has no viable target")


class TestHandleMessage:
    def test_select_matches_engine(self, engine, viable_target):
        reply = handle_message(
            engine, {"op": "select", "body": {"target": viable_target}}
        )
        assert reply["status"] == 200
        direct = engine.select(target=viable_target)
        assert reply["payload"]["result"] == direct.as_dict()["result"]

    def test_narrow(self, engine, viable_target):
        reply = handle_message(
            engine, {"op": "narrow", "body": {"target": viable_target, "k": 2}}
        )
        assert reply["status"] == 200
        assert viable_target in reply["payload"]["result"]["core_product_ids"]

    def test_unknown_op(self, engine):
        reply = handle_message(engine, {"op": "explode"})
        assert reply["status"] == 400
        assert "unknown op" in reply["error"]

    def test_missing_body(self, engine):
        reply = handle_message(engine, {"op": "select"})
        assert reply["status"] == 400

    def test_unknown_field_is_400(self, engine):
        reply = handle_message(engine, {"op": "select", "body": {"wat": 1}})
        assert reply["status"] == 400
        assert "unknown fields" in reply["error"]

    def test_unknown_target_is_422(self, engine):
        reply = handle_message(
            engine, {"op": "select", "body": {"target": "NOPE"}}
        )
        assert reply["status"] == 422

    def test_bad_deadline_is_400(self, engine, viable_target):
        reply = handle_message(
            engine,
            {
                "op": "select",
                "body": {"target": viable_target},
                "deadline_ms": -5,
            },
        )
        assert reply["status"] == 400

    def test_expired_deadline_is_503(self, engine, viable_target):
        reply = handle_message(
            engine,
            {
                "op": "select",
                "body": {"target": viable_target, "mu": 0.31459},
                "deadline_ms": 1e-6,
            },
        )
        assert reply["status"] == 503

    def test_ingest_ack_and_duplicate_conflict(self, engine, viable_target):
        record = {
            "review_id": "NEW-W1",
            "product_id": viable_target,
            "rating": 4.0,
            "text": "solid build quality",
            "mentions": [{"aspect": "build", "sentiment": 1}],
        }
        reply = handle_message(engine, {"op": "ingest", "reviews": [record]})
        assert reply["status"] == 200
        assert reply["payload"]["added"] == 1
        dup = handle_message(engine, {"op": "ingest", "reviews": [record]})
        assert dup["status"] == 409

    def test_ingest_requires_review_list(self, engine):
        assert handle_message(engine, {"op": "ingest"})["status"] == 400
        assert (
            handle_message(engine, {"op": "ingest", "reviews": [1]})["status"]
            == 400
        )

    def test_healthz_payload(self, engine):
        reply = handle_message(engine, {"op": "healthz"})
        assert reply["status"] == 200
        assert reply["payload"]["status"] == "ok"
        assert reply["payload"]["corpus_version"] == engine.store.version

    def test_metrics_has_both_renderings(self, engine):
        reply = handle_message(engine, {"op": "metrics"})
        assert reply["status"] == 200
        assert "counters" in reply["payload"]["json"]
        assert "repro_health_state" in reply["payload"]["prometheus"]

    def test_snapshot_without_state_dir_is_409(self, engine):
        assert handle_message(engine, {"op": "snapshot"})["status"] == 409

    def test_ping(self, engine):
        reply = handle_message(engine, {"op": "ping"})
        assert reply == {
            "status": 200,
            "payload": {"version": engine.store.version},
        }

    def test_draining_engine_is_503(self, engine, viable_target):
        engine.drain(0.5)
        reply = handle_message(
            engine, {"op": "select", "body": {"target": viable_target}}
        )
        assert reply["status"] == 503


class TestIngestIdempotence:
    """delta_seq dedup plus the hinted-conflict durable backstop."""

    def _record(self, viable_target, review_id="IDEM-1"):
        return {
            "review_id": review_id,
            "product_id": viable_target,
            "rating": 4.0,
            "text": "sturdy hinge, quiet fan",
            "mentions": [{"aspect": "build", "sentiment": 1}],
        }

    def test_redelivered_delta_seq_is_a_noop_ack(self, engine, viable_target):
        applied = AppliedDeltaSeqs()
        frame = {
            "op": "ingest",
            "reviews": [self._record(viable_target)],
            "delta_seq": 42,
        }
        first = handle_message(engine, frame, applied_seqs=applied)
        assert first["status"] == 200
        assert first["payload"]["added"] == 1
        assert 42 in applied
        again = handle_message(engine, frame, applied_seqs=applied)
        assert again["status"] == 200
        assert again["payload"]["added"] == 0
        assert again["payload"]["idempotent"] is True
        assert again["payload"]["version"] == first["payload"]["version"]

    def test_hinted_conflict_is_noop_but_unhinted_is_409(
        self, engine, viable_target
    ):
        record = self._record(viable_target, review_id="IDEM-2")
        assert (
            handle_message(engine, {"op": "ingest", "reviews": [record]})[
                "status"
            ]
            == 200
        )
        # A fresh AppliedDeltaSeqs models a post-restart worker whose
        # in-memory ledger no longer remembers the seq.
        hinted = handle_message(
            engine,
            {
                "op": "ingest",
                "reviews": [record],
                "hinted": True,
                "delta_seq": 7,
            },
            applied_seqs=AppliedDeltaSeqs(),
        )
        assert hinted["status"] == 200
        assert hinted["payload"]["idempotent"] is True
        plain = handle_message(engine, {"op": "ingest", "reviews": [record]})
        assert plain["status"] == 409

    def test_non_integer_delta_seq_is_400(self, engine, viable_target):
        for bad in (True, "9", 1.5):
            reply = handle_message(
                engine,
                {
                    "op": "ingest",
                    "reviews": [self._record(viable_target)],
                    "delta_seq": bad,
                },
                applied_seqs=AppliedDeltaSeqs(),
            )
            assert reply["status"] == 400, bad
            assert "delta_seq" in reply["error"]

    def test_applied_seqs_bounded_fifo(self):
        applied = AppliedDeltaSeqs(capacity=3)
        for seq in (1, 2, 3, 4):
            applied.add(seq)
        assert 1 not in applied  # evicted
        assert all(seq in applied for seq in (2, 3, 4))
        assert len(applied) == 3
        with pytest.raises(ValueError):
            AppliedDeltaSeqs(capacity=0)


class TestProductState:
    """The gateway's replica-divergence probe op."""

    def test_returns_ordered_review_ids(self, engine, viable_target):
        reply = handle_message(
            engine, {"op": "product_state", "product_id": viable_target}
        )
        assert reply["status"] == 200
        payload = reply["payload"]
        assert payload["product_id"] == viable_target
        expected = [
            r.review_id
            for r in engine.store.corpus.reviews
            if r.product_id == viable_target
        ]
        assert payload["review_ids"] == expected
        assert payload["version"] == engine.store.version

    def test_unknown_product_is_404(self, engine):
        reply = handle_message(
            engine, {"op": "product_state", "product_id": "NOPE"}
        )
        assert reply["status"] == 404

    def test_missing_product_id_is_400(self, engine):
        assert handle_message(engine, {"op": "product_state"})["status"] == 400
        assert (
            handle_message(engine, {"op": "product_state", "product_id": 3})[
                "status"
            ]
            == 400
        )


class TestClassifyError:
    """The mapping mirrors the single-process HTTP layer's taxonomy."""

    def test_statuses(self, engine):
        cases = [
            (BadRequest("nope"), False, 400),
            (TypeError("bad kwarg"), False, 400),
            (UnviableTargetError("thin"), False, 422),
            (Overloaded("full", retry_after=0.25), False, 429),
            (EngineDraining("draining"), False, 503),
            (OSError("disk full"), True, 503),
            (RuntimeError("boom"), False, 500),
        ]
        for exc, ingest, expected in cases:
            reply = failure(
                exc, "ingest" if ingest else "select", engine.jitter
            ).frame()
            assert reply["status"] == expected, exc

    def test_overload_carries_retry_hint_and_reason(self, engine):
        reply = failure(
            Overloaded("full", retry_after=0.25, reason="queue_full"),
            "select",
            engine.jitter,
        ).frame()
        assert reply["retry_after"] == 0.25
        assert reply["extra"] == {"reason": "queue_full"}

    def test_ingest_oserror_is_wal_unavailable(self, engine):
        reply = failure(OSError("no space"), "ingest", engine.jitter).frame()
        assert reply["extra"] == {"reason": "wal_unavailable"}
        # A query-path OSError has no WAL involved: backstop 500.
        assert (
            failure(OSError("x"), "select", engine.jitter).frame()["status"] == 500
        )


class TestShardServer:
    def test_framed_round_trips_over_tcp(self, engine, viable_target):
        server = ShardServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            sock = socket.create_connection(server.server_address, timeout=10)
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["status"] == 200
            send_frame(sock, {"op": "select", "body": {"target": viable_target}})
            reply = recv_frame(sock)
            assert reply["status"] == 200
            assert reply["payload"]["result"]["target"] == viable_target
            # Garbage on the wire drops the connection without killing
            # the server; a fresh connection still works.
            sock.sendall(b"\xff\xff\xff\xff garbage")
            sock.close()
            sock = socket.create_connection(server.server_address, timeout=10)
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["status"] == 200
            sock.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_per_shard_admission_is_injected(self, corpus):
        engine = SelectionEngine(
            ItemStore(corpus),
            workers=2,
            admission=AdmissionController(max_pending=1),
        )
        try:
            assert engine.admission.max_pending == 1
        finally:
            engine.close()
