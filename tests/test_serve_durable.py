"""End-to-end durability: WAL-backed ingest, recovery, tier, HTTP codes.

Everything here runs against real engines over real state directories;
the HTTP tests boot a live server the same way test_serve_http does.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.data.io import save_corpus
from repro.data.synthetic import generate_corpus
from repro.serve.cachetier import InMemoryBackend, SharedCacheTier
from repro.serve.engine import SelectionEngine, build_durable_engine
from repro.serve.http import make_server
from repro.serve.snapshot import SnapshotError
from repro.serve.store import DeltaValidationError, ItemStore


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=3)


@pytest.fixture(scope="module")
def corpus_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.jsonl"
    save_corpus(corpus, path)
    return path


def _record(n: int, product_id: str) -> dict:
    return {
        "review_id": f"delta-{n}",
        "product_id": product_id,
        "reviewer_id": f"u{n}",
        "rating": 4.0,
        "text": f"delta review {n} praising the battery",
        "mentions": [],
    }


class TestDurableIngest:
    def test_ack_carries_wal_seq_and_new_version(self, corpus_path, tmp_path):
        engine = build_durable_engine(
            tmp_path / "state", corpus_path=corpus_path, workers=1
        )
        try:
            product = engine.store.corpus.products[0].product_id
            ack = engine.ingest_reviews([_record(1, product)])
            assert ack["wal_seq"] == 1
            assert ack["added"] == 1
            assert ack["affected"] == [product]
            assert ack["version"] == engine.store.version
            assert ack["version"].startswith("g2-")
        finally:
            engine.close()

    def test_restart_reproduces_acked_state_byte_identically(
        self, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        engine = build_durable_engine(
            state, corpus_path=corpus_path, workers=1
        )
        product = engine.store.corpus.products[0].product_id
        acked = [
            engine.ingest_reviews([_record(n, product)])["version"]
            for n in range(1, 4)
        ]
        engine.close()

        recovered = build_durable_engine(
            state, corpus_path=corpus_path, workers=1, restarts=1
        )
        try:
            assert recovered.store.version == acked[-1]
            assert recovered.recovery.mode == "cold+wal"
            assert recovered.recovery.replayed_deltas == 3
            assert recovered.recovery.restarts == 1
        finally:
            recovered.close()

    def test_snapshot_compacts_wal_and_speeds_recovery(
        self, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        engine = build_durable_engine(
            state, corpus_path=corpus_path, workers=1
        )
        product = engine.store.corpus.products[0].product_id
        for n in range(1, 3):
            engine.ingest_reviews([_record(n, product)])
        info = engine.snapshot()
        assert info.wal_seq == 2
        assert engine.wal.last_seq == 2 and len(engine.wal) == 0  # compacted
        engine.ingest_reviews([_record(3, product)])
        expected = engine.store.version
        engine.close()

        recovered = build_durable_engine(state, corpus_path=corpus_path)
        try:
            assert recovered.recovery.mode == "snapshot+wal"
            assert recovered.recovery.replayed_deltas == 1  # only the tail
            assert recovered.store.version == expected
        finally:
            recovered.close()

    def test_auto_snapshot_every_n_deltas(self, corpus_path, tmp_path):
        engine = build_durable_engine(
            tmp_path / "state",
            corpus_path=corpus_path,
            snapshot_every=2,
            workers=1,
        )
        try:
            product = engine.store.corpus.products[0].product_id
            engine.ingest_reviews([_record(1, product)])
            assert engine.snapshots.list_snapshots() == []
            engine.ingest_reviews([_record(2, product)])
            assert len(engine.snapshots.list_snapshots()) == 1
        finally:
            engine.close()

    def test_duplicate_review_is_a_conflict(self, corpus_path, tmp_path):
        engine = build_durable_engine(
            tmp_path / "state", corpus_path=corpus_path, workers=1
        )
        try:
            product = engine.store.corpus.products[0].product_id
            engine.ingest_reviews([_record(1, product)])
            with pytest.raises(DeltaValidationError) as excinfo:
                engine.ingest_reviews([_record(1, product)])
            assert excinfo.value.conflict
            # The rejected batch never reached the WAL.
            assert engine.wal.last_seq == 1
        finally:
            engine.close()


def _tree_bytes(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestAckedDeltasSurviveCompaction:
    """Recovered == live across WAL compaction and damaged snapshots."""

    def _engine(self, state, corpus_path):
        return build_durable_engine(
            state, corpus_path=corpus_path, snapshot_every=4, workers=1
        )

    def _ingest(self, engine, numbers) -> list[dict]:
        product = engine.store.corpus.products[0].product_id
        return [engine.ingest_reviews([_record(n, product)]) for n in numbers]

    def test_restart_over_emptied_wal_keeps_counting(self, corpus_path, tmp_path):
        state = tmp_path / "state"
        engine = self._engine(state, corpus_path)
        self._ingest(engine, range(1, 5))
        assert len(engine.wal) == 0  # the auto-snapshot at 4 compacted all
        engine.close()

        engine = self._engine(state, corpus_path)
        assert engine.recovery.mode == "snapshot"
        acks = self._ingest(engine, (5, 6))
        assert [ack["wal_seq"] for ack in acks] == [5, 6]
        live = engine.store.stats()
        engine.close()

        engine = self._engine(state, corpus_path)
        try:
            assert engine.recovery.mode == "snapshot+wal"
            assert engine.recovery.replayed_deltas == 2
            assert engine.store.stats()["version"] == live["version"]
            assert engine.store.stats()["reviews"] == live["reviews"]
        finally:
            engine.close()

    def _ten_deltas(self, state, corpus_path):
        engine = self._engine(state, corpus_path)
        self._ingest(engine, range(1, 11))
        snapshots = engine.snapshots.list_snapshots()
        assert len(snapshots) == 2  # written at the 4th and 8th deltas
        # The WAL keeps the tail of the older snapshot (watermark 4).
        assert [seq for seq, _ in engine.wal.replay()] == list(range(5, 11))
        live = engine.store.stats()
        engine.close()
        return snapshots, live

    def test_damaged_newest_snapshot_recovers_live_state(
        self, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        snapshots, live = self._ten_deltas(state, corpus_path)
        (snapshots[-1] / "corpus.pkl").write_bytes(b"not a pickle")
        engine = self._engine(state, corpus_path)
        try:
            assert engine.recovery.snapshots_skipped == 1
            assert engine.recovery.mode == "snapshot+wal"
            assert engine.recovery.replayed_deltas == 6
            assert engine.store.stats()["version"] == live["version"]
            assert engine.store.stats()["reviews"] == live["reviews"]
        finally:
            engine.close()

    def test_every_snapshot_damaged_refuses_untouched(self, corpus_path, tmp_path):
        state = tmp_path / "state"
        snapshots, _ = self._ten_deltas(state, corpus_path)
        for snapshot in snapshots:
            (snapshot / "corpus.pkl").write_bytes(b"not a pickle")
        before = _tree_bytes(state)
        with pytest.raises(SnapshotError, match="no snapshot is readable"):
            self._engine(state, corpus_path)
        assert _tree_bytes(state) == before

    def test_damaged_snapshot_after_reload_refuses_untouched(
        self, corpus, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        engine = self._engine(state, corpus_path)
        self._ingest(engine, range(1, 6))
        engine.reload_corpus(corpus)
        # The reload's snapshot dropped the previous corpus's snapshot,
        # so no fallback can cross the reload, and emptied the WAL.
        [snapshot] = engine.snapshots.list_snapshots()
        assert len(engine.wal) == 0
        self._ingest(engine, (6, 7))
        engine.close()
        (snapshot / "corpus.pkl").write_bytes(b"not a pickle")
        before = _tree_bytes(state)
        with pytest.raises(SnapshotError):
            self._engine(state, corpus_path)
        assert _tree_bytes(state) == before


class TestSelectiveInvalidation:
    def test_delta_outside_instance_leaves_entry_warm(self, corpus):
        """Generation-chained invalidation: a delta against a product the
        cached instance does not contain leaves the entry servable."""
        from repro.core.problem import SelectionConfig

        store = ItemStore(corpus)
        engine = SelectionEngine(
            store, workers=1, tier=SharedCacheTier(InMemoryBackend())
        )
        try:
            first = engine.select(m=3)
            target = first.result["target"]
            assert first.provenance.cache == "miss"
            artifacts = store.artifacts(
                target, SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)
            )
            instance_ids = {target} | set(artifacts.comparative_ids)
            outside = next(
                (
                    p.product_id
                    for p in corpus.products
                    if p.product_id not in instance_ids
                ),
                None,
            )
            if outside is None:
                pytest.skip("every corpus product is inside the instance")
            ack = engine.ingest_reviews([_record(800, outside)])
            assert ack["cache_evicted"] == 0
            again = engine.select(m=3)
            assert again.provenance.cache == "hit"
            assert again.result == first.result
        finally:
            engine.close()

    def test_delta_on_instance_product_evicts(self, corpus):
        store = ItemStore(corpus)
        backend = InMemoryBackend()
        engine = SelectionEngine(
            store, workers=1, tier=SharedCacheTier(backend)
        )
        try:
            first = engine.select(m=3)
            target = first.result["target"]
            assert engine.select(m=3).provenance.cache == "hit"
            ack = engine.ingest_reviews([_record(900, target)])
            assert ack["cache_evicted"] >= 1
            after = engine.select(m=3)
            # New generation: the old entry is unreachable and the
            # request re-solves against the delta'd corpus.
            assert after.provenance.cache == "miss"
            assert after.provenance.corpus_version == ack["version"]
        finally:
            engine.close()


class TestSharedTierAcrossRestarts:
    def test_file_tier_survives_engine_restart(self, corpus_path, tmp_path):
        state = tmp_path / "state"
        engine = build_durable_engine(
            state, corpus_path=corpus_path, cache_tier="file", workers=1
        )
        first = engine.select(m=3)
        assert first.provenance.cache == "miss"
        assert engine.tier.stats().puts == 1
        engine.close()

        recovered = build_durable_engine(
            state, corpus_path=corpus_path, cache_tier="file", workers=1
        )
        try:
            again = recovered.select(m=3)
            # Local LRU died with the process; the shared tier answers.
            assert again.provenance.cache == "tier"
            assert again.result == first.result
            assert recovered.tier.stats().hits == 1
        finally:
            recovered.close()


@pytest.fixture(scope="module")
def served(corpus_path, tmp_path_factory):
    """(base_url, engine) for a live durable server."""
    state = tmp_path_factory.mktemp("served-state")
    engine = build_durable_engine(
        state, corpus_path=corpus_path, cache_tier="memory", workers=2
    )
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", engine
    server.shutdown()
    server.server_close()
    engine.close()


def _post(url: str, body: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post_error(url: str, body: dict):
    try:
        _post(url, body)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())
    pytest.fail("expected an HTTP error")


class TestIngestHTTP:
    def test_ack_then_duplicate_conflict(self, served):
        base, engine = served
        product = engine.store.corpus.products[-1].product_id
        status, ack = _post(
            f"{base}/v1/ingest", {"reviews": [_record(100, product)]}
        )
        assert status == 200
        assert ack["wal_seq"] >= 1
        code, body = _post_error(
            f"{base}/v1/ingest", {"reviews": [_record(100, product)]}
        )
        assert code == 409
        assert "delta-100" in body["error"]

    def test_malformed_batches_are_400(self, served):
        base, _ = served
        for bad in (
            {},
            {"reviews": []},
            {"reviews": "not-a-list"},
            {"reviews": [{"product_id": "P1"}]},  # no review_id
            {"reviews": [{"review_id": "x", "product_id": "NO-SUCH"}]},
            {"reviews": [_record(0, "P1")], "extra": 1},
        ):
            code, _body = _post_error(f"{base}/v1/ingest", bad)
            assert code == 400, bad

    def test_healthz_reports_recovery_provenance(self, served):
        base, engine = served
        with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["recovery"] == engine.recovery.as_dict()
        assert payload["recovery"]["mode"] == "cold"

    def test_snapshot_endpoint(self, served):
        base, engine = served
        status, body = _post(f"{base}/v1/snapshot", {})
        assert status == 200
        assert body["version"] == engine.store.version
        assert (engine.snapshots.root / body["path"].split("/")[-1]).exists()

    def test_reload_of_corrupt_corpus_is_409_not_500(self, served, tmp_path):
        """Satellite regression: a truncated/corrupt corpus file must be
        a structured validation error, never a raw 500, and the previous
        generation keeps serving."""
        base, engine = served
        before = engine.store.version
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"truncated": ')
        code, body = _post_error(f"{base}/v1/reload", {"path": str(corrupt)})
        assert code == 409
        assert body["version"] == before
        assert engine.store.version == before

    def test_reload_of_missing_corpus_is_409_not_500(self, served, tmp_path):
        base, engine = served
        code, _body = _post_error(
            f"{base}/v1/reload", {"path": str(tmp_path / "nowhere.jsonl")}
        )
        assert code == 409
        assert engine.store.version  # still serving

    def test_wal_outage_is_503_with_reason(self, served):
        base, engine = served
        product = engine.store.corpus.products[0].product_id
        before = engine.store.version
        import errno

        def out_of_space(num_bytes: int) -> None:
            raise OSError(errno.ENOSPC, "no space left on device")

        engine.wal.before_write = out_of_space
        try:
            code, body = _post_error(
                f"{base}/v1/ingest", {"reviews": [_record(777, product)]}
            )
        finally:
            engine.wal.before_write = None
        assert code == 503
        assert body["reason"] == "wal_unavailable"
        assert "retry_after" in body
        # Nothing applied, nothing acked: the version is unchanged and
        # the same batch succeeds once the disk heals.
        assert engine.store.version == before
        status, _ack = _post(
            f"{base}/v1/ingest", {"reviews": [_record(777, product)]}
        )
        assert status == 200
