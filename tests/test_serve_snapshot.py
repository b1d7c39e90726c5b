"""Tests for generation snapshots and the durable-open recovery path."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.problem import SelectionConfig
from repro.data.io import save_corpus
from repro.data.models import Review
from repro.data.synthetic import generate_corpus
from repro.serve.snapshot import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotManager,
    open_durable_store,
)
from repro.serve.store import ItemStore
from repro.serve.wal import review_record


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=3)


@pytest.fixture(scope="module")
def corpus_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.jsonl"
    save_corpus(corpus, path)
    return path


def _delta_review(n: int, product_id: str) -> Review:
    return Review(
        review_id=f"delta-{n}",
        product_id=product_id,
        reviewer_id=f"u{n}",
        rating=4.0,
        text=f"delta review {n} with a usable aspect mention",
        mentions=(),
    )


class TestSaveLoad:
    def test_restore_is_byte_identical(self, corpus, tmp_path):
        store = ItemStore(corpus)
        config = SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)
        target = store.default_target(10, 3)
        before = store.artifacts(target, config)

        manager = SnapshotManager(tmp_path / "snapshots")
        info = manager.save(store, wal_seq=0)
        assert info.version == store.version
        assert info.artifacts == 1

        restored, manifest = manager.load_snapshot(info.path)
        assert restored.version == store.version
        assert manifest["_restored_artifacts"] == 1
        after = restored.artifacts(target, config)
        assert after.instance == before.instance
        assert np.array_equal(after.gamma, before.gamma)
        for tau_a, tau_b in zip(after.taus, before.taus):
            assert np.array_equal(tau_a, tau_b)

    def test_restored_chain_epochs_match(self, corpus, tmp_path):
        store = ItemStore(corpus)
        product = corpus.products[0].product_id
        store.apply_delta([_delta_review(1, product)])
        manager = SnapshotManager(tmp_path / "snapshots")
        info = manager.save(store, wal_seq=1)
        restored, _ = manager.load_snapshot(info.path)
        assert restored.version == store.version
        assert restored.chain_state() == store.chain_state()

    def test_prune_keeps_newest(self, corpus, tmp_path):
        store = ItemStore(corpus)
        manager = SnapshotManager(tmp_path / "snapshots", keep=2)
        product = corpus.products[0].product_id
        for n in range(1, 4):
            store.apply_delta([_delta_review(n, product)])
            manager.save(store, wal_seq=n)
        snapshots = manager.list_snapshots()
        assert len(snapshots) == 2
        # Newest-first load gets the latest generation.
        restored, _ = manager.load_snapshot(snapshots[-1])
        assert restored.version == store.version

    def test_corrupt_payload_raises(self, corpus, tmp_path):
        store = ItemStore(corpus)
        manager = SnapshotManager(tmp_path / "snapshots")
        info = manager.save(store, wal_seq=0)
        blob = info.path / "corpus.pkl"
        blob.write_bytes(blob.read_bytes()[:-4] + b"\x00\x00\x00\x00")
        with pytest.raises(SnapshotCorruptError):
            manager.load_snapshot(info.path)

    def test_unsupported_format_raises(self, corpus, tmp_path):
        store = ItemStore(corpus)
        manager = SnapshotManager(tmp_path / "snapshots")
        info = manager.save(store, wal_seq=0)
        manifest_path = info.path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptError):
            manager.load_snapshot(info.path)


class TestOpenDurableStore:
    def test_cold_open_ingests_corpus(self, corpus, corpus_path, tmp_path):
        store, wal, manager, info = open_durable_store(
            tmp_path / "state", corpus_path=corpus_path
        )
        assert info.mode == "cold"
        assert info.version == store.version
        assert info.replayed_deltas == 0
        wal.close()

    def test_no_snapshot_no_corpus_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            open_durable_store(tmp_path / "state")

    def test_cold_plus_wal_replay(self, corpus, corpus_path, tmp_path):
        state = tmp_path / "state"
        store, wal, _, _ = open_durable_store(state, corpus_path=corpus_path)
        product = corpus.products[0].product_id
        review = _delta_review(1, product)
        wal.append({"kind": "delta", "reviews": [review_record(review)]})
        expected = store.apply_delta([review]).version
        wal.close()

        recovered, wal2, _, info = open_durable_store(
            state, corpus_path=corpus_path
        )
        assert info.mode == "cold+wal"
        assert info.replayed_deltas == 1
        assert info.replayed_reviews == 1
        assert recovered.version == expected
        wal2.close()

    def test_snapshot_plus_wal_recovery_is_byte_identical(
        self, corpus, corpus_path, tmp_path
    ):
        """The headline invariant: snapshot + WAL tail reproduces the
        exact pre-crash version string, delta by delta."""
        state = tmp_path / "state"
        store, wal, manager, _ = open_durable_store(
            state, corpus_path=corpus_path
        )
        product = corpus.products[0].product_id
        # Delta 1 lands in a snapshot, deltas 2-3 stay in the WAL tail.
        review = _delta_review(1, product)
        seq = wal.append({"kind": "delta", "reviews": [review_record(review)]})
        store.apply_delta([review])
        manager.save(store, wal_seq=seq)
        wal.compact(seq)
        for n in (2, 3):
            review = _delta_review(n, product)
            wal.append({"kind": "delta", "reviews": [review_record(review)]})
            store.apply_delta([review])
        expected = store.version
        wal.close()

        recovered, wal2, _, info = open_durable_store(
            state, corpus_path=corpus_path
        )
        assert info.mode == "snapshot+wal"
        assert info.replayed_deltas == 2
        assert recovered.version == expected
        assert recovered.chain_state() == store.chain_state()
        wal2.close()

    def test_corrupt_snapshot_falls_back_to_older(
        self, corpus, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        store, wal, manager, _ = open_durable_store(
            state, corpus_path=corpus_path
        )
        product = corpus.products[0].product_id
        manager.save(store, wal_seq=0)
        review = _delta_review(1, product)
        seq = wal.append({"kind": "delta", "reviews": [review_record(review)]})
        store.apply_delta([review])
        newest = manager.save(store, wal_seq=seq)
        expected = store.version
        wal.close()

        # Damage the newest snapshot; the older one plus the WAL tail
        # must still reproduce the same generation.
        (newest.path / "corpus.pkl").write_bytes(b"not a pickle")
        recovered, wal2, _, info = open_durable_store(
            state, corpus_path=corpus_path
        )
        assert info.snapshots_skipped == 1
        assert info.mode == "snapshot+wal"
        assert recovered.version == expected
        wal2.close()
