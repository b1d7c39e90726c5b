"""Tests for generation snapshots and the durable-open recovery path."""

from __future__ import annotations

import io
import json
import pickle

import numpy as np
import pytest

from repro.core.problem import SelectionConfig
from repro.core.vectors import regression_columns
from repro.data.io import save_corpus
from repro.data.models import Review
from repro.data.synthetic import generate_corpus
from repro.resilience.atomicio import checksum
from repro.serve.snapshot import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotManager,
    open_durable_store,
)
from repro.serve.store import ItemStore
from repro.serve.wal import review_record

from tests.test_serve_incremental import _assert_artifacts_equal


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
        _assert_artifacts_equal(after, before)

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


def _save_format_1(store, root, *, wal_seq: int):
    """Write a snapshot as format 1 did: ``gamma``, ``tau_i`` and
    ``col_i`` beside the solver arrays, in the same manifest layout."""
    loads, lineage, epochs = store.chain_state()
    corpus = store.corpus
    path = root / f"snap-{loads:08d}"
    path.mkdir(parents=True)
    blob = pickle.dumps(
        (corpus.name, tuple(corpus.products), tuple(corpus.reviews)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    (path / "corpus.pkl").write_bytes(blob)
    files = {"corpus.pkl": checksum(blob)}
    entries = []
    for index, (key, artifacts) in enumerate(store.export_artifacts()):
        space, reviews = artifacts.space, artifacts.instance.reviews
        target, max_comparisons, min_reviews, scheme, lam = key
        arrays = {"gamma": space.aspect_vector(reviews[0])}
        for item, solver in enumerate(artifacts.solver):
            arrays[f"tau_{item}"] = space.opinion_vector(reviews[item])
            arrays[f"col_{item}"] = regression_columns(space, reviews[item], lam)
            arrays[f"op_{item}"] = solver._opinion
            arrays[f"asp_{item}"] = solver._aspect
            arrays[f"gop_{item}"] = solver.base_block().gram_op
            arrays[f"gasp_{item}"] = solver.base_block().gram_asp
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        name = f"artifact-{index:03d}.npz"
        (path / name).write_bytes(buffer.getvalue())
        files[name] = checksum(buffer.getvalue())
        entries.append({
            "file": name, "target": target, "max_comparisons": max_comparisons,
            "min_reviews": min_reviews, "scheme": scheme, "lam": lam,
            "items": len(reviews),
        })
    manifest = {
        "format": 1, "version": store.version, "loads": loads,
        "lineage": lineage, "epochs": epochs, "wal_seq": wal_seq,
        "checksums": files, "artifacts": entries,
        "products": len(corpus.products), "reviews": len(corpus.reviews),
    }
    (path / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestFormat1Snapshot:
    def test_restores_live_state_and_replays_its_tail(
        self, corpus, corpus_path, tmp_path
    ):
        state = tmp_path / "state"
        store, wal, _, _ = open_durable_store(state, corpus_path=corpus_path)
        config = SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)
        target = store.default_target(10, 3)
        store.artifacts(target, config)
        for n in range(1, 4):
            review = _delta_review(n, target)
            wal.append({"kind": "delta", "reviews": [review_record(review)]})
            store.apply_delta([review])
            if n == 1:
                _save_format_1(store, state / "snapshots", wal_seq=1)
                wal.compact(1)
        live = store.artifacts(target, config)
        wal.close()

        recovered, wal2, _, info = open_durable_store(
            state, corpus_path=corpus_path
        )
        assert info.mode == "snapshot+wal"
        assert info.restored_artifacts == 1
        assert info.replayed_deltas == 2
        assert recovered.version == store.version
        assert recovered.chain_state() == store.chain_state()
        after = recovered.artifacts(target, config)
        assert after.chain == live.chain
        _assert_artifacts_equal(after, live)
        wal2.close()


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
