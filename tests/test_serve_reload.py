"""Reload safety: the artifacts/reload race, validation, and rollback.

The race documented in :mod:`repro.serve.store`: a lookup that starts
before a reload and finishes after it must serve a coherent snapshot —
every array byte-identical to the generation it reports — never a blend
of the old and new corpus.  Immutable generations make this cheap to
guarantee; these tests make it a regression.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.problem import SelectionConfig
from repro.data.corpus import Corpus
from repro.data.synthetic import generate_corpus
from repro.serve.store import (
    CorpusValidationError,
    ItemStore,
    ReloadInProgress,
    corpus_fingerprint,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=3)


@pytest.fixture()
def store(corpus):
    return ItemStore(corpus)


@pytest.fixture()
def config():
    return SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)


def _artifact_bytes(artifacts) -> bytes:
    """A canonical byte serialisation of what a solve reads: Gamma and
    every tau_i from the space, and each item's incidence matrices."""
    space, reviews = artifacts.space, artifacts.instance.reviews
    parts = [artifacts.version.encode(), space.aspect_vector(reviews[0]).tobytes()]
    parts.extend(space.opinion_vector(item).tobytes() for item in reviews)
    for solver in artifacts.solver:
        parts.append(np.ascontiguousarray(solver._opinion).tobytes())
        parts.append(np.ascontiguousarray(solver._aspect).tobytes())
    return b"|".join(parts)


class TestReloadRace:
    def test_concurrent_artifacts_see_exactly_one_generation(
        self, store, corpus, config
    ):
        """Readers racing reload() get byte-identical per-version artifacts."""
        target = store.default_target(10, 3)
        reloads = 20
        readers = 4
        stop = threading.Event()
        observed: dict[str, set[bytes]] = {}
        lock = threading.Lock()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    artifacts = store.artifacts(target, config)
                    blob = _artifact_bytes(artifacts)
                    with lock:
                        observed.setdefault(artifacts.version, set()).add(blob)
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in threads:
            thread.start()
        versions = {store.version}
        for _ in range(reloads):
            versions.add(store.reload(corpus))
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

        assert not errors, errors
        assert observed, "readers observed no artifacts"
        # Every observed version is a real generation...
        assert set(observed) <= versions
        # ...and within one generation every reader saw identical bytes:
        # no lookup ever blended data across a racing reload.
        for version, blobs in observed.items():
            assert len(blobs) == 1, f"generation {version} served mixed bytes"

    def test_raced_lookup_is_marked_stale_by_version(self, store, corpus, config):
        target = store.default_target(10, 3)
        before = store.artifacts(target, config)
        new_version = store.reload(corpus)
        # The pre-reload artifacts stay coherent and usable, but their
        # version no longer matches the store: versioned caches drop them.
        assert before.version != new_version
        assert store.artifacts(target, config).version == new_version


class TestSafeReload:
    def test_valid_corpus_swaps_and_bumps_generation(self, store, corpus):
        version = store.safe_reload(corpus)
        assert version == f"g2-{corpus_fingerprint(corpus)}"
        assert store.version == version

    def test_invalid_corpus_rolls_back(self, store, corpus):
        before = store.version
        empty = Corpus(corpus.name, (), ())
        with pytest.raises(CorpusValidationError, match="no products"):
            store.safe_reload(empty)
        # Rollback means the swap never happened: same generation serving.
        assert store.version == before
        assert store.stats()["products"] == len(corpus.products)

    def test_corpus_without_viable_instance_rolls_back(self, store, corpus):
        before = store.version
        # Keep products but drop every review: no instance can form.
        unservable = Corpus(corpus.name, corpus.products, ())
        with pytest.raises(CorpusValidationError, match="no reviews"):
            store.safe_reload(unservable)
        assert store.version == before

    def test_concurrent_safe_reload_refused_not_queued(self, store, corpus):
        in_validation = threading.Event()
        release = threading.Event()
        original = store.validate_corpus

        def slow_validate(new_corpus, **kwargs):
            in_validation.set()
            release.wait(timeout=10.0)
            return original(new_corpus, **kwargs)

        store.validate_corpus = slow_validate  # type: ignore[method-assign]
        outcome: dict[str, str] = {}

        def first() -> None:
            outcome["version"] = store.safe_reload(corpus)

        worker = threading.Thread(target=first)
        worker.start()
        try:
            assert in_validation.wait(timeout=10.0)
            with pytest.raises(ReloadInProgress):
                store.safe_reload(corpus)
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert outcome["version"] == store.version

    def test_old_generation_serves_during_validation(self, store, corpus, config):
        target = store.default_target(10, 3)
        in_validation = threading.Event()
        release = threading.Event()
        original = store.validate_corpus

        def slow_validate(new_corpus, **kwargs):
            in_validation.set()
            release.wait(timeout=10.0)
            return original(new_corpus, **kwargs)

        store.validate_corpus = slow_validate  # type: ignore[method-assign]
        before = store.version
        worker = threading.Thread(target=lambda: store.safe_reload(corpus))
        worker.start()
        try:
            assert in_validation.wait(timeout=10.0)
            # Mid-validation: lookups still answer from the old generation.
            assert store.artifacts(target, config).version == before
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert store.version != before


class TestValidateCorpus:
    def test_returns_fingerprint(self, store, corpus):
        assert store.validate_corpus(corpus) == corpus_fingerprint(corpus)

    def test_rejects_empty(self, store, corpus):
        with pytest.raises(CorpusValidationError):
            store.validate_corpus(Corpus(corpus.name, (), ()))
