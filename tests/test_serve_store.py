"""Tests for the precomputed ItemStore (versioning, artifacts, sharing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.core.vectors import OpinionScheme, regression_columns
from repro.data.instances import build_instance
from repro.data.synthetic import generate_corpus
from repro.serve.store import (
    ItemStore,
    UnknownTargetError,
    UnviableTargetError,
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


class TestVersioning:
    def test_version_embeds_generation_and_fingerprint(self, store, corpus):
        assert store.version == f"g1-{corpus_fingerprint(corpus)}"

    def test_reload_bumps_generation_and_invalidates(self, store, corpus, config):
        target = store.default_target(10, 3)
        before = store.artifacts(target, config)
        assert store.stats()["cached_artifacts"] == 1
        version = store.reload(corpus)
        assert version == f"g2-{corpus_fingerprint(corpus)}"
        assert store.stats()["cached_artifacts"] == 0
        after = store.artifacts(target, config)
        assert after.version != before.version
        # Same corpus content -> identical artifacts, fresh objects.
        assert after.instance == before.instance
        assert after.space is not before.space
        assert np.array_equal(
            after.space.aspect_vector(after.instance.reviews[0]),
            before.space.aspect_vector(before.instance.reviews[0]),
        )
        for ours, theirs in zip(after.solver, before.solver, strict=True):
            assert ours is not theirs
            assert np.array_equal(ours._opinion, theirs._opinion)
            assert np.array_equal(ours._aspect, theirs._aspect)

    def test_distinct_corpora_fingerprint_differently(self, corpus):
        other = generate_corpus("Toy", scale=0.3, seed=4)
        assert corpus_fingerprint(corpus) != corpus_fingerprint(other)


class TestArtifacts:
    def test_unknown_target_raises(self, store, config):
        with pytest.raises(UnknownTargetError, match="GHOST"):
            store.artifacts("GHOST", config)

    def test_unviable_target_raises(self, store, corpus, config):
        # An impossible review floor makes every target unviable.
        target = corpus.products[0].product_id
        with pytest.raises(UnviableTargetError):
            store.artifacts(target, config, min_reviews=10_000)

    def test_artifacts_are_shared_across_lookups(self, store, config):
        target = store.default_target(10, 3)
        first = store.artifacts(target, config)
        second = store.artifacts(target, config)
        assert first is second  # one artifact object (and one VectorSpace)

    def test_m_and_mu_do_not_split_artifacts(self, store, config):
        target = store.default_target(10, 3)
        store.artifacts(target, config)
        store.artifacts(target, config.with_(max_reviews=7, mu=2.0))
        assert store.stats()["cached_artifacts"] == 1
        # lambda and scheme DO shape the artifacts.
        store.artifacts(target, config.with_(lam=2.0))
        store.artifacts(target, config.with_(scheme=OpinionScheme.THREE_POLARITY))
        assert store.stats()["cached_artifacts"] == 3

    def test_matches_selector_code_path(self, store, corpus, config):
        """Satellite check: store artifacts equal the selectors' own
        vectors/matrices exactly — one shared construction path."""
        target = store.default_target(10, 3)
        artifacts = store.artifacts(target, config)

        instance = build_instance(corpus, target, max_comparisons=10, min_reviews=3)
        space = build_space(instance, config)
        gamma = space.aspect_vector(instance.reviews[0])
        assert artifacts.instance == instance
        served = artifacts.space
        assert np.array_equal(served.aspect_vector(instance.reviews[0]), gamma)
        for item_index, reviews in enumerate(instance.reviews):
            tau = space.opinion_vector(reviews)
            assert np.array_equal(served.opinion_vector(reviews), tau)
            solver = artifacts.solver[item_index]
            stacked = np.vstack([solver._opinion, config.lam * solver._aspect])
            columns = regression_columns(space, reviews, config.lam)
            assert np.array_equal(stacked, columns)

    def test_comparative_ids(self, store, config):
        target = store.default_target(10, 3)
        artifacts = store.artifacts(target, config)
        assert target not in artifacts.comparative_ids
        assert len(artifacts.comparative_ids) == artifacts.instance.num_items - 1


class TestDefaultTarget:
    def test_matches_first_viable_product(self, store, corpus):
        target = store.default_target(10, 3)
        for product in corpus.products:
            instance = build_instance(
                corpus, product.product_id, max_comparisons=10, min_reviews=3
            )
            if instance is not None:
                assert target == product.product_id
                return
        pytest.fail("corpus has no viable target at all")

    def test_no_viable_target_raises(self, store):
        with pytest.raises(UnviableTargetError):
            store.default_target(10, 10_000)


class TestRegressionColumns:
    def test_sync_blocks_stack_mu_scaled_aspects(self, store, config):
        target = store.default_target(10, 3)
        artifacts = store.artifacts(target, config)
        space = artifacts.space
        reviews = artifacts.instance.reviews[0]
        base = regression_columns(space, reviews, config.lam)
        stacked = regression_columns(
            space, reviews, config.lam, mu=0.5, sync_blocks=2
        )
        aspect = space.aspect_matrix(reviews)
        assert stacked.shape[0] == base.shape[0] + 2 * aspect.shape[0]
        assert np.array_equal(stacked[: base.shape[0]], base)
        assert np.array_equal(stacked[base.shape[0]:], np.vstack([0.5 * aspect] * 2))

    def test_negative_sync_blocks_rejected(self, store, config):
        target = store.default_target(10, 3)
        artifacts = store.artifacts(target, config)
        with pytest.raises(ValueError):
            regression_columns(
                artifacts.space, artifacts.instance.reviews[0], 1.0, sync_blocks=-1
            )
