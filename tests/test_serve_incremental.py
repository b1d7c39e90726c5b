"""Incremental artifact updates: delta patches must equal cold builds.

The serving contract for ``POST /v1/ingest`` is byte-identity: a store
that absorbed N review deltas must hold exactly the artifacts a fresh
store built from the final corpus would hold — same dedup group order,
same Gram bytes, same tau/Gamma, same selections.  These tests drive the
bordered-Gram patch path (``GramBlock.extended`` /
``SolverArtifacts.extended`` / ``ItemStore._carry_over``) against cold
rebuilds, including the cases that must *refuse* to patch.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.omp_kernel import GramBlock, StageTimer, solve_item_many
from repro.core.problem import SelectionConfig
from repro.core.vectors import OpinionScheme
from repro.data.corpus import Corpus
from repro.data.models import AspectMention, Product, Review
from repro.data.synthetic import generate_corpus
from repro.serve.store import DeltaOutcome, ItemStore, corpus_fingerprint, delta_fingerprint

from tests.conftest import make_review


def _assert_blocks_equal(patched: GramBlock, cold: GramBlock) -> None:
    assert patched.groups == cold.groups
    assert np.array_equal(patched.capacities, cold.capacities)
    assert np.array_equal(patched.column_group, cold.column_group)
    assert patched._dedup_matrix.tobytes() == cold._dedup_matrix.tobytes()
    assert patched.unique_opinion.tobytes() == cold.unique_opinion.tobytes()
    assert patched.unique_aspect.tobytes() == cold.unique_aspect.tobytes()
    assert patched.gram_op.tobytes() == cold.gram_op.tobytes()
    assert patched.gram_asp.tobytes() == cold.gram_asp.tobytes()
    assert patched.nonnegative() == cold.nonnegative()


def _targets(artifacts):
    """Gamma and every tau_i, computed from the space as a solve does."""
    space, reviews = artifacts.space, artifacts.instance.reviews
    return space.aspect_vector(reviews[0]), [
        space.opinion_vector(item) for item in reviews
    ]


def _assert_artifacts_equal(patched, cold) -> None:
    gamma, taus = _targets(patched)
    cold_gamma, cold_taus = _targets(cold)
    assert gamma.tobytes() == cold_gamma.tobytes()
    assert len(taus) == len(cold_taus)
    for left, right in zip(taus, cold_taus):
        assert left.tobytes() == right.tobytes()
    assert len(patched.solver) == len(cold.solver)
    for ours, theirs in zip(patched.solver, cold.solver):
        assert ours._opinion.tobytes() == theirs._opinion.tobytes()
        assert ours._aspect.tobytes() == theirs._aspect.tobytes()
        _assert_blocks_equal(ours.base_block(), theirs.base_block())


class TestDeltaConvergence:
    """Property: seed build + deltas in order == cold build, byte-for-byte."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_partitions_converge(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=50), label="seed")
        corpus = generate_corpus("Toy", scale=0.3, seed=seed)
        rng = np.random.default_rng(seed + 1)

        # Hold out per-product suffixes (keeping >= 1 review each) so the
        # seed corpus is a pure per-product prefix of the final corpus.
        deltas: list[Review] = []
        held = set()
        for product in corpus.products:
            reviews = corpus.reviews_of(product.product_id)
            if len(reviews) > 1 and rng.random() < 0.6:
                keep = int(rng.integers(1, len(reviews)))
                for review in reviews[keep:]:
                    deltas.append(review)
                    held.add(review.review_id)
        if not deltas:
            return
        seed_reviews = [r for r in corpus.reviews if r.review_id not in held]
        seed_corpus = Corpus(corpus.name, corpus.products, seed_reviews)

        # Contiguous cuts preserve per-product order, which is what real
        # ingest guarantees (appends are chronological per product).
        cuts = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=len(deltas) - 1),
                max_size=min(3, len(deltas) - 1),
            )
            if len(deltas) > 1
            else st.just(set()),
            label="cuts",
        )
        bounds = [0, *sorted(cuts), len(deltas)]
        batches = [
            deltas[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi
        ]

        store = ItemStore(seed_corpus)
        target = store.default_target(10, 1)
        configs = {
            scheme: SelectionConfig(max_reviews=3, lam=1.0, mu=0.1, scheme=scheme)
            for scheme in OpinionScheme
        }
        for config in configs.values():
            store.artifacts(target, config, min_reviews=1)
        for batch in batches:
            store.apply_delta(batch)

        # Deltas append at the end of the global sequence, but every
        # per-product sequence — the order artifacts are built from —
        # must come out identical to the cold corpus.
        for product in corpus.products:
            assert [
                r.review_id for r in store.corpus.reviews_of(product.product_id)
            ] == [r.review_id for r in corpus.reviews_of(product.product_id)]
        cold_store = ItemStore(corpus)
        for scheme, config in configs.items():
            patched = store.artifacts(target, config, min_reviews=1)
            cold = cold_store.artifacts(target, config, min_reviews=1)
            _assert_artifacts_equal(patched, cold)
            gamma, taus = _targets(patched)
            cold_gamma, cold_taus = _targets(cold)
            for index in range(len(patched.solver)):
                [warm] = solve_item_many(
                    patched.solver[index], [(taus[index], gamma, config)]
                )
                [fresh] = solve_item_many(
                    cold.solver[index], [(cold_taus[index], cold_gamma, config)]
                )
                assert warm.selected == fresh.selected, scheme
                assert warm.objective == fresh.objective, scheme


class TestTargetedCases:
    @pytest.fixture()
    def corpus(self):
        return generate_corpus("Toy", scale=0.3, seed=3)

    @pytest.fixture()
    def config(self):
        return SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)

    def _delta_for(self, store, target, config, *, index=1):
        """A new review duplicating an existing one of instance item ``index``."""
        art = store.artifacts(target, config)
        pid = art.instance.products[index].product_id
        sample = store.corpus.reviews_of(pid)[0]
        return pid, Review(
            review_id="delta-dup-1",
            product_id=pid,
            reviewer_id="delta-user",
            rating=4.0,
            text="duplicate delta",
            mentions=sample.mentions,
        )

    def test_duplicate_column_delta_joins_group(self, corpus, config):
        store = ItemStore(corpus)
        target = store.default_target(10, 3)
        pid, dup = self._delta_for(store, target, config)
        before = store.artifacts(target, config)
        index = [p.product_id for p in before.instance.products].index(pid)
        groups_before = before.solver[index].base_block().num_groups
        outcome = store.apply_delta([dup])
        assert outcome.patched == 1 and outcome.rebuilt == 0
        patched = store.artifacts(target, config)
        # The duplicated column joins an existing dedup group rather than
        # opening a new one — exactly what a cold rebuild would produce.
        assert patched.solver[index].base_block().num_groups == groups_before
        _assert_artifacts_equal(patched, ItemStore(store.corpus).artifacts(target, config))

    def test_reader_memoising_during_carry_over(self, corpus, config, monkeypatch):
        """A read that memoises into the live generation while a delta's
        carry-over walks it leaves the delta intact."""
        store = ItemStore(corpus)
        target = store.default_target(10, 3)
        _, dup = self._delta_for(store, target, config)
        other = dataclasses.replace(config, lam=2.0)
        delegate = ItemStore._patched_artifacts
        reads = []

        def read_first(self, *args, **kwargs):
            if not reads:
                # The successor is not published yet, so this memoises a
                # new key into the generation being carried over.
                reads.append(store.artifacts(target, other))
            return delegate(self, *args, **kwargs)

        monkeypatch.setattr(ItemStore, "_patched_artifacts", read_first)
        outcome = store.apply_delta([dup])
        assert reads and outcome.patched == 1
        _assert_artifacts_equal(
            store.artifacts(target, config),
            ItemStore(store.corpus).artifacts(target, config),
        )

    def test_memo_and_identity_carry_for_untouched_items(self, corpus, config):
        store = ItemStore(corpus)
        target = store.default_target(10, 3)
        pid, dup = self._delta_for(store, target, config)
        before = store.artifacts(target, config)
        index = [p.product_id for p in before.instance.products].index(pid)
        store.apply_delta([dup])
        patched = store.artifacts(target, config)
        for position, solver in enumerate(patched.solver):
            if position == index:
                # Extended item: new object, cleared memo (capacities may
                # shift apportionment even for an unchanged target).
                assert solver is not before.solver[position]
                assert not solver._solve_cache
            else:
                # Untouched items share the very same SolverArtifacts, so
                # their solve memos survive the delta.
                assert solver is before.solver[position]

    def test_min_reviews_crossing_forces_rebuild(self, config):
        # Candidate "P2" sits below min_reviews until the delta arrives,
        # so the delta changes the comparative set: patching is illegal
        # and the store must rebuild cold.
        products = [
            Product(product_id="P1", title="target", category="toys", also_bought=("P2",)),
            Product(product_id="P2", title="cand", category="toys", also_bought=("P1",)),
        ]
        reviews = [
            make_review(f"r{i}", "P1", [("screen", 1), ("battery", -1)])
            for i in range(3)
        ] + [
            make_review("c1", "P2", [("screen", 1)]),
            make_review("c2", "P2", [("battery", 1)]),
        ]
        corpus = Corpus("Tiny", products, reviews)
        store = ItemStore(corpus)
        with pytest.raises(Exception):
            store.artifacts("P1", config, min_reviews=3)
        # Make P1 viable via a 3-review candidate P2 after the delta.
        delta = make_review("c3", "P2", [("screen", -1)])
        outcome = store.apply_delta([delta])
        assert outcome.patched == 0
        art = store.artifacts("P1", config, min_reviews=3)
        assert [p.product_id for p in art.instance.products] == ["P1", "P2"]
        _assert_artifacts_equal(
            art, ItemStore(store.corpus).artifacts("P1", config, min_reviews=3)
        )

    def test_membership_change_counts_rebuilt(self, config):
        products = [
            Product(product_id="P1", title="target", category="toys", also_bought=("P2", "P3")),
            Product(product_id="P2", title="cand", category="toys", also_bought=()),
            Product(product_id="P3", title="late", category="toys", also_bought=()),
        ]
        reviews = (
            [make_review(f"r{i}", "P1", [("screen", 1)]) for i in range(3)]
            + [make_review(f"c{i}", "P2", [("screen", 1)]) for i in range(3)]
            + [make_review(f"d{i}", "P3", [("screen", -1)]) for i in range(2)]
        )
        store = ItemStore(Corpus("Tiny", products, reviews))
        store.artifacts("P1", config, min_reviews=3)
        # Third review pushes P3 over min_reviews: comparative set of P1
        # changes from (P2,) to (P2, P3) => rebuild, not patch.
        outcome = store.apply_delta([make_review("d2", "P3", [("screen", 1)])])
        assert outcome.rebuilt == 1 and outcome.patched == 0
        art = store.artifacts("P1", config, min_reviews=3)
        assert [p.product_id for p in art.instance.products] == ["P1", "P2", "P3"]

    def test_new_aspect_forces_rebuild(self, corpus, config):
        store = ItemStore(corpus)
        target = store.default_target(10, 3)
        art = store.artifacts(target, config)
        pid = art.instance.products[1].product_id
        novel = Review(
            review_id="delta-novel",
            product_id=pid,
            reviewer_id="delta-user",
            rating=4.0,
            text="a brand new aspect",
            mentions=(AspectMention(aspect="zz-unheard-of-aspect", sentiment=1),),
        )
        outcome = store.apply_delta([novel])
        assert outcome.rebuilt == 1 and outcome.patched == 0
        rebuilt = store.artifacts(target, config)
        assert "zz-unheard-of-aspect" in rebuilt.space.aspects
        _assert_artifacts_equal(rebuilt, ItemStore(store.corpus).artifacts(target, config))

    def test_verify_mismatch_falls_back_to_cold(self, corpus, config, monkeypatch, caplog):
        store = ItemStore(corpus)
        store.patch_verify = True
        target = store.default_target(10, 3)
        pid, dup = self._delta_for(store, target, config)
        store.artifacts(target, config)

        real = ItemStore._patched_artifacts

        def corrupting(self, new, artifacts, instance, deltas):
            patched = real(self, new, artifacts, instance, deltas)
            if patched is None:
                return None
            broken = copy.copy(patched.solver[0])
            broken._opinion = broken._opinion + 1.0
            return dataclasses.replace(
                patched, solver=(broken, *patched.solver[1:])
            )

        monkeypatch.setattr(ItemStore, "_patched_artifacts", corrupting)
        with caplog.at_level("ERROR", logger="repro.serve.store"):
            outcome = store.apply_delta([dup])
        assert outcome.verify_failures == 1
        assert outcome.rebuilt == 1 and outcome.patched == 0
        assert any("diverged from cold build" in r.message for r in caplog.records)
        served = store.artifacts(target, config)
        _assert_artifacts_equal(served, ItemStore(store.corpus).artifacts(target, config))

    def test_verify_clean_patch_passes(self, corpus, config):
        store = ItemStore(corpus)
        store.patch_verify = True
        target = store.default_target(10, 3)
        pid, dup = self._delta_for(store, target, config)
        store.artifacts(target, config)
        outcome = store.apply_delta([dup])
        assert outcome.patched == 1 and outcome.verify_failures == 0


class TestSignedZeroColumns:
    def test_negative_zero_delta_column_joins_positive_zero_group(self):
        # PR 4's signed-zero fix: np.round keeps -0.0, so dedup adds +0.0
        # before keying columns.  The incremental reconciliation must do
        # the same, or a -0.0 delta column would split a group that a cold
        # rebuild merges.
        opinion = np.array([[1.0, 1.0], [0.0, 0.0]])
        aspect = np.array([[0.0, 0.0], [1.0, 1.0]])
        timer = StageTimer()
        base = GramBlock(opinion, aspect, 1.0, 0.0, False, timer)
        assert base.num_groups == 1
        full_opinion = np.hstack([opinion, np.array([[1.0], [-0.0]])])
        full_aspect = np.hstack([aspect, np.array([[-0.0], [1.0]])])
        patched = base.extended(full_opinion, full_aspect, 2, timer)
        cold = GramBlock(full_opinion, full_aspect, 1.0, 0.0, False, timer)
        assert patched.num_groups == cold.num_groups == 1
        _assert_blocks_equal(patched, cold)

    def test_tiny_negative_noise_matches_cold_grouping(self):
        opinion = np.array([[1.0, 1.0 + 1e-15], [1e-15, 0.0]])
        aspect = np.array([[0.5, 0.5]])
        timer = StageTimer()
        base = GramBlock(opinion, aspect, 1.0, 0.0, False, timer)
        full_opinion = np.hstack([opinion, np.array([[1.0], [-1e-15]])])
        full_aspect = np.hstack([aspect, np.array([[0.5]])])
        patched = base.extended(full_opinion, full_aspect, 2, timer)
        cold = GramBlock(full_opinion, full_aspect, 1.0, 0.0, False, timer)
        _assert_blocks_equal(patched, cold)


class TestLineageFingerprints:
    def test_delta_version_is_chained_not_rehashed(self):
        corpus = generate_corpus("Toy", scale=0.3, seed=3)
        store = ItemStore(corpus)
        v1 = store.version
        pid = corpus.products[0].product_id
        delta = [
            Review(
                review_id="chain-1",
                product_id=pid,
                reviewer_id="u",
                rating=4.0,
                text="x",
                mentions=(),
            )
        ]
        outcome = store.apply_delta(delta)
        assert outcome.version == f"g2-{delta_fingerprint(v1, delta)}"
        # The chained fingerprint deliberately differs from a full rehash
        # of the appended corpus (that rehash is the O(corpus) cost the
        # chain removes); full loads keep the content-hash scheme.
        assert outcome.version != f"g2-{corpus_fingerprint(store.corpus)}"

    def test_replayed_deltas_reproduce_version_strings(self):
        corpus = generate_corpus("Toy", scale=0.3, seed=3)
        pids = [p.product_id for p in corpus.products]
        batches = [
            [
                Review(
                    review_id=f"replay-{batch}-{i}",
                    product_id=pids[(batch + i) % len(pids)],
                    reviewer_id="u",
                    rating=3.0,
                    text="x",
                    mentions=(),
                )
                for i in range(2)
            ]
            for batch in range(3)
        ]
        first = ItemStore(generate_corpus("Toy", scale=0.3, seed=3))
        second = ItemStore(generate_corpus("Toy", scale=0.3, seed=3))
        for batch in batches:
            left = first.apply_delta(batch)
            right = second.apply_delta(batch)
            assert left.version == right.version
        assert first.chain_state() == second.chain_state()

    def test_wal_replay_yields_identical_version(self, tmp_path):
        from repro.serve.engine import build_durable_engine

        corpus_path = tmp_path / "corpus.jsonl"
        from repro.data.io import save_corpus

        corpus = generate_corpus("Toy", scale=0.3, seed=3)
        save_corpus(corpus, corpus_path)
        state = tmp_path / "state"
        engine = build_durable_engine(
            state, corpus_path=str(corpus_path), snapshot_every=0
        )
        pid = corpus.products[0].product_id
        acked = []
        for i in range(3):
            ack = engine.ingest_reviews(
                [
                    {
                        "review_id": f"wal-{i}",
                        "product_id": pid,
                        "reviewer_id": "u",
                        "rating": 4.0,
                        "text": "x",
                        "mentions": [],
                    }
                ]
            )
            acked.append(ack["version"])
            assert "artifacts" in ack and "stage_ms" in ack
        engine.close()
        recovered = build_durable_engine(
            state, corpus_path=str(corpus_path), snapshot_every=0
        )
        assert recovered.store.version == acked[-1]
        recovered.close()


class TestDeltaOutcomeCompat:
    def test_defaults_keep_old_construction_working(self):
        outcome = DeltaOutcome(version="g2-abc", affected=("P1",), added=1)
        assert outcome.patched == 0
        assert outcome.rebuilt == 0
        assert outcome.verify_failures == 0
        assert outcome.patch_ms == 0.0
