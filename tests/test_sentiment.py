"""Tests for window-based aspect-opinion extraction."""

from dataclasses import replace

import pytest

from repro.text.aspects import AspectTerm, AspectVocabulary, mine_aspects
from repro.text.sentiment import (
    ExtractionConfig,
    agreement_with_ground_truth,
    annotate_corpus,
    annotate_review,
    extract_mentions,
)
from tests.conftest import make_review


def vocabulary_of(*stems: str) -> AspectVocabulary:
    return AspectVocabulary(
        terms=tuple(
            AspectTerm(stem=s, surface=s, document_frequency=5, rating_correlation=0.5)
            for s in stems
        )
    )


VOCAB = vocabulary_of("batteri", "screen", "price")


class TestExtractMentions:
    def test_positive_opinion(self):
        mentions = extract_mentions("The battery is great.", VOCAB)
        assert len(mentions) == 1
        assert mentions[0].aspect == "batteri"
        assert mentions[0].sentiment == 1

    def test_negative_opinion(self):
        mentions = extract_mentions("The battery is terrible.", VOCAB)
        assert mentions[0].sentiment == -1

    def test_negation_flips(self):
        mentions = extract_mentions("The battery is not great.", VOCAB)
        assert mentions[0].sentiment == -1

    def test_double_negation(self):
        mentions = extract_mentions("The battery is not not great.", VOCAB)
        assert mentions[0].sentiment == 1

    def test_intensifier_strengthens(self):
        plain = extract_mentions("The battery is great.", VOCAB)
        strong = extract_mentions("The battery is extremely great.", VOCAB)
        assert strong[0].strength > plain[0].strength

    def test_neutral_mention_without_opinion(self):
        mentions = extract_mentions("The battery arrived in a box.", VOCAB)
        assert mentions[0].sentiment == 0

    def test_opinion_outside_window_ignored(self):
        config = ExtractionConfig(attribution_window=2)
        text = "The battery sat on the shelf for days and weeks until broken."
        mentions = extract_mentions(text, config=config, vocabulary=VOCAB)
        assert mentions[0].sentiment == 0

    def test_nearest_aspect_wins(self):
        mentions = extract_mentions("The battery is great but the screen is terrible.", VOCAB)
        by_aspect = {m.aspect: m.sentiment for m in mentions}
        assert by_aspect == {"batteri": 1, "screen": -1}

    def test_multiple_sentences_aggregate(self):
        text = "The battery is great. The battery is terrible. The battery is awful."
        mentions = extract_mentions(text, VOCAB)
        assert mentions[0].sentiment == -1  # net negative

    def test_no_aspects_no_mentions(self):
        assert extract_mentions("Totally unrelated text.", VOCAB) == ()

    def test_stemmed_matching(self):
        mentions = extract_mentions("The batteries are great.", VOCAB)
        assert mentions[0].aspect == "batteri"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExtractionConfig(attribution_window=0)
        with pytest.raises(ValueError):
            ExtractionConfig(negation_window=-1)


class TestAnnotate:
    def test_annotate_review_replaces_mentions(self):
        review = make_review("r1", "p1", [("old", 1)], text="The screen is great.")
        annotated = annotate_review(review, VOCAB)
        assert {m.aspect for m in annotated.mentions} == {"screen"}
        assert annotated.review_id == review.review_id

    def test_annotate_corpus_preserves_structure(self, cellphone_corpus):
        vocabulary = mine_aspects(
            list(cellphone_corpus.reviews)[:200], candidate_pool=150, keep=40
        )
        annotated = annotate_corpus(cellphone_corpus, vocabulary)
        assert len(annotated.reviews) == len(cellphone_corpus.reviews)
        assert annotated.name == cellphone_corpus.name


class TestAgreement:
    def test_perfect_agreement(self):
        truth = [make_review("r1", "p1", [("batteri", 1)])]
        assert agreement_with_ground_truth(truth, truth) == 1.0

    def test_zero_agreement(self):
        truth = [make_review("r1", "p1", [("batteri", 1)])]
        extracted = [make_review("r1", "p1", [("batteri", -1)])]
        assert agreement_with_ground_truth(extracted, truth) == 0.0

    def test_empty(self):
        assert agreement_with_ground_truth([], []) == 0.0

    def test_pipeline_recovers_synthetic_ground_truth(self, cellphone_corpus):
        """End-to-end: mine + extract recovers planted signed mentions.

        The text renders aspects through synonym surfaces, so extracted
        stems are canonicalised via the profile's alias map before
        comparison.  0.4 is the calibrated floor for this lexicon-based
        extractor on the synthetic text.
        """
        from repro.data.synthetic import default_profiles, surface_stem_aliases

        reviews = list(cellphone_corpus.reviews)[:250]
        stripped = [replace(r, mentions=()) for r in reviews]
        vocabulary = mine_aspects(stripped, candidate_pool=300, keep=120)
        annotated = [annotate_review(r, vocabulary) for r in stripped]
        aliases = surface_stem_aliases(default_profiles(0.35)["Cellphone"])
        agreement = agreement_with_ground_truth(annotated, reviews, aliases)
        assert agreement > 0.4
