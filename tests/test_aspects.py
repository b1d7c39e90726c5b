"""Tests for frequency-based aspect mining."""

import pytest

from repro.data.models import Review
from repro.text.aspects import (
    aspect_index,
    candidate_tokens,
    mine_aspects,
)


def review(review_id: str, text: str, rating: float) -> Review:
    return Review(
        review_id=review_id,
        product_id="p1",
        reviewer_id="u1",
        rating=rating,
        text=text,
    )


def planted_reviews() -> list[Review]:
    """'battery' correlates positively with rating, 'shipping' negatively."""
    reviews = []
    for i in range(10):
        reviews.append(review(f"hi{i}", "the battery lasts long, battery impressed me", 5.0))
        reviews.append(review(f"lo{i}", "the shipping was slow and the shipping box dented", 1.0))
        reviews.append(review(f"mid{i}", "the screen and the case arrived", 3.0))
    return reviews


class TestCandidateTokens:
    def test_removes_stopwords_and_opinion_words(self):
        tokens = candidate_tokens("The battery is great and the screen is terrible")
        assert "batteri" in tokens  # stemmed
        assert "screen" in tokens
        assert "great" not in tokens
        assert "the" not in tokens

    def test_stems(self):
        assert "batteri" in candidate_tokens("batteries everywhere")

    def test_digits_removed(self):
        assert candidate_tokens("1080 pixels") == ["pixel"]


class TestMineAspects:
    def test_planted_aspects_found(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=10)
        stems = vocabulary.stems
        assert "batteri" in stems
        assert "ship" in stems

    def test_correlation_signs(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=10)
        by_stem = {t.stem: t for t in vocabulary.terms}
        assert by_stem["batteri"].rating_correlation > 0
        assert by_stem["ship"].rating_correlation < 0

    def test_sorted_by_absolute_correlation(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=10)
        correlations = [abs(t.rating_correlation) for t in vocabulary.terms]
        assert correlations == sorted(correlations, reverse=True)

    def test_keep_limits_size(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=2)
        assert len(vocabulary) == 2

    def test_min_document_frequency(self):
        reviews = planted_reviews() + [review("rare", "the quux device", 3.0)]
        vocabulary = mine_aspects(reviews, candidate_pool=50, keep=50, min_document_frequency=2)
        assert "quux" not in vocabulary.stems

    def test_empty_input(self):
        assert len(mine_aspects([])) == 0

    def test_surface_form_is_most_frequent(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=10)
        assert vocabulary.surface_of("batteri") == "battery"

    def test_surface_of_unknown_raises(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=5)
        with pytest.raises(KeyError):
            vocabulary.surface_of("nonexistent")

    def test_contains_uses_stemming(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=10)
        assert "batteries" in vocabulary

    def test_synthetic_corpus_recovery(self, cellphone_corpus):
        """Mining the synthetic corpus recovers its dominant aspect terms."""
        vocabulary = mine_aspects(
            list(cellphone_corpus.reviews)[:300], candidate_pool=300, keep=120
        )
        stems = vocabulary.stems
        recovered = sum(
            1 for planted in ("batteri", "screen", "charger", "price") if planted in stems
        )
        assert recovered >= 2


class TestAspectIndex:
    def test_from_vocabulary(self):
        vocabulary = mine_aspects(planted_reviews(), candidate_pool=50, keep=5)
        index = aspect_index(vocabulary)
        assert sorted(index.values()) == list(range(len(vocabulary)))

    def test_from_plain_list(self):
        assert aspect_index(["a", "b"]) == {"a": 0, "b": 1}
