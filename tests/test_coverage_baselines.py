"""Tests for the related-work coverage selectors (§5.1 baselines)."""

from repro.core.coverage_baselines import (
    ComprehensiveSelector,
    PolarityCoverageSelector,
    _greedy_set_cover,
)
from repro.core.problem import SelectionConfig
from repro.core.selection import make_selector
from repro.data.instances import ComparisonInstance
from repro.data.models import Product
from tests.conftest import make_review


def single_item_instance(reviews):
    product = Product(product_id="p1", title="T", category="C")
    return ComparisonInstance(products=(product,), reviews=(tuple(reviews),))


class TestGreedySetCover:
    def test_covers_universe_when_possible(self):
        sets = [{1, 2}, {2, 3}, {4}]
        chosen = _greedy_set_cover({1, 2, 3, 4}, sets, budget=3)
        covered = set().union(*(sets[i] for i in chosen))
        assert covered == {1, 2, 3, 4}

    def test_prefers_large_sets(self):
        sets = [{1}, {1, 2, 3}, {2}]
        assert _greedy_set_cover({1, 2, 3}, sets, budget=1) == (1,)

    def test_budget_respected(self):
        sets = [{i} for i in range(10)]
        chosen = _greedy_set_cover(set(range(10)), sets, budget=4)
        assert len(chosen) == 4

    def test_stops_when_nothing_helps(self):
        sets = [{1}, {1}]
        chosen = _greedy_set_cover({1, 2}, sets, budget=5)
        assert len(chosen) == 1  # element 2 is uncoverable

    def test_empty_universe(self):
        assert _greedy_set_cover(set(), [{1}], budget=3) == ()


class TestComprehensiveSelector:
    def test_covers_all_aspects(self):
        reviews = [
            make_review("r1", "p1", [("battery", 1)]),
            make_review("r2", "p1", [("screen", -1)]),
            make_review("r3", "p1", [("battery", 1), ("screen", 1)]),
        ]
        instance = single_item_instance(reviews)
        result = ComprehensiveSelector().select(instance, SelectionConfig(max_reviews=2))
        covered = set()
        for review in result.selected_reviews(0):
            covered |= review.aspects
        assert covered == {"battery", "screen"}

    def test_minimal_cover_preferred(self):
        reviews = [
            make_review("r1", "p1", [("a", 1)]),
            make_review("r2", "p1", [("b", 1)]),
            make_review("r3", "p1", [("a", 1), ("b", 1)]),
        ]
        instance = single_item_instance(reviews)
        result = ComprehensiveSelector().select(instance, SelectionConfig(max_reviews=3))
        assert result.selections[0] == (2,)

    def test_registered(self):
        assert make_selector("Comprehensive").name == "Comprehensive"

    def test_runs_on_real_instance(self, instance, config):
        result = ComprehensiveSelector().select(instance, config)
        assert all(len(s) <= config.max_reviews for s in result.selections)


class TestPolarityCoverageSelector:
    def test_covers_both_polarities(self):
        reviews = [
            make_review("r1", "p1", [("battery", 1)]),
            make_review("r2", "p1", [("battery", -1)]),
            make_review("r3", "p1", [("battery", 1)]),
        ]
        instance = single_item_instance(reviews)
        result = PolarityCoverageSelector().select(
            instance, SelectionConfig(max_reviews=2)
        )
        signs = {
            review.sentiment_for("battery")
            for review in result.selected_reviews(0)
        }
        assert signs == {1, -1}

    def test_neutral_mentions_not_required(self):
        reviews = [make_review("r1", "p1", [("battery", 0)])]
        instance = single_item_instance(reviews)
        result = PolarityCoverageSelector().select(
            instance, SelectionConfig(max_reviews=2)
        )
        # No signed pairs exist, so nothing needs covering.
        assert result.selections[0] == ()

    def test_registered(self):
        assert make_selector("PolarityCoverage").name == "PolarityCoverage"

    def test_deterministic(self, instance, config):
        selector = PolarityCoverageSelector()
        assert (
            selector.select(instance, config).selections
            == selector.select(instance, config).selections
        )
