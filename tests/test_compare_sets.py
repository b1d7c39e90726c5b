"""Tests for the CompaReSetS selector (Problem 1)."""

import numpy as np
import pytest

from repro.core.compare_sets import CompareSetsSelector, select_for_item
from repro.core.objective import compare_sets_objective, item_objective
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space


class TestPaperWorkingExample2:
    """Integer regression reproduces the optimal set of Working Example 2."""

    def test_finds_zero_objective_selection(self, paper_example_instance):
        config = SelectionConfig(max_reviews=3, lam=1.0)
        space = build_space(paper_example_instance, config)
        reviews = paper_example_instance.reviews[0]
        tau = space.opinion_vector(reviews)
        gamma = space.aspect_vector(reviews)
        selection = select_for_item(space, reviews, tau, gamma, config)
        objective = item_objective(
            space, [reviews[j] for j in selection], tau, gamma, config.lam
        )
        assert objective == pytest.approx(0.0, abs=1e-9)
        assert len(selection) <= 3

    def test_m4_also_finds_perfect_set(self, paper_example_instance):
        """With m >= 4 the example's alternative optimum {r1..r4} exists."""
        config = SelectionConfig(max_reviews=4, lam=1.0)
        space = build_space(paper_example_instance, config)
        reviews = paper_example_instance.reviews[0]
        tau = space.opinion_vector(reviews)
        gamma = space.aspect_vector(reviews)
        selection = select_for_item(space, reviews, tau, gamma, config)
        objective = item_objective(
            space, [reviews[j] for j in selection], tau, gamma, config.lam
        )
        assert objective == pytest.approx(0.0, abs=1e-9)


class TestSelector:
    def test_respects_budget(self, instance, config):
        result = CompareSetsSelector().select(instance, config)
        for selection in result.selections:
            assert len(selection) <= config.max_reviews

    def test_deterministic(self, instance, config):
        a = CompareSetsSelector().select(instance, config)
        b = CompareSetsSelector().select(instance, config)
        assert a.selections == b.selections

    def test_nonempty_selections(self, instance, config):
        result = CompareSetsSelector().select(instance, config)
        for selection, reviews in zip(result.selections, instance.reviews):
            if reviews:
                assert selection

    def test_algorithm_name(self, instance, config):
        assert CompareSetsSelector().select(instance, config).algorithm == "CompaReSetS"

    def test_objective_beats_random_on_average(self, instances, config):
        from repro.core.baselines import RandomSelector

        cs_total = 0.0
        random_total = 0.0
        rng = np.random.default_rng(0)
        for inst in instances:
            cs = CompareSetsSelector().select(inst, config)
            rnd = RandomSelector().select(inst, config, rng=rng)
            cs_total += compare_sets_objective(cs, config)
            random_total += compare_sets_objective(rnd, config)
        assert cs_total < random_total

    def test_lambda_zero_ignores_gamma(self, paper_example_instance):
        """With lam=0 the aspect rows vanish: pure opinion matching (CRS)."""
        config = SelectionConfig(max_reviews=3, lam=0.0)
        space = build_space(paper_example_instance, config)
        reviews = paper_example_instance.reviews[0]
        tau = space.opinion_vector(reviews)
        arbitrary_gamma = np.array([0.1, 0.9, 0.4])
        a = select_for_item(space, reviews, tau, arbitrary_gamma, config)
        b = select_for_item(space, reviews, tau, np.zeros(3), config)
        assert a == b

    def test_empty_review_set_yields_empty_selection(self):
        from repro.data.instances import ComparisonInstance
        from repro.data.models import Product

        instance = ComparisonInstance(
            products=(Product(product_id="p", title="T", category="C"),),
            reviews=((),),
        )
        result = CompareSetsSelector().select(instance, SelectionConfig())
        assert result.selections == ((),)
