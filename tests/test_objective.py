"""Tests for the exact objective evaluators (Eq. 1, Eq. 3, Eq. 5, d_ij)."""

import pytest

from repro.core.distance import squared_l2
from repro.core.objective import (
    compare_sets_objective,
    compare_sets_plus_objective,
    item_objective,
    pairwise_item_distance,
)
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.core.baselines import RandomSelector


@pytest.fixture()
def random_result(instance, config, rng):
    return RandomSelector().select(instance, config, rng=rng)


class TestItemObjective:
    def test_zero_when_selection_reproduces_targets(self, paper_example_instance):
        config = SelectionConfig(max_reviews=3)
        space = build_space(paper_example_instance, config)
        reviews = paper_example_instance.reviews[0]
        tau = space.opinion_vector(reviews)
        gamma = space.aspect_vector(reviews)
        subset = [reviews[4], reviews[5], reviews[6]]
        assert item_objective(space, subset, tau, gamma, 1.0) == pytest.approx(0.0)

    def test_lambda_scaling(self, paper_example_instance):
        config = SelectionConfig(max_reviews=3)
        space = build_space(paper_example_instance, config)
        reviews = paper_example_instance.reviews[0]
        tau = space.opinion_vector(reviews)
        gamma = space.aspect_vector(reviews)
        subset = [reviews[0]]
        base = item_objective(space, subset, tau, gamma, 0.0)
        scaled = item_objective(space, subset, tau, gamma, 2.0)
        phi = space.aspect_vector(subset)
        assert scaled == pytest.approx(base + 4.0 * squared_l2(gamma, phi))


class TestCompareSetsObjective:
    def test_decomposes_over_items(self, random_result, config):
        space = build_space(random_result.instance, config)
        gamma = space.aspect_vector(random_result.instance.reviews[0])
        manual = 0.0
        for i in range(random_result.instance.num_items):
            tau = space.opinion_vector(random_result.instance.reviews[i])
            manual += item_objective(
                space, list(random_result.selected_reviews(i)), tau, gamma, config.lam
            )
        assert compare_sets_objective(random_result, config) == pytest.approx(manual)


class TestCompareSetsPlusObjective:
    def test_mu_zero_equals_eq1(self, random_result, config):
        flat = config.with_(mu=0.0)
        assert compare_sets_plus_objective(random_result, flat) == pytest.approx(
            compare_sets_objective(random_result, flat)
        )

    def test_pairwise_term_added(self, random_result, config):
        space = build_space(random_result.instance, config)
        phis = [
            space.aspect_vector(random_result.selected_reviews(i))
            for i in range(random_result.instance.num_items)
        ]
        pairwise = sum(
            squared_l2(phis[i], phis[j])
            for i in range(len(phis) - 1)
            for j in range(i + 1, len(phis))
        )
        expected = compare_sets_objective(random_result, config) + config.mu**2 * pairwise
        assert compare_sets_plus_objective(random_result, config) == pytest.approx(expected)


class TestPairwiseItemDistance:
    def test_symmetric(self, random_result, config):
        space = build_space(random_result.instance, config)
        instance = random_result.instance
        gamma = space.aspect_vector(instance.reviews[0])
        tau_0 = space.opinion_vector(instance.reviews[0])
        tau_1 = space.opinion_vector(instance.reviews[1])
        s0 = random_result.selected_reviews(0)
        s1 = random_result.selected_reviews(1)
        d_01 = pairwise_item_distance(space, s0, s1, tau_0, tau_1, gamma, config)
        d_10 = pairwise_item_distance(space, s1, s0, tau_1, tau_0, gamma, config)
        assert d_01 == pytest.approx(d_10)

    def test_non_negative(self, random_result, config):
        space = build_space(random_result.instance, config)
        instance = random_result.instance
        gamma = space.aspect_vector(instance.reviews[0])
        taus = [space.opinion_vector(r) for r in instance.reviews]
        n = instance.num_items
        for i in range(n - 1):
            for j in range(i + 1, n):
                d = pairwise_item_distance(
                    space,
                    random_result.selected_reviews(i),
                    random_result.selected_reviews(j),
                    taus[i],
                    taus[j],
                    gamma,
                    config,
                )
                assert d >= 0.0
