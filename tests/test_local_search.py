"""Tests for the swap-based TargetHkS local search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.local_search import improve_by_swaps, solve_greedy_with_local_search
from repro.graph.target_hks import HksSolution, solve_brute_force, solve_greedy
from tests.test_ilp import random_weights


class TestImproveBySwaps:
    def test_never_degrades(self):
        for seed in range(8):
            weights = random_weights(10, seed)
            greedy = solve_greedy(weights, 4)
            improved = improve_by_swaps(weights, greedy)
            assert improved.weight >= greedy.weight - 1e-9

    def test_keeps_target(self):
        weights = random_weights(9, 3)
        improved = improve_by_swaps(weights, solve_greedy(weights, 4, target=2), target=2)
        assert 2 in improved.selected
        assert len(improved.selected) == 4

    def test_requires_target_in_solution(self):
        weights = random_weights(5, 0)
        bogus = HksSolution(selected=(1, 2), weight=0.0, algorithm="x")
        with pytest.raises(ValueError, match="target"):
            improve_by_swaps(weights, bogus, target=0)

    def test_fixes_a_deliberately_bad_start(self):
        weights = random_weights(10, 1)
        worst = min(
            (
                HksSolution(
                    selected=(0, a, b),
                    weight=float(weights[0, a] + weights[0, b] + weights[a, b]),
                    algorithm="bad",
                )
                for a in range(1, 9)
                for b in range(a + 1, 10)
            ),
            key=lambda s: s.weight,
        )
        improved = improve_by_swaps(weights, worst)
        optimum = solve_brute_force(weights, 3)
        assert improved.weight > worst.weight
        # 1-swap local optimum is near the true optimum on these graphs.
        assert improved.weight >= 0.9 * optimum.weight

    def test_weight_reported_consistently(self):
        weights = random_weights(8, 5)
        improved = improve_by_swaps(weights, solve_greedy(weights, 4))
        from repro.graph.ilp import subset_weight

        assert improved.weight == pytest.approx(
            subset_weight(weights, improved.selected)
        )


class TestGreedyWithLocalSearch:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5000), st.integers(5, 9), st.integers(2, 4))
    def test_at_least_greedy_never_above_optimum(self, seed, n, k):
        k = min(k, n)
        weights = random_weights(n, seed)
        greedy = solve_greedy(weights, k)
        refined = solve_greedy_with_local_search(weights, k)
        optimum = solve_brute_force(weights, k)
        assert greedy.weight - 1e-9 <= refined.weight <= optimum.weight + 1e-9

    def test_algorithm_label(self):
        weights = random_weights(6, 0)
        refined = solve_greedy_with_local_search(weights, 3)
        assert refined.algorithm.endswith("+LocalSearch")
