"""Tests for the Table-5 solver-comparison aggregation."""

import pytest

from repro.core.baselines import RandomSelector
from repro.eval.objective_ratio import compare_hks_solvers


@pytest.fixture()
def results(instances, config, rng):
    selector = RandomSelector()
    return [selector.select(inst, config, rng=rng) for inst in instances]


class TestCompareHksSolvers:
    def test_aggregates(self, results, config):
        comparison = compare_hks_solvers(
            results, config, k=3, time_limit=5.0, backend="bnb"
        )
        assert comparison.k == 3
        assert comparison.num_instances > 0
        assert 0 <= comparison.optimal_percent <= 100

    def test_greedy_never_better_than_exact_when_proven(self, results, config):
        comparison = compare_hks_solvers(
            results, config, k=3, time_limit=30.0, backend="bnb"
        )
        if comparison.optimal_percent == 100.0:
            assert comparison.greedy_ratio <= 1e-9

    def test_random_below_greedy(self, results, config):
        comparison = compare_hks_solvers(
            results, config, k=3, time_limit=5.0, backend="bnb"
        )
        assert comparison.random_ratio <= comparison.greedy_ratio + 1e-9

    def test_skips_small_instances(self, results, config):
        big_k = max(r.instance.num_items for r in results) + 1
        comparison = compare_hks_solvers(
            results, config, k=big_k, time_limit=5.0, backend="bnb"
        )
        assert comparison.num_instances == 0
        assert comparison.optimal_percent == 0.0

    def test_deterministic_given_seed(self, results, config):
        a = compare_hks_solvers(results, config, k=3, time_limit=5.0, backend="bnb", seed=1)
        b = compare_hks_solvers(results, config, k=3, time_limit=5.0, backend="bnb", seed=1)
        assert a.random_objective == b.random_objective
