"""Tests for the exact TargetHkS solvers (HiGHS MILP + branch and bound)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import ilp
from repro.graph.ilp import (
    BranchAndBoundSolver,
    MilpBackendSolver,
    enumerate_optimum,
    greedy_incumbent,
    subset_weight,
)
from repro.graph.target_hks import solve_brute_force, solve_greedy
from repro.resilience.deadline import Deadline


def random_weights(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    distances = rng.uniform(0, 10, (n, n))
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0)
    weights = distances.max() - distances
    np.fill_diagonal(weights, 0)
    return weights


@st.composite
def exact_instances(draw, max_n: int = 12):
    """A symmetric zero-diagonal graph with n <= max_n, a target and a k.

    Weights are uniform floats, small integers (many exact ties), all
    equal, or all zero.
    """
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["uniform", "small-int", "all-equal", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        raw = rng.uniform(0.0, 10.0, (n, n))
    elif kind == "small-int":
        raw = rng.integers(0, 4, (n, n)).astype(float)
    else:
        raw = np.full((n, n), 0.0 if kind == "zero" else 2.5)
    weights = np.triu(raw, 1)
    weights = weights + weights.T
    return weights, draw(st.integers(1, n)), draw(st.integers(0, n - 1))


class TestSubsetWeight:
    def test_pair(self):
        weights = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert subset_weight(weights, (0, 1)) == 3.0

    def test_singleton_and_empty(self):
        weights = random_weights(4, 0)
        assert subset_weight(weights, (2,)) == 0.0
        assert subset_weight(weights, ()) == 0.0

    def test_triangle(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 1.0
        weights[0, 2] = weights[2, 0] = 2.0
        weights[1, 2] = weights[2, 1] = 4.0
        assert subset_weight(weights, (0, 1, 2)) == 7.0

    def test_canonical_order_whatever_the_input_order(self):
        """Sorted subset, pairs in lexicographic order, summed left to right."""
        weights = random_weights(9, 4) * np.pi
        subset = (7, 2, 5, 0, 8)
        ordered = sorted(subset)
        expected = 0.0
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                expected += float(weights[ordered[a], ordered[b]])
        assert subset_weight(weights, subset).hex() == expected.hex()
        assert subset_weight(weights, ordered).hex() == expected.hex()

    @pytest.mark.parametrize("seed", [0, 4, 9])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_every_solver_reports_the_canonical_weight(self, monkeypatch, seed, k):
        # On these graphs a running gain sum misses the canonical bits.
        weights = random_weights(10, seed) * np.e
        solutions = [
            BranchAndBoundSolver(time_limit=10).solve(weights, k, target=3),
            solve_greedy(weights, k, target=3),
            solve_brute_force(weights, k, target=3),
        ]
        if k == 3:
            solutions.append(MilpBackendSolver(time_limit=10).solve(weights, k, 3))
        monkeypatch.setattr(ilp, "ENUMERATION_LIMIT", 0)
        solutions.append(BranchAndBoundSolver(time_limit=10).solve(weights, k, 3))
        for solution in solutions:
            canonical = subset_weight(weights, solution.selected)
            assert solution.weight.hex() == canonical.hex()


class TestValidation:
    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_bad_k(self, solver_cls):
        with pytest.raises(ValueError, match="k must be"):
            solver_cls(time_limit=5).solve(random_weights(4, 0), k=9)

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_bad_target(self, solver_cls):
        with pytest.raises(ValueError, match="target"):
            solver_cls(time_limit=5).solve(random_weights(4, 0), k=2, target=7)

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_asymmetric_rejected(self, solver_cls):
        weights = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solver_cls(time_limit=5).solve(weights, k=2)

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, solver_cls, bad):
        weights = random_weights(4, 0)
        weights[1, 2] = weights[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            solver_cls(time_limit=5).solve(weights, k=2)

    def test_bad_time_limit(self):
        with pytest.raises(ValueError):
            MilpBackendSolver(time_limit=0)
        with pytest.raises(ValueError):
            BranchAndBoundSolver(time_limit=-1)


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("backend_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_matches_brute_force(self, seed, k, backend_cls):
        weights = random_weights(9, seed)
        expected = solve_brute_force(weights, k)
        solution = backend_cls(time_limit=30).solve(weights, k)
        assert solution.weight == pytest.approx(expected.weight, abs=1e-6)
        assert solution.proven_optimal
        assert 0 in solution.selected
        assert len(solution.selected) == k

    @pytest.mark.parametrize("backend_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_non_default_target(self, backend_cls):
        weights = random_weights(7, 3)
        expected = solve_brute_force(weights, 3, target=4)
        solution = backend_cls(time_limit=30).solve(weights, 3, target=4)
        assert solution.weight == pytest.approx(expected.weight, abs=1e-6)
        assert 4 in solution.selected

    @pytest.mark.parametrize("backend_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_k_equals_n(self, backend_cls):
        weights = random_weights(5, 1)
        solution = backend_cls(time_limit=10).solve(weights, 5)
        assert sorted(solution.selected) == list(range(5))

    @pytest.mark.parametrize("backend_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_k_one(self, backend_cls):
        weights = random_weights(5, 1)
        solution = backend_cls(time_limit=10).solve(weights, 1)
        assert solution.selected == (0,)
        assert solution.weight == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 8), st.integers(2, 4))
    def test_property_equivalence(self, seed, n, k):
        weights = random_weights(n, seed)
        expected = solve_brute_force(weights, min(k, n))
        bnb = BranchAndBoundSolver(time_limit=30).solve(weights, min(k, n))
        assert bnb.weight == pytest.approx(expected.weight, abs=1e-6)


class TestEnumeration:
    """The bnb stage's enumeration below ``ENUMERATION_LIMIT`` subsets."""

    @settings(max_examples=200, deadline=None)
    @given(exact_instances())
    def test_equals_brute_force_bit_for_bit(self, instance):
        weights, k, target = instance
        solution = BranchAndBoundSolver(time_limit=30).solve(weights, k, target)
        expected = solve_brute_force(weights, k, target)
        assert solution.proven_optimal
        assert solution.selected == expected.selected
        assert solution.weight.hex() == expected.weight.hex()

    @settings(max_examples=60, deadline=None)
    @given(exact_instances())
    def test_depth_first_search_reaches_the_same_weight(self, instance):
        weights, k, target = instance
        expected = solve_brute_force(weights, k, target)
        original = ilp.ENUMERATION_LIMIT
        ilp.ENUMERATION_LIMIT = 0  # every graph goes to the DFS
        try:
            solution = BranchAndBoundSolver(time_limit=30).solve(weights, k, target)
        finally:
            ilp.ENUMERATION_LIMIT = original
        assert solution.proven_optimal
        assert target in solution.selected and len(solution.selected) == k
        assert solution.weight == pytest.approx(expected.weight, rel=1e-9, abs=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(exact_instances(max_n=9))
    def test_milp_reaches_the_same_weight(self, instance):
        weights, k, target = instance
        expected = solve_brute_force(weights, k, target)
        solution = MilpBackendSolver(time_limit=30).solve(weights, k, target)
        assert solution.proven_optimal
        assert target in solution.selected and len(solution.selected) == k
        assert solution.weight == pytest.approx(expected.weight, rel=1e-9, abs=1e-12)

    def test_ties_go_to_the_lexicographically_lowest_subset(self):
        weights = np.ones((6, 6)) - np.eye(6)
        solution = BranchAndBoundSolver(time_limit=10).solve(weights, 3, target=4)
        assert solution.selected == (0, 1, 4)

    @pytest.mark.parametrize("k, enumerates", [(4, True), (5, False)])
    def test_cap_counts_candidate_subsets(self, monkeypatch, k, enumerates):
        # n = 9: C(8, 3) = 56 candidates at k = 4, C(8, 4) = 70 at k = 5.
        monkeypatch.setattr(ilp, "ENUMERATION_LIMIT", 56)
        calls = []

        def spy(*args):
            calls.append(args[1])
            return enumerate_optimum(*args)

        monkeypatch.setattr(ilp, "enumerate_optimum", spy)
        weights = random_weights(9, 2)
        solution = BranchAndBoundSolver(time_limit=10).solve(weights, k)
        assert calls == ([k] if enumerates else [])
        assert solution.proven_optimal
        assert solution.weight == pytest.approx(solve_brute_force(weights, k).weight)

    def test_expired_deadline_stops_the_enumeration(self):
        weights = random_weights(8, 1)
        assert enumerate_optimum(weights, 4, 0, Deadline.after(0.0)) is None
        assert enumerate_optimum(weights, 4, 0, Deadline.after(60.0)) is not None


class TestTimeLimit:
    def test_bnb_times_out_gracefully(self):
        weights = random_weights(40, 9)
        solution = BranchAndBoundSolver(time_limit=0.01).solve(weights, 12)
        # Either finished extremely fast (optimal) or returned the incumbent.
        assert len(solution.selected) == 12
        assert 0 in solution.selected
        assert solution.weight > 0

    def test_reported_weight_consistent(self):
        weights = random_weights(12, 5)
        solution = BranchAndBoundSolver(time_limit=10).solve(weights, 4)
        assert solution.weight == pytest.approx(
            subset_weight(weights, solution.selected)
        )

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_time_limit_returns_incumbent_not_exception(self, solver_cls):
        """At the limit the solvers degrade to a feasible, unproven answer."""
        weights = random_weights(400, 2)
        solution = solver_cls(time_limit=0.02).solve(weights, 10)
        assert not solution.proven_optimal
        assert len(solution.selected) == 10
        assert 0 in solution.selected
        assert solution.weight == pytest.approx(
            subset_weight(weights, solution.selected)
        )

    def test_bnb_deadline_respected_inside_bound(self):
        """Regression: the deadline is polled inside ``bound()``, so even a
        single expensive bound evaluation cannot blow past the limit."""
        weights = random_weights(500, 4)
        limit = 0.05
        solver = BranchAndBoundSolver(time_limit=limit)
        start = time.perf_counter()
        solution = solver.solve(weights, 12)
        elapsed = time.perf_counter() - start
        assert elapsed < limit + 0.25  # tolerance for one bound sweep + setup
        assert solution.solve_seconds < limit + 0.25
        assert not solution.proven_optimal

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_explicit_deadline_tightens_time_limit(self, solver_cls):
        weights = random_weights(400, 6)
        solver = solver_cls(time_limit=60.0)
        start = time.perf_counter()
        solution = solver.solve(weights, 10, deadline=Deadline.after(0.05))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert len(solution.selected) == 10

    @pytest.mark.parametrize("solver_cls", [MilpBackendSolver, BranchAndBoundSolver])
    def test_expired_deadline_yields_greedy_incumbent(self, solver_cls):
        weights = random_weights(30, 7)
        solution = solver_cls(time_limit=60.0).solve(
            weights, 5, deadline=Deadline.after(0.0)
        )
        assert not solution.proven_optimal
        assert len(solution.selected) == 5


class TestGreedyIncumbent:
    def test_feasible_and_anchored(self):
        weights = random_weights(20, 8)
        selected = greedy_incumbent(weights, 6, 3)
        assert len(selected) == 6
        assert 3 in selected
        assert len(set(selected)) == 6

    def test_matches_brute_force_on_tiny_instance(self):
        # With k = n the greedy incumbent is trivially optimal.
        weights = random_weights(4, 0)
        assert sorted(greedy_incumbent(weights, 4, 0)) == [0, 1, 2, 3]
