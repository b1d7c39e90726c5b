"""Tests for the TargetHkS solver fallback chain."""

import numpy as np
import pytest

from repro.graph.target_hks import HksSolution, solve_brute_force, solve_greedy
from repro.resilience.deadline import Deadline
from repro.resilience.fallback import (
    FallbackChain,
    FallbackExhausted,
    solve_with_fallback,
)


@pytest.fixture()
def weights() -> np.ndarray:
    rng = np.random.default_rng(11)
    raw = rng.random((12, 12))
    symmetric = (raw + raw.T) / 2
    np.fill_diagonal(symmetric, 0.0)
    return symmetric


def _failing_stage(name="boom"):
    def solver(weights, k, target, deadline):
        raise RuntimeError("injected solver failure")

    return (name, solver)


def _greedy_stage(name="custom-greedy"):
    def solver(weights, k, target, deadline):
        return solve_greedy(weights, k, target)

    return (name, solver)


class TestFallbackChain:
    def test_primary_backend_answers(self, weights):
        outcome = FallbackChain().solve(weights, k=4)
        assert outcome.backend == "bnb"
        assert not outcome.degraded
        assert [a.status for a in outcome.attempts] == ["ok"]
        exact = solve_brute_force(weights, 4)
        assert outcome.solution.weight == pytest.approx(exact.weight)

    def test_falls_through_on_error_with_provenance(self, weights):
        chain = FallbackChain(stages=[_failing_stage(), "bnb", "greedy"])
        outcome = chain.solve(weights, k=4)
        assert outcome.backend == "bnb"
        assert outcome.degraded
        assert [a.status for a in outcome.attempts] == ["error", "ok"]
        assert "injected solver failure" in outcome.attempts[0].error

    def test_double_failure_lands_on_greedy(self, weights):
        chain = FallbackChain(
            stages=[_failing_stage("a"), _failing_stage("b"), "greedy"]
        )
        outcome = chain.solve(weights, k=4)
        assert outcome.backend == "greedy"
        assert outcome.degraded
        greedy = solve_greedy(weights, 4)
        assert outcome.solution.selected == greedy.selected

    def test_expired_deadline_skips_to_terminal_stage(self, weights):
        chain = FallbackChain()
        outcome = chain.solve(weights, k=4, deadline=Deadline.after(0.0))
        assert outcome.backend == "greedy"
        assert outcome.degraded
        assert [a.status for a in outcome.attempts] == ["deadline", "ok"]

    def test_all_stages_fail_raises(self, weights):
        chain = FallbackChain(stages=[_failing_stage("a"), _failing_stage("b")])
        with pytest.raises(FallbackExhausted, match="a=error"):
            chain.solve(weights, k=4)

    def test_custom_stage_solver(self, weights):
        chain = FallbackChain(stages=[_greedy_stage()])
        outcome = chain.solve(weights, k=3)
        assert outcome.backend == "custom-greedy"
        assert isinstance(outcome.solution, HksSolution)

    def test_unknown_builtin_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown fallback stage"):
            FallbackChain(stages=["gurobi"])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            FallbackChain(stages=[])

    def test_proven_optimal_provenance_survives(self, weights):
        outcome = FallbackChain(time_limit=60.0).solve(weights, k=3)
        assert outcome.solution.proven_optimal
        assert outcome.attempts[-1].backend == outcome.backend


class TestSolveWithFallback:
    def test_one_shot_wrapper(self, weights):
        outcome = solve_with_fallback(weights, k=4, time_limit=30.0)
        assert outcome.backend == "bnb"
        assert outcome.solution.selected[0] == 0 or 0 in outcome.solution.selected
