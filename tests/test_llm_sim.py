"""Tests for the simulated LLM-judge baseline."""

import pytest

from repro.core.problem import SelectionConfig
from repro.core.selection import make_selector
from repro.llm_sim import LlmJudgeSelector, NoisyRougeJudge
from tests.conftest import make_review


class TestNoisyRougeJudge:
    def test_identical_reviews_score_high(self):
        judge = NoisyRougeJudge(noise_sd=0.0)
        review = make_review("r1", "p1", [("a", 1)], text="the battery is great")
        assert judge.compare(review, review) == pytest.approx(1.0)

    def test_disjoint_reviews_score_low(self):
        judge = NoisyRougeJudge(noise_sd=0.0)
        a = make_review("r1", "p1", [], text="alpha beta gamma")
        b = make_review("r2", "p2", [], text="delta epsilon zeta")
        assert judge.compare(a, b) == pytest.approx(0.0)

    def test_calls_counted_and_cached(self):
        judge = NoisyRougeJudge()
        a = make_review("r1", "p1", [], text="one two")
        b = make_review("r2", "p2", [], text="one three")
        first = judge.compare(a, b)
        second = judge.compare(b, a)  # symmetric cache key
        assert judge.calls == 1
        assert first == second

    def test_flip_probability_one_is_random(self):
        judge = NoisyRougeJudge(flip_probability=1.0, seed=5)
        a = make_review("r1", "p1", [], text="same text")
        b = make_review("r2", "p2", [], text="same text")
        assert judge.compare(a, b) != pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyRougeJudge(noise_sd=-1.0)
        with pytest.raises(ValueError):
            NoisyRougeJudge(flip_probability=2.0)


class TestLlmJudgeSelector:
    def test_registered(self):
        assert make_selector("LLM-Judge").name == "LLM-Judge"

    def test_budget_and_validity(self, instance, config):
        selector = LlmJudgeSelector(NoisyRougeJudge(seed=1))
        result = selector.select(instance, config)
        for selection, reviews in zip(result.selections, instance.reviews):
            assert len(selection) <= config.max_reviews
            assert all(0 <= j < len(reviews) for j in selection)

    def test_judgment_budget_is_quadraticish(self, instance):
        """Calls scale like (#target kept) x (#comparative reviews)."""
        judge = NoisyRougeJudge(seed=2)
        selector = LlmJudgeSelector(judge)
        config = SelectionConfig(max_reviews=3)
        selector.select(instance, config)
        comparative_reviews = sum(len(r) for r in instance.reviews[1:])
        kept = min(3, len(instance.reviews[0]))
        assert judge.calls == kept * comparative_reviews

    def test_deterministic_given_seed(self, instance, config):
        a = LlmJudgeSelector(NoisyRougeJudge(seed=3)).select(instance, config)
        b = LlmJudgeSelector(NoisyRougeJudge(seed=3)).select(instance, config)
        assert a.selections == b.selections

    def test_hallucinating_judge_degrades_alignment(self, instances):
        """Flipped judgments hurt ROUGE alignment vs a faithful judge."""
        from repro.eval.alignment import mean_alignment, target_vs_comparative_alignment

        config = SelectionConfig(max_reviews=3)

        def score(flip):
            results = [
                LlmJudgeSelector(
                    NoisyRougeJudge(flip_probability=flip, seed=4)
                ).select(inst, config)
                for inst in instances
            ]
            return mean_alignment(
                [target_vs_comparative_alignment(r) for r in results]
            ).rouge_1

        assert score(0.0) > score(1.0)
