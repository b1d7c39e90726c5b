"""Equivalence harness for the cross-request batch solver.

Two contracts are pinned here.  First, the multi-RHS kernel
(``batch_omp_many`` and the ``select_many`` driver above it) must be
byte-identical to the scipy-nnls reference — ``nomp_path`` per pursuit
and the ``use_kernel=False`` selectors per request — across schemes,
mixed (m, mu, sweeps, variant) parameter batches, duplicate-heavy and
zero-column instances.  Second, the large-N candidate pre-screen must
preserve the exact OMP support: the provable mode bitwise, up to
N = 10k columns, against the unscreened pursuit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_solver import BATCHABLE_ALGORITHMS, BatchJob, select_many
from repro.core.compare_sets import CompareSetsSelector
from repro.core.compare_sets_plus import CompareSetsPlusSelector
from repro.core.integer_regression import deduplicate_columns, nomp_path
from repro.core.omp_kernel import (
    _SCREEN_KEEP_MIN,
    SolverArtifacts,
    StageTimer,
    _screen_active,
    _screened_omp_path,
    batch_omp_many,
    solve_item_many,
)
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.core.vectors import OpinionScheme
from tests.test_omp_kernel import random_instance


def _assert_paths_bitwise(ours: list[np.ndarray], theirs: list[np.ndarray]) -> None:
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs):
        assert mine.tobytes() == ref.tobytes()


@st.composite
def shared_gram_batch(draw):
    """One incidence-like matrix plus 1-4 (target, budget) problems."""
    rows = draw(st.integers(min_value=1, max_value=10))
    cols = draw(st.integers(min_value=1, max_value=10))
    cells = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0]),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    matrix = np.array(cells).reshape(rows, cols)
    problems = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                    min_size=rows,
                    max_size=rows,
                ),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    targets = [np.array(target) for target, _ in problems]
    budgets = [budget for _, budget in problems]
    return matrix, targets, budgets


class TestBatchOmpMany:
    @settings(max_examples=60, deadline=None)
    @given(shared_gram_batch())
    def test_exact_mode_bitwise_matches_sequential(self, batch):
        matrix, targets, budgets = batch
        unique = deduplicate_columns(matrix).matrix
        gram = unique.T @ unique
        bs = [unique.T @ target for target in targets]
        many = batch_omp_many(gram, bs, budgets, unique, targets)
        for index, target in enumerate(targets):
            alone = nomp_path(unique, target, budgets[index])
            _assert_paths_bitwise(many[index], alone)

    def test_duplicate_targets_slice_the_leader_path(self):
        rng = np.random.default_rng(11)
        matrix = (rng.random((12, 9)) < 0.4).astype(float)
        unique = deduplicate_columns(matrix).matrix
        target = rng.random(12) * 2
        gram = unique.T @ unique
        b = unique.T @ target
        many = batch_omp_many(
            gram, [b, b, b], [2, 5, 1], unique, [target, target, target]
        )
        for budget, path in zip([2, 5, 1], many):
            alone = nomp_path(unique, target, budget)
            _assert_paths_bitwise(path, alone)
        # The budget-2 path is a prefix of the budget-5 path (OMP is greedy).
        _assert_paths_bitwise(many[0], many[1][:2])

    def test_empty_batch_and_empty_matrix(self):
        assert batch_omp_many(np.zeros((0, 0)), [], [], np.zeros((3, 0)), []) == []
        empty = np.zeros((3, 0))
        gram = np.zeros((0, 0))
        paths = batch_omp_many(gram, [np.zeros(0)], [2], empty, [np.zeros(3)])
        assert paths == [[]]

    def test_rejects_non_square_gram_and_ragged_batch(self):
        one = np.ones((3, 1))
        gram = one.T @ one
        b = one.T @ np.ones(3)
        with pytest.raises(ValueError):
            batch_omp_many(np.zeros((2, 3)), [b], [1], one, [np.ones(3)])
        with pytest.raises(ValueError):
            batch_omp_many(gram, [b, b], [1], one, [np.ones(3)])


def _mixed_jobs() -> list[BatchJob]:
    return [
        BatchJob("CompaReSetS", SelectionConfig(max_reviews=1)),
        BatchJob("CompaReSetS", SelectionConfig(max_reviews=4)),
        BatchJob("CompaReSetS+", SelectionConfig(max_reviews=3, mu=0.1)),
        BatchJob(
            "CompaReSetS+",
            SelectionConfig(max_reviews=2, mu=0.5, sweeps=2),
            variant="weighted",
        ),
        # A duplicate of job 2: dedup inside the multi-RHS rounds must not
        # perturb anyone.
        BatchJob("CompaReSetS+", SelectionConfig(max_reviews=3, mu=0.1)),
    ]


def _sequential_reference(instance, job, scheme):
    """One job solved alone by the scipy-nnls reference selector."""
    config = SelectionConfig(
        max_reviews=job.config.max_reviews,
        lam=job.config.lam,
        mu=job.config.mu,
        scheme=scheme,
        sweeps=job.config.sweeps,
    )
    if job.algorithm == "CompaReSetS":
        return CompareSetsSelector(use_kernel=False).select(instance, config)
    return CompareSetsPlusSelector(variant=job.variant, use_kernel=False).select(
        instance, config
    )


@st.composite
def random_batch(draw):
    """A small random instance and a 1-5 job batch of mixed parameters."""
    scheme = draw(st.sampled_from(list(OpinionScheme)))
    instance = random_instance(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        num_items=draw(st.integers(1, 4)),
        max_reviews=10,
        duplicate_heavy=draw(st.booleans()),
        mention_free_rate=draw(st.sampled_from([0.0, 0.15, 0.5])),
    )
    jobs = draw(
        st.lists(
            st.builds(
                lambda algorithm, m, mu, sweeps, variant: BatchJob(
                    algorithm,
                    SelectionConfig(
                        max_reviews=m, mu=mu, scheme=scheme, sweeps=sweeps
                    ),
                    variant=variant,
                ),
                st.sampled_from(sorted(BATCHABLE_ALGORITHMS)),
                st.integers(1, 8),
                st.sampled_from([0.0, 0.1, 0.5]),
                st.integers(1, 2),
                st.sampled_from(["literal", "weighted"]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return instance, jobs, scheme


class TestSelectMany:
    @pytest.mark.parametrize("scheme", list(OpinionScheme))
    def test_matches_sequential_selectors(self, scheme):
        for trial in range(3):
            rng = np.random.default_rng(100 + trial)
            instance = random_instance(
                rng, num_items=3, max_reviews=8, duplicate_heavy=trial % 2 == 1
            )
            jobs = [
                BatchJob(
                    job.algorithm,
                    SelectionConfig(
                        max_reviews=job.config.max_reviews,
                        lam=job.config.lam,
                        mu=job.config.mu,
                        scheme=scheme,
                        sweeps=job.config.sweeps,
                    ),
                    variant=job.variant,
                )
                for job in _mixed_jobs()
            ]
            config = jobs[0].config
            space = build_space(instance, config)
            artifacts = tuple(
                SolverArtifacts(space, reviews, config.lam)
                for reviews in instance.reviews
            )
            results = select_many(
                instance, jobs, space=space, solver_artifacts=artifacts
            )
            for job, result in zip(jobs, results):
                reference = _sequential_reference(instance, job, scheme)
                assert result.selections == reference.selections
                assert result.algorithm == job.algorithm

    @settings(max_examples=50, deadline=None)
    @given(random_batch(), st.booleans())
    def test_random_batches_match_reference(self, batch, prebuilt):
        """Any batch, job by job, equals the scipy-nnls reference selectors."""
        instance, jobs, scheme = batch
        space = build_space(instance, jobs[0].config)
        artifacts = (
            tuple(
                SolverArtifacts(space, reviews, jobs[0].config.lam)
                for reviews in instance.reviews
            )
            if prebuilt
            else None
        )
        results = select_many(
            instance, jobs, space=space, solver_artifacts=artifacts
        )
        for job, result in zip(jobs, results):
            reference = _sequential_reference(instance, job, scheme)
            assert result.selections == reference.selections, job
            assert result.algorithm == job.algorithm

    def test_zero_column_instance(self):
        rng = np.random.default_rng(7)
        instance = random_instance(rng, num_items=2, mention_free_rate=1.0)
        config = SelectionConfig()
        space = build_space(instance, config)
        artifacts = tuple(
            SolverArtifacts(space, reviews, config.lam)
            for reviews in instance.reviews
        )
        jobs = [
            BatchJob("CompaReSetS", config),
            BatchJob("CompaReSetS+", config),
        ]
        results = select_many(instance, jobs, space=space, solver_artifacts=artifacts)
        for job, result in zip(jobs, results):
            reference = _sequential_reference(instance, job, config.scheme)
            assert result.selections == reference.selections

    def test_timings_and_counters_surface(self):
        rng = np.random.default_rng(21)
        instance = random_instance(rng, num_items=2)
        config = SelectionConfig()
        space = build_space(instance, config)
        artifacts = tuple(
            SolverArtifacts(space, reviews, config.lam)
            for reviews in instance.reviews
        )
        timer = StageTimer()
        timer.count("screen_total", 5)
        [result] = select_many(
            instance,
            [BatchJob("CompaReSetS", config)],
            space=space,
            solver_artifacts=artifacts,
            timer=timer,
        )
        assert result.timings is not None and "pursuit" in result.timings
        assert result.counters == {"screen_total": 5}

    def test_validation_errors(self):
        rng = np.random.default_rng(3)
        instance = random_instance(rng, num_items=2)
        config = SelectionConfig()
        space = build_space(instance, config)
        artifacts = tuple(
            SolverArtifacts(space, reviews, config.lam)
            for reviews in instance.reviews
        )
        good = [BatchJob("CompaReSetS", config)]
        with pytest.raises(ValueError, match="not batchable"):
            select_many(
                instance,
                [BatchJob("Random", config)],
                space=space,
                solver_artifacts=artifacts,
            )
        with pytest.raises(ValueError, match="variant"):
            select_many(
                instance,
                [BatchJob("CompaReSetS+", config, variant="bogus")],
                space=space,
                solver_artifacts=artifacts,
            )
        with pytest.raises(ValueError, match="artifacts"):
            select_many(
                instance, good, space=space, solver_artifacts=artifacts[:1]
            )
        mismatched = tuple(
            SolverArtifacts(space, reviews, 2.0) for reviews in instance.reviews
        )
        with pytest.raises(ValueError, match="do not match"):
            select_many(
                instance, good, space=space, solver_artifacts=mismatched
            )
        assert "CompaReSetS" in BATCHABLE_ALGORITHMS


def _wide_problem(seed: int, columns: int, rows: int = 24):
    """A dedup-free nonnegative incidence-like pursuit problem."""
    rng = np.random.default_rng(seed)
    stacked = rng.choice([0.0, 0.5, 1.0], size=(rows, columns), p=[0.6, 0.2, 0.2])
    stacked = deduplicate_columns(stacked).matrix
    target = rng.random(rows) * 2
    return stacked, target


class TestPreScreen:
    def test_screen_active_gating(self):
        assert not _screen_active("off", 10**6)
        assert not _screen_active("auto", 2047)
        assert _screen_active("auto", 2048)
        assert _screen_active("provable", 3)

    def test_invalid_mode_rejected(self):
        rng = np.random.default_rng(1)
        instance = random_instance(rng, num_items=1)
        config = SelectionConfig()
        space = build_space(instance, config)
        with pytest.raises(ValueError, match="screen"):
            SolverArtifacts(
                space, instance.reviews[0], config.lam, screen="sometimes"
            )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_provable_screen_bitwise_at_moderate_n(self, seed):
        stacked, target = _wide_problem(seed, columns=900)
        assert stacked.shape[1] > _SCREEN_KEEP_MIN  # pruning is real
        budget = 12
        reference = nomp_path(stacked, target, budget)
        timer = StageTimer()
        screened = _screened_omp_path(
            stacked,
            target,
            budget,
            np.linalg.norm(stacked, axis=0),
            nonneg=True,
            timer=timer,
        )
        _assert_paths_bitwise(screened, reference)
        assert timer.counters["screen_total"] == stacked.shape[1]
        assert timer.counters["screen_kept"] < stacked.shape[1]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        columns=st.integers(min_value=300, max_value=1500),
        budget=st.integers(min_value=1, max_value=8),
    )
    def test_support_preservation_property(self, seed, columns, budget):
        stacked, target = _wide_problem(seed, columns=columns)
        reference = nomp_path(stacked, target, budget)
        screened = _screened_omp_path(
            stacked,
            target,
            budget,
            np.linalg.norm(stacked, axis=0),
            nonneg=True,
            timer=StageTimer(),
        )
        _assert_paths_bitwise(screened, reference)

    def test_support_preservation_at_ten_thousand_columns(self):
        stacked, target = _wide_problem(99, columns=10_000, rows=32)
        budget = 6
        reference = nomp_path(stacked, target, budget)
        screened = _screened_omp_path(
            stacked,
            target,
            budget,
            np.linalg.norm(stacked, axis=0),
            nonneg=True,
            timer=StageTimer(),
        )
        _assert_paths_bitwise(screened, reference)

    def test_artifacts_screen_matches_off(self):
        """End-to-end through solve_item_many: provable screen == no screen."""
        rng = np.random.default_rng(31)
        instance = random_instance(rng, num_items=1, max_reviews=400)
        config = SelectionConfig(max_reviews=3)
        space = build_space(instance, config)
        reviews = instance.reviews[0]
        gamma = space.aspect_vector(reviews)
        tau = space.opinion_vector(reviews)
        plain = SolverArtifacts(space, reviews, config.lam, screen="off")
        screened = SolverArtifacts(space, reviews, config.lam, screen="provable")
        timer = StageTimer()
        [ours] = solve_item_many(screened, [(tau, gamma, config)], timer=timer)
        [reference] = solve_item_many(plain, [(tau, gamma, config)])
        assert ours.selected == reference.selected
        assert ours.objective == reference.objective
        if screened.base_block().num_groups > _SCREEN_KEEP_MIN:
            assert timer.counters.get("screen_total", 0) > 0
