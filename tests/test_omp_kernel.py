"""Equivalence harness: the Batch-OMP kernel vs the scipy-nnls reference.

The kernel's contract is *byte-identical selections* in exact mode: every
test here pits ``use_kernel=True`` (or the kernel primitives) against the
original reference path on randomised instances across all three opinion
schemes, plus the degenerate shapes the issue calls out (zero columns,
duplicate-heavy items, m exceeding the unique-column count).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compare_sets import CompareSetsSelector, select_for_item
from repro.core.compare_sets_plus import CompareSetsPlusSelector
from repro.core.integer_regression import (
    counts_to_selection,
    deduplicate_columns,
    nomp_path,
    round_to_counts,
    round_to_counts_table,
)
from repro.core.objective import item_objective
from repro.core.omp_kernel import (
    STAGES,
    CountsEvaluator,
    SolverArtifacts,
    StageTimer,
    batch_omp_path,
    round_path,
    solve_item,
)
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.core.vectors import OpinionScheme
from repro.data.instances import ComparisonInstance
from repro.data.models import AspectMention, Product, Review

ASPECTS = ("battery", "screen", "camera", "price", "weight")


def random_instance(
    rng: np.random.Generator,
    num_items: int = 3,
    max_reviews: int = 8,
    duplicate_heavy: bool = False,
    mention_free_rate: float = 0.15,
) -> ComparisonInstance:
    """A small random instance; ``duplicate_heavy`` repeats mention sets."""
    products = tuple(
        Product(product_id=f"p{i}", title=f"P{i}", category="C")
        for i in range(num_items)
    )
    all_reviews = []
    counter = 0
    for i in range(num_items):
        count = int(rng.integers(1, max_reviews + 1))
        reviews = []
        archetypes: list[tuple[AspectMention, ...]] = []
        for _ in range(count):
            if duplicate_heavy and archetypes and rng.random() < 0.6:
                mentions = archetypes[int(rng.integers(len(archetypes)))]
            elif rng.random() < mention_free_rate:
                mentions = ()
            else:
                width = int(rng.integers(1, len(ASPECTS) + 1))
                chosen = rng.choice(len(ASPECTS), size=width, replace=False)
                mentions = tuple(
                    AspectMention(
                        aspect=ASPECTS[a],
                        sentiment=int(rng.integers(-1, 2)),
                        strength=float(rng.integers(0, 4)) / 2.0,
                    )
                    for a in sorted(chosen)
                )
                archetypes.append(mentions)
            counter += 1
            reviews.append(
                Review(
                    review_id=f"r{counter}",
                    product_id=f"p{i}",
                    reviewer_id="u",
                    rating=4.0,
                    text="t",
                    mentions=mentions,
                )
            )
        all_reviews.append(tuple(reviews))
    return ComparisonInstance(products=products, reviews=tuple(all_reviews))


@pytest.mark.parametrize("scheme", list(OpinionScheme))
class TestSelectorEquivalence:
    """Kernel and reference selectors agree selection-for-selection."""

    def test_compare_sets_matches_reference(self, scheme):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            instance = random_instance(rng, duplicate_heavy=seed % 2 == 1)
            for m in (1, 3, 6):
                config = SelectionConfig(max_reviews=m, lam=1.0, mu=0.1, scheme=scheme)
                reference = CompareSetsSelector(use_kernel=False).select(
                    instance, config
                )
                kernel = CompareSetsSelector(use_kernel=True).select(instance, config)
                assert kernel.selections == reference.selections, (seed, m)

    def test_compare_sets_plus_matches_reference(self, scheme):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            instance = random_instance(rng, duplicate_heavy=seed % 2 == 1)
            for variant in ("literal", "weighted"):
                config = SelectionConfig(
                    max_reviews=3, lam=1.0, mu=0.1, scheme=scheme, sweeps=2
                )
                reference = CompareSetsPlusSelector(
                    variant, use_kernel=False
                ).select(instance, config)
                kernel = CompareSetsPlusSelector(variant, use_kernel=True).select(
                    instance, config
                )
                assert kernel.selections == reference.selections, (seed, variant)

    def test_non_default_lambda_mu(self, scheme):
        rng = np.random.default_rng(7)
        instance = random_instance(rng)
        config = SelectionConfig(
            max_reviews=3, lam=0.4, mu=0.9, scheme=scheme, sweeps=2
        )
        reference = CompareSetsPlusSelector(use_kernel=False).select(instance, config)
        kernel = CompareSetsPlusSelector(use_kernel=True).select(instance, config)
        assert kernel.selections == reference.selections


class TestDegenerateShapes:
    def test_all_reviews_mention_free(self):
        """Zero incidence columns: both paths return the empty fallback."""
        rng = np.random.default_rng(0)
        instance = random_instance(rng, num_items=2, mention_free_rate=1.0)
        config = SelectionConfig(max_reviews=3)
        reference = CompareSetsSelector(use_kernel=False).select(instance, config)
        kernel = CompareSetsSelector(use_kernel=True).select(instance, config)
        assert kernel.selections == reference.selections
        assert all(selection == () for selection in kernel.selections)

    def test_duplicate_heavy_budget_exceeds_unique_columns(self):
        """m larger than the number of unique columns (capacity-bound)."""
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            instance = random_instance(rng, duplicate_heavy=True, max_reviews=6)
            config = SelectionConfig(max_reviews=10)
            reference = CompareSetsSelector(use_kernel=False).select(instance, config)
            kernel = CompareSetsSelector(use_kernel=True).select(instance, config)
            assert kernel.selections == reference.selections

    def test_single_review_items(self):
        rng = np.random.default_rng(3)
        instance = random_instance(rng, num_items=4, max_reviews=1)
        config = SelectionConfig(max_reviews=3, sweeps=2)
        reference = CompareSetsPlusSelector(use_kernel=False).select(instance, config)
        kernel = CompareSetsPlusSelector(use_kernel=True).select(instance, config)
        assert kernel.selections == reference.selections

    def test_single_item_instance_plus_runs_on_base_block(self):
        """With no other items the sync stack vanishes (sync_blocks=0)."""
        rng = np.random.default_rng(4)
        instance = random_instance(rng, num_items=1)
        config = SelectionConfig(max_reviews=3, sweeps=2)
        reference = CompareSetsPlusSelector(use_kernel=False).select(instance, config)
        kernel = CompareSetsPlusSelector(use_kernel=True).select(instance, config)
        assert kernel.selections == reference.selections


@st.composite
def pursuit_problem(draw):
    """A deduplicated incidence-like matrix, a target, and a budget."""
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
    target = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                min_size=rows,
                max_size=rows,
            )
        )
    )
    budget = draw(st.integers(min_value=1, max_value=6))
    return matrix, target, budget


class TestBatchOmpPath:
    @settings(max_examples=60, deadline=None)
    @given(pursuit_problem())
    def test_exact_mode_bitwise_matches_nomp_path(self, problem):
        matrix, target, budget = problem
        unique = deduplicate_columns(matrix).matrix
        reference = nomp_path(unique, target, budget)
        gram = unique.T @ unique
        b = unique.T @ target.astype(float)
        kernel = batch_omp_path(gram, b, budget, unique, target, exact=True)
        assert len(kernel) == len(reference)
        for ours, theirs in zip(kernel, reference):
            assert np.array_equal(ours, theirs)

    def test_empty_and_zero_budget(self):
        empty = np.zeros((3, 0))
        assert batch_omp_path(np.zeros((0, 0)), np.zeros(0), 3, empty, np.zeros(3)) == []
        one = np.ones((3, 1))
        gram = one.T @ one
        b = one.T @ np.ones(3)
        assert batch_omp_path(gram, b, 0, one, np.ones(3)) == []

    def test_rejects_non_square_gram(self):
        with pytest.raises(ValueError):
            batch_omp_path(np.zeros((2, 3)), np.zeros(3), 1, np.zeros((4, 3)), np.zeros(4))

    def test_fast_mode_stays_feasible(self):
        """exact=False may tie-break differently but must stay a valid NOMP
        path: non-negative coefficients, support growing one atom a step."""
        rng = np.random.default_rng(5)
        matrix = (rng.random((12, 9)) < 0.4).astype(float)
        unique = deduplicate_columns(matrix).matrix
        target = rng.random(12) * 2
        gram = unique.T @ unique
        b = unique.T @ target
        path = batch_omp_path(gram, b, 5, unique, target, exact=False)
        for step, x in enumerate(path):
            assert np.all(x >= 0)
            assert len(np.flatnonzero(x)) <= step + 1


def build_path(
    rng: np.random.Generator,
    num_groups: int,
    max_total: int,
    weights: str,
    binding: bool,
    low_atoms: bool,
) -> tuple[list[np.ndarray], np.ndarray, tuple[tuple[int, ...], ...]]:
    """A pursuit path as the discrete stage sees it, with its dedup groups.

    Step ``l`` holds atoms ``0..l`` of one atom order, so the support grows
    along the path and never exceeds ``max_total``.  Coefficients may be
    zero inside the support (nnls returns such zeros) and whole steps may
    be zero.  ``weights`` picks exact-integer or tied ideals ("equal",
    "thirds", "integers"), ideals a few ulps below an integer ("tenths")
    or generic ones ("uniform"); ``binding`` caps the support groups at one
    member so apportionment spills, over several round-robin passes when
    few groups are left, into zero-coefficient groups; ``low_atoms``
    interleaves the support with the first zero groups by index.
    """
    pool = min(num_groups, 2 * max_total) if low_atoms else num_groups
    atoms = rng.choice(pool, size=min(max_total, pool), replace=False)
    path = []
    for size in range(1, len(atoms) + 1):
        if weights == "equal":
            values = np.ones(size)
        elif weights == "thirds":
            values = rng.choice([1 / 3, 2 / 3, 1.0, 4 / 3], size=size)
        elif weights == "integers":
            values = rng.integers(1, 4, size=size).astype(float)
        elif weights == "tenths":
            values = rng.integers(1, 10, size=size) / 10
        else:
            values = rng.uniform(0.01, 2.0, size=size)
        values[rng.random(size) < 0.25] = 0.0
        if rng.random() < 0.1:
            values[:] = 0.0
        x = np.zeros(num_groups)
        x[atoms[:size]] = values
        path.append(x)
    if binding:
        capacities = rng.integers(1, 6, size=num_groups)
        capacities[atoms] = 1
    else:
        capacities = rng.integers(1, 30 if rng.random() < 0.3 else 4, size=num_groups)
    members = rng.permutation(int(capacities.sum())).tolist()
    bounds = np.cumsum(capacities).tolist()
    groups = tuple(
        tuple(members[start:stop]) for start, stop in zip([0] + bounds[:-1], bounds)
    )
    return path, capacities, groups


def assert_rounds_like_reference(path, capacities, groups, max_total):
    """round_path against round_to_counts, its table and counts_to_selection
    at every step, every total and every budget prefix."""
    budgets = range(1, max_total + 1)
    gaps, picks = round_path(path, capacities, groups, budgets)
    assert gaps.shape == (len(path), max_total)
    for step, x in enumerate(path):
        table = round_to_counts_table(x, capacities, max_total) or [None] * max_total
        for total, entry in enumerate(table):
            if entry is None:
                assert np.isnan(gaps[step, total])
            else:
                assert gaps[step, total] == entry[1]
        for budget in budgets:
            if step >= budget:
                assert len(picks[budget]) == budget
                continue
            counts, selection = picks[budget][step]
            expected = round_to_counts(x, capacities, budget)
            assert counts.dtype == expected.dtype
            assert counts.tobytes() == expected.tobytes()
            assert selection == counts_to_selection(expected, groups)


class TestRoundPath:
    """The one-pass discrete stage equals the reference rounding bytewise."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_groups=st.one_of(
            st.integers(1, 7),
            st.integers(8, 16),
            st.integers(17, 300),
            st.sampled_from([1_000, 8_193]),
        ),
        max_total=st.integers(1, 12),
        weights=st.sampled_from(["uniform", "equal", "thirds", "integers", "tenths"]),
        binding=st.booleans(),
        low_atoms=st.booleans(),
    )
    def test_matches_reference_rounding(
        self, seed, num_groups, max_total, weights, binding, low_atoms
    ):
        rng = np.random.default_rng(seed)
        path, capacities, groups = build_path(
            rng, num_groups, max_total, weights, binding, low_atoms
        )
        assert_rounds_like_reference(path, capacities, groups, max_total)

    def test_large_q_with_binding_caps(self):
        rng = np.random.default_rng(17)
        path, capacities, groups = build_path(rng, 20_000, 12, "tenths", True, True)
        assert_rounds_like_reference(path, capacities, groups, 12)

    def test_spill_over_several_passes(self):
        """One capped support group: the rest of each total spills into the
        single zero group, one unit per round-robin pass."""
        path = [np.array([2.0, 0.0])]
        assert_rounds_like_reference(path, np.array([1, 10]), ((0,), tuple(range(1, 11))), 6)

    def test_ideal_just_below_an_integer(self):
        """4 * (0.3 / 0.4) is 2.9999999999999996, which the reference's
        1e-12 floor guard counts as 3."""
        path = [np.array([0.1, 0.3, 0.0])]
        groups = (tuple(range(0, 5)), tuple(range(5, 10)), tuple(range(10, 15)))
        assert_rounds_like_reference(path, np.array([5, 5, 5]), groups, 4)

    def test_empty_path_and_zero_budget(self):
        groups = ((0,), (1,), (2,))
        assert round_path([], np.ones(3, dtype=int), groups, [4])[1] == {4: []}
        assert round_path([np.ones(3)], np.ones(3, dtype=int), groups, [0])[1] == {0: []}


class TestSolverArtifacts:
    def _item(self, seed=0, scheme=OpinionScheme.BINARY):
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, num_items=1, max_reviews=8)
        config = SelectionConfig(max_reviews=3, lam=1.0, mu=0.1, scheme=scheme)
        space = build_space(instance, config)
        reviews = instance.reviews[0]
        tau = space.opinion_vector(reviews)
        gamma = space.aspect_vector(reviews)
        return space, reviews, tau, gamma, config

    def test_reuse_across_budgets_matches_fresh(self):
        space, reviews, tau, gamma, config = self._item()
        shared = SolverArtifacts(space, reviews, config.lam)
        for m in (1, 2, 4):
            budget_config = config.with_(max_reviews=m)
            reused = solve_item(shared, tau, gamma, budget_config)
            fresh = solve_item(
                SolverArtifacts(space, reviews, config.lam), tau, gamma, budget_config
            )
            assert reused.selected == fresh.selected
            assert reused.objective == fresh.objective

    def test_plus_block_memoised_per_mu(self):
        space, reviews, tau, gamma, config = self._item()
        artifacts = SolverArtifacts(space, reviews, config.lam)
        block = artifacts.plus_block(0.1)
        assert artifacts.plus_block(0.1) is block
        assert artifacts.plus_block(0.5) is not block

    def test_select_for_item_rejects_foreign_artifacts(self):
        space, reviews, tau, gamma, config = self._item(seed=1)
        other_space, other_reviews, *_ = self._item(seed=2)
        foreign = SolverArtifacts(other_space, other_reviews, config.lam)
        with pytest.raises(ValueError, match="artifacts"):
            select_for_item(
                space, reviews, tau, gamma, config, artifacts=foreign
            )

    def test_counts_evaluator_matches_item_objective(self):
        for scheme in OpinionScheme:
            space, reviews, tau, gamma, config = self._item(seed=3, scheme=scheme)
            artifacts = SolverArtifacts(space, reviews, config.lam)
            block = artifacts.base_block()
            evaluator = CountsEvaluator(artifacts, block, tau, gamma, config.lam)
            rng = np.random.default_rng(9)
            for _ in range(10):
                size = int(rng.integers(0, min(4, len(reviews)) + 1))
                selection = tuple(
                    sorted(rng.choice(len(reviews), size=size, replace=False))
                )
                counts = block.counts_for(selection)
                expected = item_objective(
                    space, [reviews[j] for j in selection], tau, gamma, config.lam
                )
                assert evaluator.item_value(counts, selection) == expected


class TestStageTimings:
    def test_timer_accumulates_known_stages(self):
        timer = StageTimer()
        with timer.stage("dedup"):
            pass
        with timer.stage("pursuit"):
            pass
        millis = timer.as_millis()
        assert set(millis) == set(STAGES)
        assert all(value >= 0.0 for value in millis.values())

    def test_kernel_result_carries_timings(self):
        rng = np.random.default_rng(11)
        instance = random_instance(rng)
        config = SelectionConfig(max_reviews=3)
        kernel = CompareSetsSelector(use_kernel=True).select(instance, config)
        assert kernel.timings is not None
        assert set(kernel.timings) == set(STAGES)
        reference = CompareSetsSelector(use_kernel=False).select(instance, config)
        assert reference.timings is None

    def test_timings_do_not_affect_equality(self):
        rng = np.random.default_rng(12)
        instance = random_instance(rng)
        config = SelectionConfig(max_reviews=3)
        kernel = CompareSetsSelector(use_kernel=True).select(instance, config)
        reference = CompareSetsSelector(use_kernel=False).select(instance, config)
        assert kernel == reference
