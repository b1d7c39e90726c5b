"""Equivalence harness: the vectorised ROUGE kernel vs the reference.

The kernel's contract is *bitwise* equality with :mod:`repro.text.rouge`
— same clipped-match / LCS integers, same float operations in the same
order — so every comparison here uses ``==`` on floats, not approx.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.alignment import AlignmentScorer
from repro.text.rouge import _lcs_length, rouge_l, rouge_n, rouge_scores
from repro.text.rouge_kernel import (
    CorpusInterner,
    _lcs_pairs,
    pairwise_alignment_matrix,
    rouge_pair_grid,
    rouge_scores_many,
)

WORDS = [
    "battery", "screen", "great", "poor", "the", "is", "very", "camera",
    "café", "naïve", "résumé", "don't", "well-made", "скоро", "好",
]


def random_texts(rng: np.random.Generator, count: int, max_len: int = 14) -> list[str]:
    texts = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        texts.append(" ".join(rng.choice(WORDS, size=length)))
    return texts


def assert_grid_matches_reference(group_a: list[str], group_b: list[str]) -> None:
    interner = CorpusInterner()
    grid = pairwise_alignment_matrix(group_a, group_b, interner=interner)
    for i, a in enumerate(group_a):
        tokens_a = interner.tokens(a)
        for j, b in enumerate(group_b):
            tokens_b = interner.tokens(b)
            assert grid.rouge_1[i, j] == rouge_n(tokens_a, tokens_b, 1).f1
            assert grid.rouge_2[i, j] == rouge_n(tokens_a, tokens_b, 2).f1
            assert grid.rouge_l[i, j] == rouge_l(tokens_a, tokens_b).f1


class TestGridEquivalence:
    def test_random_grids_bitwise_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            group_a = random_texts(rng, int(rng.integers(1, 6)))
            group_b = random_texts(rng, int(rng.integers(1, 6)))
            assert_grid_matches_reference(group_a, group_b)

    def test_empty_and_single_token_reviews(self):
        group = ["", "battery", "battery battery", "the screen is great"]
        assert_grid_matches_reference(group, group)

    def test_duplicate_reviews(self):
        group = ["great screen great", "great screen great", "poor battery"]
        assert_grid_matches_reference(group, group)

    def test_unicode_reviews(self):
        group = ["café naïve 好 好", "скоро café", "don't don't well-made"]
        assert_grid_matches_reference(group, ["好 café", "", "naïve"])

    def test_heavy_repetition_exercises_threshold_depth(self):
        group_a = ["the the the the battery the", "the battery"]
        group_b = ["the the battery battery battery", "the"]
        assert_grid_matches_reference(group_a, group_b)

    def test_empty_groups_yield_empty_grids(self):
        grid = pairwise_alignment_matrix([], ["battery"])
        assert grid.shape == (0, 1)
        grid = pairwise_alignment_matrix(["battery"], [])
        assert grid.shape == (1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), max_size=12),
        st.lists(st.sampled_from(WORDS), max_size=12),
    )
    def test_property_pair_bitwise_equal(self, tokens_a, tokens_b):
        grid = pairwise_alignment_matrix([tokens_a], [tokens_b])
        assert grid.rouge_1[0, 0] == rouge_n(tokens_a, tokens_b, 1).f1
        assert grid.rouge_2[0, 0] == rouge_n(tokens_a, tokens_b, 2).f1
        assert grid.rouge_l[0, 0] == rouge_l(tokens_a, tokens_b).f1


class TestBatchApis:
    def test_rouge_scores_many_matches_loop(self):
        rng = np.random.default_rng(3)
        candidates = random_texts(rng, 8)
        references = random_texts(rng, 8)
        batch = rouge_scores_many(candidates, references)
        loop = [rouge_scores(c, r) for c, r in zip(candidates, references)]
        assert batch == loop

    def test_rouge_scores_many_length_mismatch(self):
        with pytest.raises(ValueError, match="candidates"):
            rouge_scores_many(["a"], ["a", "b"])

    def test_shared_interner_reused_across_calls(self):
        interner = CorpusInterner()
        pairwise_alignment_matrix(["battery screen"], ["screen"], interner=interner)
        size = interner.vocab_size
        pairwise_alignment_matrix(["battery"], ["screen"], interner=interner)
        assert interner.vocab_size == size  # no re-interning, vocab unchanged


class TestTokenizationMemo:
    """Regression: tokenize must run once per distinct review text."""

    def test_interner_tokenizes_each_text_once(self, monkeypatch):
        import repro.text.rouge_kernel as kernel_module

        calls: list[str] = []
        real_tokenize = kernel_module.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(kernel_module, "tokenize", counting_tokenize)
        interner = CorpusInterner()
        texts = ["battery is great", "screen is poor", "battery is great"]
        for _ in range(3):
            for text in texts:
                interner.intern(text)
                interner.tokens(text)
        assert sorted(calls) == sorted(set(texts))

    def test_scorer_tokenizes_once_per_review_across_views(
        self, instances, config, monkeypatch
    ):
        import repro.text.rouge_kernel as kernel_module
        from repro.core.selection import make_selector

        result = make_selector("CompaReSetS").select(instances[0], config)
        distinct_texts = {
            review.text
            for i in range(result.instance.num_items)
            for review in result.selected_reviews(i)
        }

        calls: list[str] = []
        real_tokenize = kernel_module.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(kernel_module, "tokenize", counting_tokenize)
        for use_kernel in (True, False):
            calls.clear()
            scorer = AlignmentScorer(use_kernel=use_kernel)
            scorer.score_both(result)
            scorer.score(result, "target")
            scorer.score(result, "among")
            assert len(calls) == len(set(calls))
            assert set(calls) <= distinct_texts


class TestScorerEquivalence:
    """Kernel and reference AlignmentScorer paths agree bitwise."""

    def test_alignment_scores_bitwise_equal(self, instances, config):
        from repro.core.selection import make_selector

        results = [
            make_selector("CompaReSetS").select(instance, config)
            for instance in instances[:3]
        ]
        kernel_scorer = AlignmentScorer(use_kernel=True)
        reference_scorer = AlignmentScorer(use_kernel=False)
        for result in results:
            assert kernel_scorer.score_both(result) == reference_scorer.score_both(
                result
            )
            for view in ("target", "among"):
                assert kernel_scorer.score(result, view) == reference_scorer.score(
                    result, view
                )

    def test_rouge_pair_grid_direct(self):
        interner = CorpusInterner()
        group = [interner.intern(t) for t in ["battery is great", "", "great great"]]
        grid = rouge_pair_grid(group, group)
        assert grid.shape == (3, 3)
        assert grid.rouge_1[0, 0] == 1.0
        assert grid.rouge_1[1, 1] == 0.0  # empty vs empty


#: Reference lengths either side of the LCS state's 64-bit word boundaries.
WORD_BOUNDARY_LENGTHS = (63, 64, 65, 127, 128, 129)


@st.composite
def small_alphabets(draw) -> list[str]:
    """1-12 words, so matches are dense and tokens repeat."""
    return [f"w{index}" for index in range(draw(st.integers(1, 12)))]


def token_lists(alphabet: list[str], lengths) -> st.SearchStrategy[list[str]]:
    """Token lists of a drawn length: token by token, or a repeated pattern
    of runs of one word, whose long unmatched stretches leave whole words
    of the LCS state all ones for a carry to ripple through."""

    def of_length(length: int) -> st.SearchStrategy[list[str]]:
        tokens = st.lists(st.sampled_from(alphabet), min_size=length, max_size=length)
        runs = st.lists(
            st.tuples(st.sampled_from(alphabet), st.just(64) | st.integers(1, 130)),
            min_size=1,
            max_size=5,
        ).map(
            lambda pattern: (
                [word for word, count in pattern for _ in range(count)] * length
            )[:length]
        )
        return tokens | runs

    return lengths.flatmap(of_length)


@st.composite
def boundary_groups(draw) -> tuple[list[list[str]], list[list[str]], np.ndarray]:
    """Candidates of 0-200 tokens against references that include every
    word-boundary length, plus a random mask over their pairs."""
    alphabet = draw(small_alphabets())
    lengths = st.integers(0, 200) | st.sampled_from(WORD_BOUNDARY_LENGTHS)
    group_a = draw(st.lists(token_lists(alphabet, lengths), min_size=1, max_size=3))
    group_b = [
        draw(token_lists(alphabet, st.just(length))) for length in WORD_BOUNDARY_LENGTHS
    ] + draw(st.lists(token_lists(alphabet, st.integers(0, 200)), max_size=2))
    group_b = draw(st.permutations(group_b))
    mask = np.array(
        draw(
            st.lists(
                st.booleans(),
                min_size=len(group_a) * len(group_b),
                max_size=len(group_a) * len(group_b),
            )
        ),
        dtype=bool,
    ).reshape(len(group_a), len(group_b))
    return group_a, group_b, mask


class TestWordBoundaries:
    """The bit-parallel LCS across uint64 word boundaries, against the DP."""

    @settings(max_examples=40, deadline=None)
    @given(boundary_groups())
    def test_property_lcs_and_f1_bitwise_equal(self, case):
        group_a, group_b, mask = case
        interner = CorpusInterner()
        interned_a = [interner.intern_tokens(tokens) for tokens in group_a]
        interned_b = [interner.intern_tokens(tokens) for tokens in group_b]
        rows, cols = np.nonzero(np.ones(mask.shape, dtype=bool))
        lcs = _lcs_pairs(
            [t.ids for t in interned_a], [t.ids for t in interned_b], rows, cols
        )
        full = rouge_pair_grid(interned_a, interned_b)
        masked = rouge_pair_grid(interned_a, interned_b, pairs=mask)
        for row, col, length in zip(rows.tolist(), cols.tolist(), lcs.tolist()):
            a, b = group_a[row], group_b[col]
            assert length == _lcs_length(a, b), (len(a), len(b))
            f1_l = rouge_l(a, b).f1
            assert full.rouge_l[row, col] == f1_l
            if mask[row, col]:
                assert masked.rouge_l[row, col] == f1_l
                assert masked.rouge_1[row, col] == rouge_n(a, b, 1).f1
                assert masked.rouge_2[row, col] == rouge_n(a, b, 2).f1
            else:
                assert masked.rouge_l[row, col] == 0.0
                assert masked.rouge_1[row, col] == masked.rouge_2[row, col] == 0.0

    def test_word_aligned_blocks_exhaustively(self):
        """Every candidate of up to 3 tokens over {a, b, c} against every
        reference of three one-word blocks (64, 64, then 1 or 64 tokens).
        Each block is one state word, matched whole or not at all, so a
        carry out of word 0 must ripple through an unmatched word 1: "b a"
        against 64 "a", 64 "c", "b" has an LCS of 1, not 2."""
        alphabet = ("a", "b", "c")
        candidates = [[]] + [
            list(tokens)
            for length in (1, 2, 3)
            for tokens in itertools.product(alphabet, repeat=length)
        ]
        references = [
            [first] * 64 + [second] * 64 + [third] * last
            for first, second, third in itertools.product(alphabet, repeat=3)
            for last in (1, 64)
        ]
        grid = pairwise_alignment_matrix(candidates, references)
        for row, candidate in enumerate(candidates):
            for col, reference in enumerate(references):
                assert grid.rouge_l[row, col] == rouge_l(candidate, reference).f1, (
                    candidate,
                    col,
                )

    def test_one_repeated_word_carries_across_words(self):
        """Every step of a one-word candidate carries through whole words."""
        long_mixed = ["w0", "w1"] * 70
        group_a = [["w0"] * 129, long_mixed[:129], long_mixed]
        group_b = [["w0"] * 129, long_mixed[:65], long_mixed[:128], long_mixed]
        assert_grid_matches_reference(
            [" ".join(tokens) for tokens in group_a],
            [" ".join(tokens) for tokens in group_b],
        )


@st.composite
def review_groupings(draw) -> list[list[list[str]]]:
    """1-8 items of 0-4 reviews each (some items empty), 0-160 tokens."""
    alphabet = draw(small_alphabets())
    review = token_lists(alphabet, st.integers(0, 160))
    return draw(
        st.lists(st.lists(review, max_size=4), min_size=1, max_size=8)
    )


class TestViewSumProperty:
    """One masked grid call per result sums exactly what the reference sums."""

    @settings(max_examples=25, deadline=None)
    @given(review_groupings())
    def test_property_kernel_view_sums_equal_reference(self, groups):
        scorer = AlignmentScorer()
        interned = [[scorer.interner.intern_tokens(r) for r in group] for group in groups]
        for views in (("target",), ("among",), ("target", "among")):
            assert scorer._kernel_view_sums(interned, views) == (
                scorer._reference_view_sums(groups, views)
            ), views
