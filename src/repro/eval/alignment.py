"""Review-alignment measurement with ROUGE (§4.1.3).

The paper measures how well the selected reviews of one item align with
those of another: for every pair of reviews coming from two *different*
items, compute ROUGE-1/2/L F1 and average.  Two views are reported:

* *target vs comparative* (Tables 3a, 6a) — pairs between the target
  item's selected reviews and each comparative item's selected reviews;
* *among items* (Tables 3b, 6b) — pairs across every two distinct items.

Scores are kept as fractions in [0, 1]; the paper's tables show them
multiplied by 100 (done in the reporting layer).

Scoring runs on the interned-token ROUGE kernel
(:mod:`repro.text.rouge_kernel`) by default: an :class:`AlignmentScorer`
owns a corpus-level interner, scores exactly the cross-item review pairs
the requested views sum in one kernel call per result, and accumulates
the per-pair F1 values in exactly the reference order, so every
:class:`AlignmentScores` is bitwise equal
to the pure-Python path (``AlignmentScorer(use_kernel=False)``, kept as
the checkable reference).  Both paths tokenise each distinct review text
once per interner, however many pairs or views it appears in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.core.selection import SelectionResult
from repro.text.rouge import rouge_l, rouge_n
from repro.text.rouge_kernel import CorpusInterner, InternedText, rouge_pair_grid


@dataclass(frozen=True, slots=True)
class AlignmentScores:
    """Mean ROUGE-1/2/L F1 over cross-item review pairs."""

    rouge_1: float
    rouge_2: float
    rouge_l: float
    num_pairs: int

    def scaled(self, factor: float = 100.0) -> tuple[float, float, float]:
        """The three scores multiplied by ``factor`` (paper-style x100)."""
        return (
            self.rouge_1 * factor,
            self.rouge_2 * factor,
            self.rouge_l * factor,
        )


_EMPTY = AlignmentScores(rouge_1=0.0, rouge_2=0.0, rouge_l=0.0, num_pairs=0)

VIEWS = ("target", "among")


def _pair_scores(
    tokens_a: Sequence[Sequence[str]], tokens_b: Sequence[Sequence[str]]
) -> tuple[float, float, float, int]:
    """Summed ROUGE-1/2/L over the cross product of two token-list groups.

    The pure-Python reference path; the kernel path must reproduce these
    sums bitwise (same per-pair F1 values, same accumulation order).
    """
    total_1 = total_2 = total_l = 0.0
    pairs = 0
    for a in tokens_a:
        for b in tokens_b:
            total_1 += rouge_n(a, b, 1).f1
            total_2 += rouge_n(a, b, 2).f1
            total_l += rouge_l(a, b).f1
            pairs += 1
    return total_1, total_2, total_l, pairs


def _view_sums(
    num_items: int,
    views: tuple[str, ...],
    block_sums: Callable[[int, int], tuple[float, float, float, int]],
) -> dict[str, tuple[float, float, float, int]]:
    """Add each item pair's block sums to the views that count it.

    Item pairs (i, j), i < j, run in the reference order; the target view
    counts only i = 0, so pairs with i > 0 are skipped unless the among
    view is asked for.
    """
    sums = {view: [0.0, 0.0, 0.0, 0] for view in views}
    first_items = range(num_items - 1) if "among" in views else range(1)
    for i in first_items:
        for j in range(i + 1, num_items):
            s1, s2, sl, count = block_sums(i, j)
            for view in views:
                if view == "target" and i != 0:
                    continue
                totals = sums[view]
                totals[0] += s1
                totals[1] += s2
                totals[2] += sl
                totals[3] += count
    return {view: tuple(totals) for view, totals in sums.items()}


class AlignmentScorer:
    """Batched alignment scoring with a shared corpus interner.

    One scorer should live per corpus/experiment: review texts are
    interned (and tokenised) once and reused across results, budgets,
    algorithms, and both views; each result costs one masked
    :func:`~repro.text.rouge_kernel.rouge_pair_grid` call.
    ``use_kernel=False`` selects the pure-Python reference path (same
    memoised token lists) for equivalence checks and benchmarks.
    """

    def __init__(
        self,
        *,
        use_kernel: bool = True,
        interner: CorpusInterner | None = None,
    ) -> None:
        self.use_kernel = use_kernel
        self.interner = interner if interner is not None else CorpusInterner()

    # -- per-result group preparation ---------------------------------------

    def _interned_groups(self, result: SelectionResult) -> list[list[InternedText]]:
        return [
            [self.interner.intern(review.text) for review in result.selected_reviews(i)]
            for i in range(result.instance.num_items)
        ]

    def _token_groups(self, result: SelectionResult) -> list[list[list[str]]]:
        return [
            [self.interner.tokens(review.text) for review in result.selected_reviews(i)]
            for i in range(result.instance.num_items)
        ]

    @staticmethod
    def _block_sums(blocks) -> tuple[float, float, float, int]:
        """Sum one cross-item block's F1 grids in the reference order.

        ``blocks`` holds the three (|A|, |B|) arrays; accumulation runs
        sequentially in (a outer, b inner) order, so the totals are
        bitwise equal to the reference's pair-by-pair ``+=`` loop.
        """
        block_1, block_2, block_l = blocks
        total_1 = total_2 = total_l = 0.0
        for value in block_1.ravel().tolist():
            total_1 += value
        for value in block_2.ravel().tolist():
            total_2 += value
        for value in block_l.ravel().tolist():
            total_l += value
        return total_1, total_2, total_l, block_1.shape[0] * block_1.shape[1]

    def _kernel_view_sums(
        self, groups: list[list[InternedText]], views: tuple[str, ...]
    ) -> dict[str, tuple[float, float, float, int]]:
        """Per-view F1 sums from one kernel call per result.

        The flattened reviews are scored against themselves, but only at
        the pairs (a in item i, b in item j, i < j) the views sum, with
        i = 0 alone when only the target view is asked for; each item
        pair's block is then summed in the reference order.
        """
        offsets = [0, *accumulate(len(group) for group in groups)]
        item = np.repeat(np.arange(len(groups)), np.diff(offsets))
        pairs = item[:, None] < item[None, :]
        if "among" not in views:
            pairs &= (item == 0)[:, None]
        flat = [interned for group in groups for interned in group]
        grid = rouge_pair_grid(flat, flat, pairs=pairs)

        def block_sums(i: int, j: int) -> tuple[float, float, float, int]:
            rows = slice(offsets[i], offsets[i + 1])
            cols = slice(offsets[j], offsets[j + 1])
            return self._block_sums(
                (grid.rouge_1[rows, cols], grid.rouge_2[rows, cols], grid.rouge_l[rows, cols])
            )

        return _view_sums(len(groups), views, block_sums)

    def _reference_view_sums(
        self, groups: list[list[list[str]]], views: tuple[str, ...]
    ) -> dict[str, tuple[float, float, float, int]]:
        """Pure-Python per-view sums (the original pair-loop semantics)."""
        return _view_sums(
            len(groups), views, lambda i, j: _pair_scores(groups[i], groups[j])
        )

    def _score_views(
        self, result: SelectionResult, views: tuple[str, ...]
    ) -> dict[str, AlignmentScores]:
        if self.use_kernel:
            groups = self._interned_groups(result)
            view_sums = self._kernel_view_sums(groups, views)
        else:
            groups = self._token_groups(result)
            view_sums = self._reference_view_sums(groups, views)
        scores: dict[str, AlignmentScores] = {}
        for view, (s1, s2, sl, pairs) in view_sums.items():
            scores[view] = (
                _EMPTY
                if pairs == 0
                else AlignmentScores(s1 / pairs, s2 / pairs, sl / pairs, pairs)
            )
        return scores

    # -- views --------------------------------------------------------------

    def score(self, result: SelectionResult, view: str) -> AlignmentScores:
        """One view ("target" or "among") of one result."""
        if view not in VIEWS:
            raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
        return self._score_views(result, (view,))[view]

    def score_both(
        self, result: SelectionResult
    ) -> tuple[AlignmentScores, AlignmentScores]:
        """(target view, among view) computing each review pair once.

        The among view's (0, j) blocks are exactly the target view's
        blocks, so experiments needing both panels (Table 3) score every
        cross-item pair a single time.
        """
        scores = self._score_views(result, ("target", "among"))
        return scores["target"], scores["among"]

    def score_many(
        self, results: Sequence[SelectionResult], view: str
    ) -> list[AlignmentScores]:
        """One view over a batch of results (shared interner)."""
        return [self.score(result, view) for result in results]


# Module-level default scorer: the free functions below share one interner
# so repeated calls over the same corpus never re-tokenise.  Reset it when
# scoring disjoint corpora in one long-lived process and memory matters.
_DEFAULT_SCORER: AlignmentScorer | None = None


def default_scorer() -> AlignmentScorer:
    """The shared kernel-backed scorer used by the free functions."""
    global _DEFAULT_SCORER
    if _DEFAULT_SCORER is None:
        _DEFAULT_SCORER = AlignmentScorer()
    return _DEFAULT_SCORER


def reset_default_scorer() -> None:
    """Drop the shared scorer (and its interned corpus)."""
    global _DEFAULT_SCORER
    _DEFAULT_SCORER = None


def target_vs_comparative_alignment(
    result: SelectionResult, *, scorer: AlignmentScorer | None = None
) -> AlignmentScores:
    """Mean ROUGE between the target's and each comparative's selections."""
    return (scorer or default_scorer()).score(result, "target")


def among_items_alignment(
    result: SelectionResult, *, scorer: AlignmentScorer | None = None
) -> AlignmentScores:
    """Mean ROUGE over review pairs across every two distinct items."""
    return (scorer or default_scorer()).score(result, "among")


def mean_alignment(scores: Sequence[AlignmentScores]) -> AlignmentScores:
    """Average per-instance scores, weighting instances equally (paper-style).

    Instances with no cross-item pairs (e.g. single-item restrictions) are
    skipped rather than dragging the mean to zero.
    """
    usable = [s for s in scores if s.num_pairs > 0]
    if not usable:
        return _EMPTY
    return AlignmentScores(
        rouge_1=sum(s.rouge_1 for s in usable) / len(usable),
        rouge_2=sum(s.rouge_2 for s in usable) / len(usable),
        rouge_l=sum(s.rouge_l for s in usable) / len(usable),
        num_pairs=sum(s.num_pairs for s in usable),
    )
