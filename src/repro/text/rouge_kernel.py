"""Vectorized ROUGE kernels over interned token ids.

:mod:`repro.text.rouge` scores one review pair at a time with ``Counter``
n-gram overlap and a pure-Python LCS DP.  The alignment experiments
(Tables 3/4/6, Figs. 5/6) score *every cross-item pair* of selected
reviews per instance, so that pairwise cost dominates evaluation wall
clock.  This module makes the pair grid a handful of numpy operations:

* :class:`CorpusInterner` — review text -> int32 token-id arrays, interned
  once per corpus (plus a memo of the reference-path token lists, so the
  pure-Python path also tokenises each distinct text exactly once);
* ROUGE-1/2 — clipped n-gram matches via local-vocabulary count matrices
  (``np.searchsorted`` + ``np.bincount``) and a broadcast minimum-sum;
  bigrams are packed into int64 (``id_a << 32 | id_b``) before counting;
* ROUGE-L — a bit-parallel LCS (Allison & Dix 1986; Hyyrö 2004) that
  advances every scored pair together, a few uint64 word operations per
  candidate token;
* batch APIs — :func:`rouge_pair_grid` scores an |A| x |B| review-pair
  grid, or only the pairs of a given mask, in one call;
  :func:`pairwise_alignment_matrix` scores a full grid of raw texts, and
  :func:`rouge_scores_many` scores aligned candidate/reference pairs.

Exactness guarantee (same pattern as :mod:`repro.core.omp_kernel`): the
kernel computes the *same integers* (clipped matches, n-gram totals, LCS
lengths) as the reference and then applies the same IEEE-754 double
operations in the same order (``p = m/ct``, ``r = m/rt``,
``f1 = 2*p*r/(p+r)``), so every score is bitwise equal to
:func:`repro.text.rouge.rouge_n` / :func:`~repro.text.rouge.rouge_l`.
The reference implementation stays untouched as the ground truth;
``tests/test_rouge_kernel.py`` asserts the equality across schemes,
edge cases, and hypothesis-generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.text.rouge import RougeScore
from repro.text.tokenize import tokenize

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass(frozen=True, slots=True)
class InternedText:
    """One text as interned unigram ids and packed bigram ids.

    ``ids`` keeps document order (needed for the LCS); ``bigrams``
    packs consecutive id pairs into int64 (high word = left token), so
    bigram counting reuses the unigram machinery.  Arrays are shared and
    must not be mutated.
    """

    ids: np.ndarray
    bigrams: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class CorpusInterner:
    """Corpus-level token interner: text -> :class:`InternedText`, cached.

    One interner should live per corpus/generation (the alignment scorer
    owns one); interning is idempotent and the vocabulary only grows, so
    id arrays remain valid across calls.  ``tokens`` memoises the plain
    token lists for the reference scoring path, guaranteeing ``tokenize``
    runs once per distinct text however many pairs the text appears in.
    """

    def __init__(self) -> None:
        self._vocab: dict[str, int] = {}
        self._interned: dict[str, InternedText] = {}
        self._tokens: dict[str, list[str]] = {}

    def __len__(self) -> int:
        return len(self._interned)

    @property
    def vocab_size(self) -> int:
        """Number of distinct tokens interned so far."""
        return len(self._vocab)

    def tokens(self, text: str) -> list[str]:
        """Memoised ``tokenize(text)``; callers must not mutate the list."""
        cached = self._tokens.get(text)
        if cached is None:
            cached = tokenize(text)
            self._tokens[text] = cached
        return cached

    def intern(self, text: str) -> InternedText:
        """Intern one text (cached by exact text content)."""
        cached = self._interned.get(text)
        if cached is None:
            cached = self.intern_tokens(self.tokens(text))
            self._interned[text] = cached
        return cached

    def intern_tokens(self, tokens: Sequence[str]) -> InternedText:
        """Intern an explicit token sequence (uncached)."""
        vocab = self._vocab
        ids = np.fromiter(
            (vocab.setdefault(token, len(vocab)) for token in tokens),
            dtype=np.int32,
            count=len(tokens),
        )
        if len(ids) >= 2:
            bigrams = (ids[:-1].astype(np.int64) << 32) | ids[1:].astype(np.int64)
        else:
            bigrams = _EMPTY_I64
        return InternedText(ids=ids, bigrams=bigrams)


@dataclass(frozen=True, slots=True)
class RougeGrid:
    """F1 grids for one |A| x |B| review-pair cross product.

    Entry ``[a, b]`` is bitwise equal to the reference
    ``rouge_*(A[a], B[b]).f1``.
    """

    rouge_1: np.ndarray
    rouge_2: np.ndarray
    rouge_l: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.rouge_1.shape


def _f1_grid(matches: np.ndarray, candidate_totals: np.ndarray, reference_totals: np.ndarray) -> np.ndarray:
    """Vectorised :meth:`RougeScore.from_counts` F1 over a match grid.

    Applies exactly the reference's float operations elementwise:
    ``p = m/ct`` (0 when ct == 0), ``r = m/rt`` (0 when rt == 0), and
    ``f1 = 2*p*r/(p+r)`` (0 when p + r == 0).
    """
    m = matches.astype(np.float64)
    ct = candidate_totals.astype(np.float64)[:, None]
    rt = reference_totals.astype(np.float64)[None, :]
    p = np.divide(m, ct, out=np.zeros_like(m), where=ct > 0)
    r = np.divide(m, rt, out=np.zeros_like(m), where=rt > 0)
    denominator = p + r
    numerator = 2.0 * p * r
    return np.divide(
        numerator, denominator, out=np.zeros_like(m), where=denominator > 0
    )


def _count_matrix(gram_lists: Sequence[np.ndarray], local_vocab: np.ndarray) -> np.ndarray:
    """Per-row gram counts over a sorted local vocabulary (one bincount)."""
    num_rows, vocab_size = len(gram_lists), len(local_vocab)
    lengths = np.array([len(g) for g in gram_lists], dtype=np.int64)
    if not lengths.sum():
        return np.zeros((num_rows, vocab_size), dtype=np.int64)
    stacked = np.concatenate([g for g in gram_lists if len(g)])
    mapped = np.searchsorted(local_vocab, stacked)
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)
    flat = np.bincount(rows * vocab_size + mapped, minlength=num_rows * vocab_size)
    return flat.reshape(num_rows, vocab_size)


def _clipped_match_grid(
    grams_a: Sequence[np.ndarray], grams_b: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clipped n-gram matches + totals for every (a, b) pair.

    ``matches[a, b] = sum_g min(count_a[g], count_b[g])`` — the integer
    the reference computes from two ``Counter`` objects.  The minimum-sum
    is decomposed over count thresholds,
    ``min(x, y) = sum_t [x >= t][y >= t]``, so each level is one 0/1
    matrix product (exact in float64: every partial sum is a small
    integer).
    """
    totals_a = np.array([len(g) for g in grams_a], dtype=np.int64)
    totals_b = np.array([len(g) for g in grams_b], dtype=np.int64)
    matches = np.zeros((len(grams_a), len(grams_b)), dtype=np.int64)
    stacked = [g for g in grams_a if len(g)] + [g for g in grams_b if len(g)]
    if not stacked:
        return matches, totals_a, totals_b
    local_vocab = np.unique(np.concatenate(stacked))
    counts_a = _count_matrix(grams_a, local_vocab)
    counts_b = _count_matrix(grams_b, local_vocab)
    depth = int(min(counts_a.max(initial=0), counts_b.max(initial=0)))
    if depth == 1:
        # The common case: no gram repeats on at least one side of any
        # pair-relevant level, so one boolean matmul covers everything.
        matches += (
            counts_a.astype(bool).astype(np.float64)
            @ counts_b.astype(bool).astype(np.float64).T
        ).astype(np.int64)
    else:
        accumulated = np.zeros(matches.shape, dtype=np.float64)
        for threshold in range(1, depth + 1):
            accumulated += (
                (counts_a >= threshold).astype(np.float64)
                @ (counts_b >= threshold).astype(np.float64).T
            )
        matches += accumulated.astype(np.int64)
    return matches, totals_a, totals_b


def _spans(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, position) of every element of sequences laid end to end."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, position


def _lcs_pairs(
    ids_a: Sequence[np.ndarray], ids_b: Sequence[np.ndarray], rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """LCS length of ``ids_a[rows[p]]`` against ``ids_b[cols[p]]`` for every p.

    Bit-parallel LCS (Allison & Dix 1986; Hyyrö 2004): bit j of a pair's
    state ``V`` is position j of the reference; with ``M`` the positions
    holding the candidate's next token, a step is ``V <- (V + (V & M)) |
    (V & ~M)`` from all ones, and the LCS is the count of zero bits (bits
    past the reference's end never match, so stay one).  Pairs advance
    together, longest candidate first, so the ones running are a prefix;
    references over 64 tokens take several uint64 words, carrying from
    word to word.  Bits stay uint64 (numpy < 2 turns uint64 with int64
    into float64); the mask table covers only the candidates' tokens.
    """
    lengths_a = np.array([len(ids) for ids in ids_a], dtype=np.int64)
    lengths_b = np.array([len(ids) for ids in ids_b], dtype=np.int64)
    lcs = np.zeros(len(rows), dtype=np.int64)
    live = np.flatnonzero((lengths_a[rows] > 0) & (lengths_b[cols] > 0))
    if not len(live):
        return lcs
    live = live[np.argsort(-lengths_a[rows[live]], kind="stable")]
    members, member_index = np.unique(rows[live], return_inverse=True)
    refs, ref_index = np.unique(cols[live], return_inverse=True)
    words = (int(lengths_b[refs].max()) + 63) // 64
    # tokens[t, c]: candidate members[c]'s t-th token as an index into vocab.
    owner, step = _spans(lengths_a[members])
    vocab, token = np.unique(np.concatenate([ids_a[m] for m in members]), return_inverse=True)
    tokens = np.zeros((int(lengths_a[members].max()), len(members)), dtype=np.intp)
    tokens[step, owner] = token
    # table[w, r * |vocab| + k]: word w of the mask where refs[r] holds vocab[k].
    ref_tokens = np.concatenate([ids_b[ref] for ref in refs])
    ref_row, position = _spans(lengths_b[refs])
    column = np.searchsorted(vocab, ref_tokens).clip(max=len(vocab) - 1)
    hit = vocab[column] == ref_tokens
    table = np.zeros((words, len(refs) * len(vocab)), dtype=np.uint64)
    np.bitwise_or.at(
        table,
        (position[hit] >> 6, ref_row[hit] * len(vocab) + column[hit]),
        np.left_shift(np.uint64(1), (position[hit] & 63).astype(np.uint64)),
    )
    base = ref_index * len(vocab)
    running = lengths_a[rows[live]]
    state = np.full((words, len(live)), ~np.uint64(0), dtype=np.uint64)
    for t, n in enumerate(np.searchsorted(-running, -np.arange(running[0])).tolist()):
        v = state[:, :n]
        u = v & np.take(table, base[:n] + tokens[t][member_index[:n]], axis=1)
        total = v + u
        if words > 1:
            carry = total < v
            for word in range(1, words):
                total[word] += carry[word - 1]
                carry[word] |= carry[word - 1] & (total[word] == 0)
        state[:, :n] = total | (v ^ u)  # v ^ u == v & ~M, as u = v & M
    # np.bitwise_count needs numpy 2: count the zero bits a byte at a time.
    ones = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    lcs[live] = ones[(~state).view(np.uint8)].reshape(words, -1, 8).sum(axis=(0, 2))
    return lcs


def rouge_pair_grid(
    group_a: Sequence[InternedText], group_b: Sequence[InternedText], *, pairs: np.ndarray | None = None
) -> RougeGrid:
    """Score the |A| x |B| cross product of two interned groups.

    ``pairs``, an (|A|, |B|) boolean mask, limits scoring to the pairs it
    marks; every other entry of the three grids is 0.
    """
    na, nb = len(group_a), len(group_b)
    if na == 0 or nb == 0:
        empty = np.zeros((na, nb), dtype=np.float64)
        return RougeGrid(rouge_1=empty, rouge_2=empty.copy(), rouge_l=empty.copy())

    ids_a = [t.ids for t in group_a]
    ids_b = [t.ids for t in group_b]

    m1, t1a, t1b = _clipped_match_grid(ids_a, ids_b)
    f1_1 = _f1_grid(m1, t1a, t1b)

    m2, t2a, t2b = _clipped_match_grid(
        [t.bigrams for t in group_a], [t.bigrams for t in group_b]
    )
    f1_2 = _f1_grid(m2, t2a, t2b)

    scored = np.ones((na, nb), dtype=bool) if pairs is None else pairs
    rows, cols = np.nonzero(scored)
    lcs = np.zeros((na, nb), dtype=np.int64)
    lcs[rows, cols] = _lcs_pairs(ids_a, ids_b, rows, cols)
    f1_l = _f1_grid(lcs, t1a, t1b)
    if pairs is not None:
        f1_1 = np.where(pairs, f1_1, 0.0)
        f1_2 = np.where(pairs, f1_2, 0.0)

    return RougeGrid(rouge_1=f1_1, rouge_2=f1_2, rouge_l=f1_l)


def pairwise_alignment_matrix(
    group_a: Sequence[str | Sequence[str]],
    group_b: Sequence[str | Sequence[str]],
    interner: CorpusInterner | None = None,
) -> RougeGrid:
    """ROUGE-1/2/L F1 grids over the cross product of two review groups.

    Accepts raw texts (interned via ``interner``, a fresh one when not
    given) or pre-tokenised sequences.  ``grid.rouge_l[a, b]`` is bitwise
    equal to ``rouge_l(group_a[a], group_b[b]).f1``.
    """
    interner = interner if interner is not None else CorpusInterner()

    def as_interned(item: str | Sequence[str]) -> InternedText:
        if isinstance(item, str):
            return interner.intern(item)
        return interner.intern_tokens(item)

    return rouge_pair_grid(
        [as_interned(item) for item in group_a],
        [as_interned(item) for item in group_b],
    )


def _pair_counts(a: InternedText, b: InternedText) -> tuple[int, int, int]:
    """(unigram matches, bigram matches, lcs length) for one pair."""

    def clipped(x: np.ndarray, y: np.ndarray) -> int:
        if not len(x) or not len(y):
            return 0
        unique_x, counts_x = np.unique(x, return_counts=True)
        unique_y, counts_y = np.unique(y, return_counts=True)
        _, idx_x, idx_y = np.intersect1d(
            unique_x, unique_y, assume_unique=True, return_indices=True
        )
        return int(np.minimum(counts_x[idx_x], counts_y[idx_y]).sum())

    only = np.zeros(1, dtype=np.intp)
    lcs = int(_lcs_pairs([a.ids], [b.ids], only, only)[0])
    return clipped(a.ids, b.ids), clipped(a.bigrams, b.bigrams), lcs


def rouge_scores_interned(a: InternedText, b: InternedText) -> dict[str, RougeScore]:
    """Kernel twin of :func:`repro.text.rouge.rouge_scores` on interned texts.

    Returns full precision/recall/F1 triples built through the *same*
    :meth:`RougeScore.from_counts` scalar arithmetic as the reference.
    """
    unigram_matches, bigram_matches, lcs = _pair_counts(a, b)
    len_a, len_b = len(a.ids), len(b.ids)
    return {
        "rouge-1": RougeScore.from_counts(unigram_matches, len_a, len_b),
        "rouge-2": RougeScore.from_counts(
            bigram_matches, len(a.bigrams), len(b.bigrams)
        ),
        "rouge-l": RougeScore.from_counts(lcs, len_a, len_b),
    }


def rouge_scores_many(
    candidates: Sequence[str | Sequence[str]],
    references: Sequence[str | Sequence[str]],
    interner: CorpusInterner | None = None,
) -> list[dict[str, RougeScore]]:
    """Score aligned (candidate, reference) pairs with the kernel.

    The batch counterpart of calling
    :func:`repro.text.rouge.rouge_scores` in a loop; scores are bitwise
    identical to that loop.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    interner = interner if interner is not None else CorpusInterner()

    def as_interned(item: str | Sequence[str]) -> InternedText:
        if isinstance(item, str):
            return interner.intern(item)
        return interner.intern_tokens(item)

    return [
        rouge_scores_interned(as_interned(candidate), as_interned(reference))
        for candidate, reference in zip(candidates, references)
    ]
