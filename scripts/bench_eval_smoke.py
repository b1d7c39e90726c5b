"""Smoke test for the ROUGE evaluation kernel: fast CI-sized equivalence check.

Runs the interned-token kernel against the pure-Python reference on a
synthetic corpus and hand-shaped edge cases, asserting bitwise-identical
alignment scores everywhere and that the kernel is at least as fast as
the reference (>= 1x; the full benchmark asserts the real speedup
targets).  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/bench_eval_smoke.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

from repro.core.problem import SelectionConfig
from repro.core.selection import make_selector
from repro.data.instances import build_instance
from repro.data.synthetic import generate_corpus
from repro.eval.alignment import AlignmentScorer
from repro.text.rouge import rouge_l, rouge_n
from repro.text.rouge_kernel import CorpusInterner, pairwise_alignment_matrix


def synthetic_results(limit=6):
    corpus = generate_corpus("Cellphone", scale=0.35, seed=7)
    config = SelectionConfig(max_reviews=4)
    results = []
    for product in corpus.products:
        instance = build_instance(
            corpus, product.product_id, max_comparisons=5, min_reviews=3
        )
        if instance is not None:
            results.append(make_selector("CompaReSetS").select(instance, config))
        if len(results) == limit:
            break
    return results


def long_review(length, words=("the", "battery", "screen", "is", "great", "poor")):
    """``length`` tokens cycling through ``words``."""
    return " ".join(words[i % len(words)] for i in range(length))


def check_grid_edges():
    # Reviews of 64+ tokens take several words of LCS state; a repeated
    # word against long mixed reviews makes the addition carry across them,
    # and "screen the" against 64 "the", 64 "poor", "screen" carries through
    # a whole unmatched word.
    groups = [
        ["", "battery", "battery battery", "the screen is great", "café 好 café",
         long_review(129, ("battery",)), long_review(64), long_review(128),
         "screen the"],
        ["great great screen", "", "don't don't", "the the the battery the",
         long_review(65), long_review(129), long_review(128, ("battery", "the")),
         long_review(64, ("great",)), "the " * 64 + "poor " * 64 + "screen"],
    ]
    interner = CorpusInterner()
    grid = pairwise_alignment_matrix(groups[0], groups[1], interner=interner)
    for i, a in enumerate(groups[0]):
        for j, b in enumerate(groups[1]):
            ta, tb = interner.tokens(a), interner.tokens(b)
            assert grid.rouge_1[i, j] == rouge_n(ta, tb, 1).f1, (i, j, "rouge-1")
            assert grid.rouge_2[i, j] == rouge_n(ta, tb, 2).f1, (i, j, "rouge-2")
            assert grid.rouge_l[i, j] == rouge_l(ta, tb).f1, (i, j, "rouge-l")
    print("  ok: edge-case grids bitwise equal")


def check_scorer_equivalence(results):
    kernel = AlignmentScorer(use_kernel=True)
    reference = AlignmentScorer(use_kernel=False)
    for index, result in enumerate(results):
        assert kernel.score_both(result) == reference.score_both(result), (
            f"result #{index}: alignment scores diverged"
        )
    print(f"  ok: {len(results)} results scored bitwise equal (both views)")


def check_speedup(results):
    def best_of(fn, repeats=3):
        best, value = float("inf"), None
        for _ in range(repeats):
            begun = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - begun)
        return best, value

    def score_all(use_kernel):
        scorer = AlignmentScorer(use_kernel=use_kernel)
        return [scorer.score_both(result) for result in results]

    ref_s, ref_scores = best_of(lambda: score_all(False))
    ker_s, ker_scores = best_of(lambda: score_all(True))
    assert ref_scores == ker_scores, "scores diverged during timing"
    speedup = ref_s / ker_s
    assert speedup >= 1.0, f"kernel slower than reference: {speedup:.2f}x"
    print(f"  ok: kernel speedup {speedup:.1f}x (>= 1x required)")


def check_parallel_store():
    """The shared worker store must be published and cleaned up."""
    from repro.eval import parallel

    corpus = generate_corpus("Cellphone", scale=0.35, seed=7)
    instances = []
    for product in corpus.products:
        instance = build_instance(
            corpus, product.product_id, max_comparisons=4, min_reviews=3
        )
        if instance is not None:
            instances.append(instance)
        if len(instances) == 3:
            break
    config = SelectionConfig(max_reviews=3)
    inline = parallel.select_parallel(
        "CompaReSetS", instances, config, max_workers=1
    )
    pooled = parallel.select_parallel(
        "CompaReSetS", instances, config, max_workers=2
    )
    assert [r.selections for r in inline] == [r.selections for r in pooled], (
        "pool selections diverged from inline"
    )
    assert parallel._WORKER_STORE == {}, "worker store leaked after run"
    print("  ok: pooled selections match inline; worker store cleaned up")


def main() -> int:
    print("eval kernel smoke: edge-case grids")
    check_grid_edges()
    results = synthetic_results()
    print("eval kernel smoke: scorer equivalence")
    check_scorer_equivalence(results)
    print("eval kernel smoke: speedup")
    check_speedup(results)
    print("eval kernel smoke: parallel shared store")
    check_parallel_store()
    print("eval kernel smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
