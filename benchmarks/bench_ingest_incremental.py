"""Bench: incremental ingest — bordered-Gram re-warm vs cold rebuild.

One duplicate-heavy instance (1 target + 3 comparatives) at 100 / 1k /
10k reviews per item.  The warm path applies a <= 1% review delta to one
comparative through :meth:`~repro.serve.store.ItemStore.apply_delta`,
which patches the cached :class:`~repro.serve.store.InstanceArtifacts`
in place: the delta's columns are reconciled into the existing dedup
groups and the Gram matrices are extended by grid-aligned bordered
blocks (O(q * d * D)) instead of being rebuilt from scratch
(O(q^2 * D) plus a full-corpus dedup + incidence walk).  The cold path
is what a drop-and-rebuild ingest would pay: a fresh
:class:`~repro.serve.store.ItemStore` over the final corpus, artifacts
rebuilt, Gram blocks materialised.

Every size asserts the patched artifacts equal the cold build
byte-for-byte (dedup order, Gram bytes, taus/Gamma/columns) and that
per-item kernel selections match; the smallest size repeats the identity
check under all three opinion schemes.  Floors are CPU-aware (cgroup
quota respected): with >= 4 effective CPUs the re-warm at 1k
reviews/item must be >= 5x faster than the cold rebuild; on starved CI
only a 2x floor holds.  Archives ``results/BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import RESULTS_DIR, emit
from repro.core.omp_kernel import solve_item_many
from repro.core.problem import SelectionConfig
from repro.core.vectors import OpinionScheme
from repro.data.corpus import Corpus
from repro.data.models import AspectMention, Product, Review
from repro.serve.store import ItemStore, _patch_mismatch

SIZES = (100, 1_000, 10_000)
ITEMS = 4
NUM_ASPECTS = 36
PATTERN_POOL = 512
REPEATS = 3
TARGET = "p0"
PATCHED = "p1"


def _effective_cpus() -> float:
    """CPUs actually usable: the cgroup quota when set, else the count."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            return max(1.0, float(quota) / float(period))
    except (OSError, ValueError):
        pass
    return float(os.cpu_count() or 1)


def _mention_pool(rng, count):
    """Distinct mention patterns; sampling them makes duplicate columns."""
    pool, seen = [], set()
    while len(pool) < count:
        k = int(rng.integers(1, 4))
        aspects = tuple(
            sorted(rng.choice(NUM_ASPECTS, size=k, replace=False).tolist())
        )
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        strengths = tuple(int(s) for s in rng.integers(1, 4, size=k))
        key = (aspects, signs, strengths)
        if key in seen:
            continue
        seen.add(key)
        pool.append(
            tuple(
                AspectMention(f"a{a:02d}", sign, float(strength))
                for a, sign, strength in zip(aspects, signs, strengths)
            )
        )
    return pool


def _workload(reviews_per_item: int, seed: int = 7):
    """A corpus plus a <= 1% delta to one comparative item.

    Delta mentions are drawn from patterns already present in the corpus
    so the delta stays coverable by the cached vector space (the serving
    steady state this bench measures; novel aspects force a rebuild and
    are covered by the test suite instead).
    """
    rng = np.random.default_rng(seed + reviews_per_item)
    pool = _mention_pool(rng, min(PATTERN_POOL, 8 * reviews_per_item))
    products = [
        Product(
            f"p{i}",
            f"Item {i}",
            "bench",
            also_bought=tuple(f"p{j}" for j in range(ITEMS) if j != i),
        )
        for i in range(ITEMS)
    ]
    reviews, used = [], []
    for i in range(ITEMS):
        for j in range(reviews_per_item):
            pattern = pool[int(rng.integers(len(pool)))]
            used.append(pattern)
            reviews.append(
                Review(
                    f"r{i}-{j}",
                    f"p{i}",
                    f"u{j % 97}",
                    rating=float(1 + j % 5),
                    text="",
                    mentions=pattern,
                )
            )
    delta = tuple(
        Review(
            f"d-{j}",
            PATCHED,
            f"u{j % 97}",
            rating=float(1 + j % 5),
            text="",
            mentions=used[int(rng.integers(len(used)))],
        )
        for j in range(max(1, reviews_per_item // 100))
    )
    return Corpus("IngestBench", products, reviews), delta


def _materialise(artifacts):
    for solver in artifacts.solver:
        block = solver.base_block()
        block.gram_op
        block.gram_asp
    return artifacts


def _warm_store(corpus, config):
    store = ItemStore(corpus)
    _materialise(store.artifacts(TARGET, config))
    return store


def _selections(artifacts, config):
    results = []
    for tau, solver in zip(artifacts.taus, artifacts.solver):
        [selection] = solve_item_many(solver, [(tau, artifacts.gamma, config)])
        results.append((selection.selected, selection.objective))
    return results


def _identical(patched, cold, config) -> bool:
    if _patch_mismatch(patched, cold) is not None:
        return False
    return _selections(patched, config) == _selections(cold, config)


def _sweep():
    config = SelectionConfig(max_reviews=5)
    rows = []
    for count in SIZES:
        corpus, delta = _workload(count)
        cold_corpus = corpus.with_appended_reviews(delta)

        patch_s, reported_ms = float("inf"), 0.0
        outcome = None
        patched_store = None
        for _ in range(REPEATS):
            store = _warm_store(corpus, config)
            begun = time.perf_counter()
            outcome = store.apply_delta(delta)
            elapsed = time.perf_counter() - begun
            if elapsed < patch_s:
                patch_s, reported_ms = elapsed, outcome.patch_ms
                patched_store = store

        cold_s, cold_art = float("inf"), None
        for _ in range(REPEATS):
            begun = time.perf_counter()
            store = ItemStore(cold_corpus)
            art = _materialise(store.artifacts(TARGET, config))
            elapsed = time.perf_counter() - begun
            if elapsed < cold_s:
                cold_s, cold_art = elapsed, art

        patched_art = patched_store.artifacts(TARGET, config)
        identical = _identical(patched_art, cold_art, config)
        if count == SIZES[0]:
            # Cheap enough to pin all three opinion schemes, not just
            # the default binary encoding.
            for scheme in (OpinionScheme.THREE_POLARITY, OpinionScheme.UNARY_SCALE):
                variant = SelectionConfig(max_reviews=5, scheme=scheme)
                warm = _warm_store(corpus, variant)
                warm.apply_delta(delta)
                cold = _materialise(
                    ItemStore(cold_corpus).artifacts(TARGET, variant)
                )
                identical = identical and _identical(
                    warm.artifacts(TARGET, variant), cold, variant
                )

        rows.append(
            {
                "reviews_per_item": count,
                "delta_reviews": len(delta),
                "unique_columns": patched_art.solver[
                    patched_art.comparative_ids.index(PATCHED) + 1
                ].base_block().num_groups,
                "patch_ms": patch_s * 1e3,
                "patch_stage_ms": reported_ms,
                "cold_ms": cold_s * 1e3,
                "speedup": cold_s / patch_s,
                "patched": outcome.patched,
                "rebuilt": outcome.rebuilt,
                "identical": identical,
            }
        )
    return rows


def run_ingest():
    return {"effective_cpus": _effective_cpus(), "rows": _sweep()}


def render(report) -> str:
    lines = [
        "Incremental ingest: bordered-Gram re-warm vs cold rebuild "
        f"({report['effective_cpus']:.1f} effective CPUs)",
        f"{'N/item':>7} {'delta':>6} {'q':>6} {'patch ms':>9} "
        f"{'cold ms':>9} {'speedup':>8} {'identical':>9}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['reviews_per_item']:>7} {row['delta_reviews']:>6} "
            f"{row['unique_columns']:>6} {row['patch_ms']:>9.2f} "
            f"{row['cold_ms']:>9.2f} {row['speedup']:>7.1f}x "
            f"{str(row['identical']):>9}"
        )
    return "\n".join(lines)


def test_ingest_incremental(benchmark, capsys):
    report = benchmark.pedantic(run_ingest, rounds=1, iterations=1)

    for row in report["rows"]:
        assert row["identical"], f"divergence at N={row['reviews_per_item']}"
        assert row["patched"] >= 1 and row["rebuilt"] == 0, row
    by_size = {row["reviews_per_item"]: row for row in report["rows"]}
    milestone = by_size[1_000]
    # Unconditional floor: patching must clearly beat the cold rebuild
    # even on a starved runner; the headline 5x floor needs real CPUs.
    assert milestone["speedup"] >= 2.0, milestone
    if report["effective_cpus"] >= 4:
        assert milestone["speedup"] >= 5.0, milestone

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_ingest.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    emit("ingest_incremental", render(report), capsys)
