"""Smoke test for incremental ingest: fast CI-sized checks.

Three invariants, sized to run in seconds:

* applying a small review delta through ``ItemStore.apply_delta``
  patches the cached artifacts in place (``patched >= 1``,
  ``rebuilt == 0``) and the patched artifacts are byte-identical to a
  cold rebuild of the final corpus — dedup order, Gram bytes,
  taus/Gamma/columns, and the per-item kernel selections;
* the delta ack's version string is lineage-chained
  (``delta_fingerprint`` over the previous version), not a full-corpus
  rehash;
* on a runner with >= 4 effective CPUs the re-warm at 1k reviews/item
  must be >= 4x faster than the cold rebuild (the full benchmark's
  floor is 5x); on starved CI only a 1.5x floor holds.

Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/bench_ingest_smoke.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

from repro.core.omp_kernel import solve_item_many
from repro.core.problem import SelectionConfig
from repro.data.corpus import Corpus
from repro.data.models import AspectMention, Product, Review
from repro.serve.store import ItemStore, _patch_mismatch, delta_fingerprint

ITEMS = 4
NUM_ASPECTS = 24
REVIEWS_PER_ITEM = 1_000
PATTERNS = 384
REPEATS = 3
TARGET = "p0"
PATCHED = "p1"


def effective_cpus() -> float:
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            return max(1.0, float(quota) / float(period))
    except (OSError, ValueError):
        pass
    return float(os.cpu_count() or 1)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def build_workload():
    rng = np.random.default_rng(19)
    pool, seen = [], set()
    while len(pool) < PATTERNS:
        width = int(rng.integers(1, 4))
        aspects = tuple(
            sorted(rng.choice(NUM_ASPECTS, size=width, replace=False).tolist())
        )
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=width))
        if (aspects, signs) in seen:
            continue
        seen.add((aspects, signs))
        pool.append(
            tuple(
                AspectMention(f"a{a:02d}", sign, 1.0)
                for a, sign in zip(aspects, signs)
            )
        )
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
        for j in range(REVIEWS_PER_ITEM):
            pattern = pool[int(rng.integers(len(pool)))]
            used.append(pattern)
            reviews.append(
                Review(f"r{i}-{j}", f"p{i}", f"u{j % 53}", 4.0, "", pattern)
            )
    delta = tuple(
        Review(f"d-{j}", PATCHED, f"u{j % 53}", 4.0, "", used[j])
        for j in range(max(1, REVIEWS_PER_ITEM // 100))
    )
    return Corpus("IngestSmoke", products, reviews), delta


def materialise(artifacts):
    for solver in artifacts.solver:
        block = solver.base_block()
        block.gram_op
        block.gram_asp
    return artifacts


def selections(artifacts, config):
    return [
        (sel.selected, sel.objective)
        for sel in (
            solve_item_many(solver, [(tau, artifacts.gamma, config)])[0]
            for tau, solver in zip(artifacts.taus, artifacts.solver)
        )
    ]


def main() -> int:
    print(f"effective CPUs: {effective_cpus():.1f}")
    config = SelectionConfig(max_reviews=5)
    corpus, delta = build_workload()
    cold_corpus = corpus.with_appended_reviews(delta)

    patch_s = float("inf")
    outcome, patched_store, previous_version = None, None, ""
    for _ in range(REPEATS):
        store = ItemStore(corpus)
        materialise(store.artifacts(TARGET, config))
        version_before = store.version
        begun = time.perf_counter()
        candidate = store.apply_delta(delta)
        elapsed = time.perf_counter() - begun
        if elapsed < patch_s:
            patch_s = elapsed
            outcome, patched_store = candidate, store
            previous_version = version_before

    check(
        outcome.patched >= 1 and outcome.rebuilt == 0,
        f"delta patched artifacts in place "
        f"(patched={outcome.patched}, rebuilt={outcome.rebuilt})",
    )
    check(
        outcome.version.endswith(delta_fingerprint(previous_version, delta)),
        "ack version is lineage-chained from the previous version",
    )

    cold_s, cold_art = float("inf"), None
    for _ in range(REPEATS):
        begun = time.perf_counter()
        art = materialise(ItemStore(cold_corpus).artifacts(TARGET, config))
        elapsed = time.perf_counter() - begun
        if elapsed < cold_s:
            cold_s, cold_art = elapsed, art

    patched_art = patched_store.artifacts(TARGET, config)
    mismatch = _patch_mismatch(patched_art, cold_art)
    check(mismatch is None, f"patched artifacts == cold rebuild bytes ({mismatch})")
    check(
        selections(patched_art, config) == selections(cold_art, config),
        "kernel selections identical after patch",
    )

    speedup = cold_s / patch_s
    print(
        f"   patch={patch_s * 1e3:.1f}ms cold={cold_s * 1e3:.1f}ms "
        f"({speedup:.1f}x)"
    )
    if effective_cpus() >= 4:
        check(speedup >= 4.0, f"re-warm speedup {speedup:.1f} >= 4x cold rebuild")
    else:
        check(
            speedup >= 1.5,
            f"re-warm speedup {speedup:.1f} >= 1.5x (starved CPU floor)",
        )
    print("ingest incremental smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
