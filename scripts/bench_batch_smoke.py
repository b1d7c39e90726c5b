"""Smoke test for the cross-request batch solver: fast CI-sized checks.

Three invariants, sized to run in seconds:

* a burst of 8 distinct select requests solved in one ``select_many``
  call is byte-identical to solving them one at a time through the
  selectors (each a one-job batch; shared artifacts, memo cleared per
  run) and to the scipy-nnls reference selectors (``use_kernel=False``);
* the provable candidate pre-screen returns the same selection as both
  the unscreened kernel and the scipy-nnls reference on a wide item,
  while actually pruning candidates;
* on a runner with >= 4 effective CPUs the batched burst must land
  under 6x the heaviest single solve (the full benchmark's floor); on
  starved CI only the overhead floor holds (batched <= 1.5x sequential).

Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/bench_batch_smoke.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

from repro.core.batch_solver import BatchJob, select_many
from repro.core.compare_sets import CompareSetsSelector, select_for_item
from repro.core.compare_sets_plus import CompareSetsPlusSelector
from repro.core.omp_kernel import SolverArtifacts, StageTimer
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.data.instances import ComparisonInstance
from repro.data.models import AspectMention, Product, Review

BURST = 8
BURST_REVIEWS = 200
SCREEN_REVIEWS = 1_200
REPEATS = 3


def effective_cpus() -> float:
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            return max(1.0, float(quota) / float(period))
    except (OSError, ValueError):
        pass
    return float(os.cpu_count() or 1)


def build_instance(rng, items, count, num_aspects, max_width):
    aspects = tuple(f"a{i}" for i in range(num_aspects))
    products = tuple(Product(f"p{i}", f"P{i}", "C") for i in range(items))
    all_reviews = []
    for item in range(items):
        reviews = []
        for index in range(count):
            width = int(rng.integers(1, max_width + 1))
            chosen = sorted(rng.choice(num_aspects, size=width, replace=False))
            mentions = tuple(
                AspectMention(
                    aspects[a],
                    int(rng.integers(-1, 2)),
                    float(rng.integers(1, 4)) / 2,
                )
                for a in chosen
            )
            reviews.append(
                Review(f"r{item}-{index}", f"p{item}", "u", 4.0, "t", mentions)
            )
        all_reviews.append(tuple(reviews))
    return ComparisonInstance(products=products, reviews=tuple(all_reviews))


def best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        begun = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begun)
    return best, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def burst_check() -> None:
    rng = np.random.default_rng(12)
    instance = build_instance(rng, 2, BURST_REVIEWS, 6, 2)
    config = SelectionConfig()
    space = build_space(instance, config)
    artifacts = tuple(
        SolverArtifacts(space, reviews, config.lam)
        for reviews in instance.reviews
    )
    jobs = []
    for index in range(BURST):
        m = 1 + index
        if index % 3 == 2:
            jobs.append(
                BatchJob("CompaReSetS+", SelectionConfig(max_reviews=m, mu=0.1))
            )
        else:
            jobs.append(BatchJob("CompaReSetS", SelectionConfig(max_reviews=m)))

    def clear():
        for item in artifacts:
            item.clear_solve_cache()

    def selector(job, use_kernel=True):
        if job.algorithm == "CompaReSetS":
            return CompareSetsSelector(use_kernel=use_kernel)
        return CompareSetsPlusSelector(variant=job.variant, use_kernel=use_kernel)

    def solo(job):
        return selector(job).select(
            instance, job.config, space=space, solver_artifacts=artifacts
        )

    select_many(instance, jobs, space=space, solver_artifacts=artifacts)

    def batched():
        clear()
        return select_many(instance, jobs, space=space, solver_artifacts=artifacts)

    def sequential():
        clear()
        return [solo(job) for job in jobs]

    batched_s, batched_results = best_of(batched)
    sequential_s, sequential_results = best_of(sequential)
    check(
        all(
            ours.selections == theirs.selections
            for ours, theirs in zip(batched_results, sequential_results)
        ),
        f"{BURST}-burst batched selections == sequential selections",
    )
    check(
        all(
            ours.selections
            == selector(job, use_kernel=False).select(instance, job.config).selections
            for job, ours in zip(jobs, batched_results)
        ),
        f"{BURST}-burst batched selections == nnls reference selections",
    )

    def heaviest():
        clear()
        return solo(jobs[-1])

    heaviest_s, _ = best_of(heaviest)
    multiplier = batched_s / heaviest_s
    overhead = batched_s / sequential_s
    print(
        f"   burst={batched_s * 1e3:.1f}ms sequential={sequential_s * 1e3:.1f}ms "
        f"heaviest solo={heaviest_s * 1e3:.1f}ms ({multiplier:.2f}x one solve)"
    )
    if effective_cpus() >= 4:
        check(multiplier <= 6.0, f"burst multiplier {multiplier:.2f} <= 6x one solve")
    else:
        check(
            overhead <= 1.5,
            f"burst overhead {overhead:.2f} <= 1.5x sequential (starved CPU floor)",
        )


def screen_check() -> None:
    rng = np.random.default_rng(21)
    instance = build_instance(rng, 1, SCREEN_REVIEWS, 12, 4)
    config = SelectionConfig(max_reviews=5)
    space = build_space(instance, config)
    reviews = instance.reviews[0]
    tau = space.opinion_vector(reviews)
    gamma = space.aspect_vector(reviews)

    timer = StageTimer()
    screened = SolverArtifacts(space, reviews, config.lam, screen="provable")
    ours = select_for_item(
        space, reviews, tau, gamma, config, artifacts=screened, timer=timer
    )
    unscreened = SolverArtifacts(space, reviews, config.lam, screen="off")
    kernel = select_for_item(
        space, reviews, tau, gamma, config, artifacts=unscreened
    )
    reference = select_for_item(
        space, reviews, tau, gamma, config, use_kernel=False
    )
    check(ours == kernel == reference, "provable screen == kernel == reference")
    total = timer.counters.get("screen_total", 0)
    kept = timer.counters.get("screen_kept", 0)
    check(0 < kept < total, f"screen pruned {total - kept}/{total} candidates")


def main() -> int:
    print(f"effective CPUs: {effective_cpus():.1f}")
    burst_check()
    screen_check()
    print("batch solver smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
