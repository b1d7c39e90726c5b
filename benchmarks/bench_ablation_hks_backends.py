"""Ablation: exact TargetHkS backends (HiGHS MILP vs from-scratch B&B).

Both backends solve Eq. 7 exactly under a time limit; this bench compares
their runtime and agreement across graph sizes, plus the greedy
heuristic's speed.  Every graph here has at most C(15, 4) = 1,365
candidate subsets, so ``bnb`` answers by its vectorised enumeration; the
"B&B DFS" column forces its depth-first branch and bound instead
(``ENUMERATION_LIMIT = 0``).  Expected shape: identical objective values
wherever both prove optimality, and B&B -- enumeration or DFS -- faster
than the MILP at every size, the gap widening with n (the MILP's
linearisation grows with the n(n-1)/2 pair variables); greedy is faster
still.
"""

import time

import numpy as np

from benchmarks.conftest import emit
from repro.eval.reporting import format_table
from repro.graph import ilp
from repro.graph.target_hks import solve_greedy, solve_ilp


def _random_weights(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    distances = rng.uniform(0, 10, (n, n))
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0)
    weights = distances.max() - distances
    np.fill_diagonal(weights, 0)
    return weights


def _timed(solve):
    start = time.perf_counter()
    solution = solve()
    return solution, time.perf_counter() - start


def _run_backends(monkeypatch, sizes=(8, 12, 16), k: int = 5, trials: int = 3):
    rows = []
    means = []
    mismatches = 0
    for n in sizes:
        timings = {"milp": [], "bnb": [], "dfs": [], "greedy": []}
        for trial in range(trials):
            weights = _random_weights(n, seed=100 * n + trial)
            milp, seconds = _timed(
                lambda: solve_ilp(weights, k, backend="milp", time_limit=30)
            )
            timings["milp"].append(seconds)
            bnb, seconds = _timed(
                lambda: solve_ilp(weights, k, backend="bnb", time_limit=30)
            )
            timings["bnb"].append(seconds)
            with monkeypatch.context() as patch:
                patch.setattr(ilp, "ENUMERATION_LIMIT", 0)
                dfs, seconds = _timed(
                    lambda: solve_ilp(weights, k, backend="bnb", time_limit=30)
                )
            timings["dfs"].append(seconds)
            greedy, seconds = _timed(lambda: solve_greedy(weights, k))
            timings["greedy"].append(seconds)
            for exact in (bnb, dfs):
                if milp.proven_optimal and exact.proven_optimal:
                    if abs(milp.weight - exact.weight) > 1e-6:
                        mismatches += 1
            assert greedy.weight <= max(milp.weight, bnb.weight) + 1e-9
        mean = {name: float(np.mean(values)) * 1000 for name, values in timings.items()}
        means.append(mean)
        rows.append(
            [
                n,
                f"{mean['milp']:.1f}",
                f"{mean['bnb']:.2f}",
                f"{mean['dfs']:.1f}",
                f"{mean['greedy']:.3f}",
            ]
        )
    return rows, means, mismatches


def test_ablation_hks_backends(benchmark, capsys, monkeypatch):
    rows, means, mismatches = benchmark.pedantic(
        _run_backends, args=(monkeypatch,), rounds=1, iterations=1
    )
    assert mismatches == 0, "exact backends disagreed on a proven-optimal instance"
    slower = [row[0] for row, mean in zip(rows, means) if mean["bnb"] >= mean["milp"]]
    assert not slower, f"shape: B&B not faster than the MILP at n = {slower}"
    text = format_table(
        ["n", "MILP ms", "B&B ms", "B&B DFS ms", "Greedy ms"],
        rows,
        title="Ablation: exact TargetHkS backends, k=5 (mean over 3 graphs)",
    )
    emit("ablation_hks_backends", text, capsys)
