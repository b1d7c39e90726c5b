"""TargetHkS: heaviest k-subgraph anchored at the target item (Problem 3).

Solvers:

* :func:`solve_greedy` — Algorithm 2: start from the target, repeatedly
  add the vertex maximising the subgraph weight.
* :func:`solve_ilp` — exact Eq. 7 via a chosen backend ("milp" = HiGHS
  linearisation, "bnb" = from-scratch enumeration or branch and bound),
  time-limited.
* :func:`solve_brute_force` — exhaustive enumeration (tests / tiny n).
* :func:`solve_top_k_similarity` — baseline: k-1 items with the highest
  direct similarity to the target (Table 6's "Top-k similarity").
* :func:`solve_random` — baseline: target plus k-1 uniformly random items.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.graph.ilp import BranchAndBoundSolver, MilpBackendSolver, subset_weight
from repro.resilience.deadline import Deadline


@dataclass(frozen=True, slots=True)
class HksSolution:
    """A TargetHkS solution: chosen vertex indices (target included)."""

    selected: tuple[int, ...]
    weight: float
    algorithm: str
    proven_optimal: bool = False
    solve_seconds: float = 0.0

    def __post_init__(self) -> None:
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected vertices must be distinct")


def total_weight(weights: np.ndarray, subset: tuple[int, ...]) -> float:
    """sum_{i<j in subset} w_ij (Eq. 6)."""
    return subset_weight(np.asarray(weights, dtype=float), subset)


def _check_arguments(weights: np.ndarray, k: int, target: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if weights.ndim != 2 or weights.shape != (n, n):
        raise ValueError(f"weights must be square, got {weights.shape}")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not (0 <= target < n):
        raise ValueError(f"target {target} out of range for n={n}")
    return weights


def solve_greedy(weights: np.ndarray, k: int, target: int = 0) -> HksSolution:
    """Algorithm 2: greedily grow the solution from the target item.

    Each step adds the vertex p_i' maximising the weight of
    rho + {p_i'}; since the existing edges are fixed, that is the vertex
    with the largest total weight to the current set.  Ties break toward
    the lowest vertex index for determinism.

    The gain vector is maintained incrementally: adding vertex v only
    changes each candidate's gain by w(·, v), so the whole solve is
    O(n·k) vector updates instead of recomputing every candidate's sum
    against the chosen set each round (O(n²k)).  Chosen vertices are
    masked to -inf so ``argmax``'s first-maximum rule still breaks ties
    toward the lowest vertex index, exactly like the reference loop
    (kept as :func:`_solve_greedy_reference` for the equivalence tests).
    The reported weight is the canonical :func:`subset_weight` of the
    sorted subset, not the running gain sum, so it matches the exact
    solvers' bits whenever they pick the same subset.
    """
    weights = _check_arguments(weights, k, target)
    chosen = [target]
    gains = weights[:, target].astype(float, copy=True)
    gains[target] = -np.inf
    while len(chosen) < k:
        best = int(np.argmax(gains))
        chosen.append(best)
        gains += weights[:, best]
        gains[best] = -np.inf
    selected = tuple(sorted(chosen))
    return HksSolution(
        selected=selected,
        weight=subset_weight(weights, selected),
        algorithm="TargetHkS_Greedy",
    )


def _solve_greedy_reference(weights: np.ndarray, k: int, target: int = 0) -> HksSolution:
    """The pre-optimisation greedy: recompute every gain each round.

    Kept as the semantic reference for :func:`solve_greedy`'s incremental
    gain updates — same selections, same tie-breaking.
    """
    weights = _check_arguments(weights, k, target)
    n = weights.shape[0]
    chosen = [target]
    remaining = [v for v in range(n) if v != target]
    while len(chosen) < k:
        chosen_array = np.array(chosen)
        gains = [float(weights[v, chosen_array].sum()) for v in remaining]
        best_position = int(np.argmax(gains))
        chosen.append(remaining.pop(best_position))
    selected = tuple(sorted(chosen))
    return HksSolution(
        selected=selected,
        weight=subset_weight(weights, selected),
        algorithm="TargetHkS_Greedy",
    )


def solve_ilp(
    weights: np.ndarray,
    k: int,
    target: int = 0,
    time_limit: float = 60.0,
    backend: str = "milp",
    deadline: Deadline | None = None,
) -> HksSolution:
    """Exact Eq. 7 solution (within the time limit) via the chosen backend.

    ``backend="milp"`` uses scipy's HiGHS on the standard linearisation
    (the Gurobi stand-in); ``backend="bnb"`` uses the from-scratch
    :class:`~repro.graph.ilp.BranchAndBoundSolver` (an enumeration on
    small graphs, a branch and bound above).  ``proven_optimal`` is
    False when the limit was hit first, mirroring the paper's 60-second
    Gurobi budget in Table 5.  An explicit ``deadline`` (or an ambient
    deadline scope) tightens the ``time_limit`` further; see
    :mod:`repro.resilience.deadline`.
    """
    weights = _check_arguments(weights, k, target)
    if backend == "milp":
        solver = MilpBackendSolver(time_limit=time_limit)
    elif backend == "bnb":
        solver = BranchAndBoundSolver(time_limit=time_limit)
    else:
        raise ValueError(f"unknown backend {backend!r}; use 'milp' or 'bnb'")
    solution = solver.solve(weights, k, target, deadline=deadline)
    return HksSolution(
        selected=solution.selected,
        weight=solution.weight,
        algorithm=f"TargetHkS_ILP[{backend}]",
        proven_optimal=solution.proven_optimal,
        solve_seconds=solution.solve_seconds,
    )


def solve_brute_force(weights: np.ndarray, k: int, target: int = 0) -> HksSolution:
    """Exhaustive optimum — O(C(n-1, k-1)); for tests and tiny graphs.

    Scores every subset by its canonical :func:`subset_weight` and keeps
    the first maximum in lexicographic order, the tie rule of
    :func:`~repro.graph.ilp.enumerate_optimum`; the two agree bit for bit.
    """
    weights = _check_arguments(weights, k, target)
    n = weights.shape[0]
    others = [v for v in range(n) if v != target]
    best: tuple[int, ...] = (target,)
    best_weight = -np.inf
    for combo in combinations(others, k - 1):
        subset = (target, *combo)
        weight = subset_weight(weights, subset)
        if weight > best_weight:
            best_weight = weight
            best = subset
    return HksSolution(
        selected=tuple(sorted(best)),
        weight=float(best_weight) if best_weight > -np.inf else 0.0,
        algorithm="TargetHkS_BruteForce",
        proven_optimal=True,
    )


def solve_top_k_similarity(weights: np.ndarray, k: int, target: int = 0) -> HksSolution:
    """Baseline: the k-1 vertices most similar to the target itself."""
    weights = _check_arguments(weights, k, target)
    n = weights.shape[0]
    others = sorted(
        (v for v in range(n) if v != target),
        key=lambda v: (-float(weights[target, v]), v),
    )
    subset = tuple(sorted([target] + others[: k - 1]))
    return HksSolution(
        selected=subset,
        weight=subset_weight(weights, subset),
        algorithm="Top-k similarity",
    )


def solve_random(
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    target: int = 0,
) -> HksSolution:
    """Baseline: target plus k-1 uniformly random other vertices."""
    weights = _check_arguments(weights, k, target)
    n = weights.shape[0]
    others = [v for v in range(n) if v != target]
    picked = rng.choice(others, size=k - 1, replace=False) if k > 1 else []
    subset = tuple(sorted([target] + [int(v) for v in picked]))
    return HksSolution(
        selected=subset,
        weight=subset_weight(weights, subset),
        algorithm="Random",
    )
