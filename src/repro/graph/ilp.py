"""Exact solvers for the TargetHkS integer program (Eq. 7).

The paper solves TargetHkS_ILP with Gurobi under a 60-second limit and
reports the fraction of instances solved to proven optimality (Table 5).
This module provides two offline equivalents:

* :class:`MilpBackendSolver` — the standard linearisation of the quadratic
  0-1 objective (y_ij = gamma_i * gamma_j with y_ij <= gamma_i,
  y_ij <= gamma_j, y_ij >= gamma_i + gamma_j - 1) handed to scipy's HiGHS
  MILP solver with a time limit.
* :class:`BranchAndBoundSolver` — from-scratch and exact.  Up to
  :data:`ENUMERATION_LIMIT` candidate subsets (C(n-1, k-1)) it scores
  every subset at once in one vectorised enumeration; above it, it runs
  a depth-first branch and bound on the quadratic form.  The DFS's
  admissible upper bound for a partial choice counts every chosen-chosen
  edge exactly, plus for each remaining slot the best possible
  "attachment" value of any candidate vertex (edges to the chosen set at
  full value, candidate-candidate edges at half value per endpoint),
  which never underestimates the completion.

Both report whether optimality was proven, so the Table-5 "#Optimal
Solution %" column is reproducible with either backend.  Both report
the canonical :func:`subset_weight` of their sorted subset, so one
subset weighs the same bits whichever solver found it.  The enumeration
breaks exact ties toward the lexicographically lowest sorted subset,
like :func:`~repro.graph.target_hks.solve_brute_force`; the DFS and the
MILP return some subset of maximal weight.

Both solvers accept an optional :class:`~repro.resilience.deadline.Deadline`
(falling back to the ambient :func:`~repro.resilience.deadline.deadline_scope`
when none is passed) in addition to their constructor ``time_limit``; the
effective budget is the tighter of the two.  Hitting the budget degrades
to the best incumbent with ``proven_optimal=False`` — it never raises —
mirroring how the paper reports non-proven solutions under the 60-second
Gurobi limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.resilience.deadline import Deadline, resolve_deadline

#: The most candidate subsets C(n-1, k-1) that :class:`BranchAndBoundSolver`
#: scores by enumeration; larger graphs go to its depth-first search.  At
#: serving's default ``max_comparisons=10`` (n <= 11) a graph has at most
#: 252 candidates.
ENUMERATION_LIMIT = 2**15


@dataclass(frozen=True, slots=True)
class IlpSolution:
    """A (possibly proven-optimal) solution of Eq. 7."""

    selected: tuple[int, ...]
    weight: float
    proven_optimal: bool
    solve_seconds: float


def _validate_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weights must be square, got shape {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if not np.allclose(weights, weights.T, atol=1e-9):
        raise ValueError("weights must be symmetric")
    return weights


def subset_weight(weights: np.ndarray, subset: tuple[int, ...] | list[int]) -> float:
    """Total edge weight sum_{i<j in subset} w_ij, summed canonically.

    The canonical order sorts the subset to s_0 < s_1 < ... and adds
    w[s_a, s_b] for every a < b in lexicographic order of (a, b), left to
    right from 0.0.  Every solver reports this sum, so a subset weighs
    the same bits whichever solver found it.
    """
    ordered = sorted(int(v) for v in subset)
    total = 0.0
    for a, row in enumerate(weights[np.ix_(ordered, ordered)].tolist()):
        for value in row[a + 1 :]:
            total += value
    return total


def enumerate_optimum(
    weights: np.ndarray, k: int, target: int, deadline: Deadline
) -> tuple[int, ...] | None:
    """The lexicographically lowest heaviest k-subset holding ``target``.

    Scores all C(n-1, k-1) candidates at once.  Column r of ``members``
    is the r-th candidate in lexicographic order, sorted, and the totals
    accumulate pair by pair in :func:`subset_weight`'s order, so each
    total is bitwise that candidate's canonical weight and ``argmax``'s
    first maximum is the lexicographically lowest optimal subset.  The
    deadline is polled between pair passes; ``None`` means it expired.
    """
    others = [v for v in range(weights.shape[0]) if v != target]
    count = comb(len(others), k - 1)
    combos = np.fromiter(
        chain.from_iterable(combinations(others, k - 1)),
        dtype=np.intp,
        count=count * (k - 1),
    ).reshape(count, k - 1)
    members = np.sort(
        np.column_stack([combos, np.full(count, target, dtype=np.intp)]), axis=1
    ).T.copy()
    totals = np.zeros(count)
    for a in range(k - 1):
        if deadline.expired():
            return None
        for b in range(a + 1, k):
            totals += weights[members[a], members[b]]
    return tuple(int(v) for v in members[:, int(np.argmax(totals))])


def greedy_incumbent(weights: np.ndarray, k: int, target: int) -> list[int]:
    """Algorithm-2 greedy solution, used as incumbent / timeout fallback."""
    chosen = [target]
    remaining = set(range(weights.shape[0])) - {target}
    while len(chosen) < k and remaining:
        chosen_array = np.array(chosen)
        best_vertex = max(
            sorted(remaining),
            key=lambda v: float(weights[v, chosen_array].sum()),
        )
        chosen.append(best_vertex)
        remaining.discard(best_vertex)
    return chosen


class MilpBackendSolver:
    """Eq. 7 linearised and solved by scipy's HiGHS MILP backend."""

    def __init__(self, time_limit: float = 60.0) -> None:
        if time_limit <= 0:
            raise ValueError("time_limit must be positive")
        self.time_limit = time_limit

    def solve(
        self,
        weights: np.ndarray,
        k: int,
        target: int = 0,
        deadline: Deadline | None = None,
    ) -> IlpSolution:
        """Heaviest k-subgraph containing ``target``; k nodes total.

        The effective budget is the tighter of ``deadline`` (or the
        ambient deadline scope) and the constructor ``time_limit``.  If
        the budget runs out before HiGHS finds any incumbent, the greedy
        solution is returned with ``proven_optimal=False`` instead of
        raising.
        """
        weights = _validate_weights(weights)
        n = weights.shape[0]
        if not (1 <= k <= n):
            raise ValueError(f"k must be in [1, {n}], got {k}")
        if not (0 <= target < n):
            raise ValueError(f"target {target} out of range for n={n}")
        effective = resolve_deadline(deadline).tightened(self.time_limit)

        start = time.perf_counter()
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        num_pairs = len(pairs)
        num_vars = n + num_pairs  # gamma_0..gamma_{n-1}, then y per pair

        objective = np.zeros(num_vars)
        for pair_index, (i, j) in enumerate(pairs):
            objective[n + pair_index] = -weights[i, j]  # milp minimises

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        lower: list[float] = []
        upper: list[float] = []
        row_count = 0

        def add_row(entries: list[tuple[int, float]], lo: float, hi: float) -> None:
            nonlocal row_count
            for col, value in entries:
                rows.append(row_count)
                cols.append(col)
                data.append(value)
            lower.append(lo)
            upper.append(hi)
            row_count += 1

        # sum gamma = k
        add_row([(i, 1.0) for i in range(n)], k, k)
        # linearisation per pair
        for pair_index, (i, j) in enumerate(pairs):
            y = n + pair_index
            add_row([(y, 1.0), (i, -1.0)], -np.inf, 0.0)          # y <= gamma_i
            add_row([(y, 1.0), (j, -1.0)], -np.inf, 0.0)          # y <= gamma_j
            add_row([(y, 1.0), (i, -1.0), (j, -1.0)], -1.0, np.inf)  # y >= gi+gj-1

        constraint_matrix = sparse.csc_matrix(
            (data, (rows, cols)), shape=(row_count, num_vars)
        )
        constraints = LinearConstraint(constraint_matrix, lower, upper)

        variable_lower = np.zeros(num_vars)
        variable_upper = np.ones(num_vars)
        variable_lower[target] = 1.0  # gamma_target = 1 (Eq. 7c)
        bounds = Bounds(variable_lower, variable_upper)
        integrality = np.ones(num_vars)

        result = milp(
            c=objective,
            constraints=constraints,
            bounds=bounds,
            integrality=integrality,
            options={"time_limit": effective.as_time_limit(cap=self.time_limit)},
        )
        elapsed = time.perf_counter() - start
        if result.x is None:
            # status 1 = iteration/time limit: degrade to the greedy
            # incumbent rather than raising — the budget, not the model,
            # is what failed (the paper reports non-proven solutions).
            if result.status == 1 or effective.expired():
                selected = tuple(sorted(greedy_incumbent(weights, k, target)))
                return IlpSolution(
                    selected=selected,
                    weight=subset_weight(weights, selected),
                    proven_optimal=False,
                    solve_seconds=elapsed,
                )
            raise RuntimeError(f"MILP backend returned no solution: {result.message}")
        gamma = result.x[:n]
        selected = tuple(int(i) for i in np.flatnonzero(gamma > 0.5))
        return IlpSolution(
            selected=selected,
            weight=subset_weight(weights, selected),
            proven_optimal=(result.status == 0),
            solve_seconds=elapsed,
        )


class BranchAndBoundSolver:
    """From-scratch exact branch and bound on the quadratic 0-1 objective."""

    def __init__(self, time_limit: float = 60.0) -> None:
        if time_limit <= 0:
            raise ValueError("time_limit must be positive")
        self.time_limit = time_limit

    def solve(
        self,
        weights: np.ndarray,
        k: int,
        target: int = 0,
        deadline: Deadline | None = None,
    ) -> IlpSolution:
        """Heaviest k-subgraph containing ``target``, proven optimal in budget.

        Up to :data:`ENUMERATION_LIMIT` candidate subsets this is
        :func:`enumerate_optimum`; above it, a DFS branch and bound.
        The effective budget is the tighter of ``deadline`` (or the
        ambient deadline scope) and the constructor ``time_limit``.  The
        enumeration polls it between pair passes; the DFS checks it at
        every search node *and* inside the bound computation itself, so
        a single expensive bound over a large candidate set cannot
        overshoot the budget by more than a few iterations.  Either way
        an exhausted budget yields the best incumbent (at worst the
        greedy one) with ``proven_optimal=False``.
        """
        weights = _validate_weights(weights)
        n = weights.shape[0]
        if not (1 <= k <= n):
            raise ValueError(f"k must be in [1, {n}], got {k}")
        if not (0 <= target < n):
            raise ValueError(f"target {target} out of range for n={n}")
        effective = resolve_deadline(deadline).tightened(self.time_limit)

        start = time.perf_counter()
        if comb(n - 1, k - 1) <= ENUMERATION_LIMIT and not effective.expired():
            selected = enumerate_optimum(weights, k, target, effective)
            if selected is not None:
                return IlpSolution(
                    selected=selected,
                    weight=subset_weight(weights, selected),
                    proven_optimal=True,
                    solve_seconds=time.perf_counter() - start,
                )
            # The budget ran out mid-enumeration: the search below sees
            # it at its first node and returns the greedy incumbent.

        # Greedy incumbent (Algorithm 2) gives a strong initial lower bound.
        incumbent = greedy_incumbent(weights, k, target)
        incumbent_weight = subset_weight(weights, incumbent)

        # Candidates ordered by total weighted degree: heavier vertices
        # first tends to find good solutions early and prune harder.
        others = [v for v in range(n) if v != target]
        others.sort(key=lambda v: -float(weights[v].sum()))

        best = list(incumbent)
        best_weight = incumbent_weight
        timed_out = False

        chosen = [target]
        chosen_weight = 0.0

        def bound(position: int, slots: int) -> float:
            """Admissible completion bound for candidates[position:].

            Checks the deadline every few candidates: on a large
            candidate set a single bound computation is the most
            expensive step between search-node deadline checks, so
            without this an almost-expired budget could overshoot by the
            full cost of one bound pass.
            """
            nonlocal timed_out
            candidates = others[position:]
            if slots == 0 or not candidates:
                return 0.0
            values = []
            candidate_array = np.array(candidates)
            chosen_array = np.array(chosen)
            for index, v in enumerate(candidates):
                if index % 16 == 0 and effective.expired():
                    timed_out = True
                    return float("inf")  # never prunes; dfs aborts next check
                to_chosen = float(weights[v, chosen_array].sum())
                cross = np.sort(weights[v, candidate_array])[::-1]
                # v itself appears with weight 0 (zero diagonal), harmless.
                top_cross = float(cross[: max(0, slots - 1)].sum())
                values.append(to_chosen + 0.5 * top_cross)
            values.sort(reverse=True)
            return float(sum(values[:slots]))

        def dfs(position: int) -> None:
            nonlocal best, best_weight, chosen_weight, timed_out
            if timed_out:
                return
            if effective.expired():
                timed_out = True
                return
            slots = k - len(chosen)
            if slots == 0:
                if chosen_weight > best_weight + 1e-12:
                    best = list(chosen)
                    best_weight = chosen_weight
                return
            if len(others) - position < slots:
                return
            if chosen_weight + bound(position, slots) <= best_weight + 1e-12:
                return
            if timed_out:
                return
            vertex = others[position]
            # Branch 1: include vertex.
            gain = float(weights[vertex, np.array(chosen)].sum())
            chosen.append(vertex)
            chosen_weight += gain
            dfs(position + 1)
            chosen.pop()
            chosen_weight -= gain
            # Branch 2: exclude vertex.
            dfs(position + 1)

        dfs(0)
        elapsed = time.perf_counter() - start
        return IlpSolution(
            selected=tuple(sorted(best)),
            weight=subset_weight(weights, tuple(best)),
            proven_optimal=not timed_out,
            solve_seconds=elapsed,
        )
