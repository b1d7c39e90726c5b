"""Gram-cached Batch-OMP solver core for the Integer-Regression heuristic.

The continuous stage of :mod:`repro.core.integer_regression` re-runs scipy
``nnls`` from scratch for every atom and recomputes the full ``W^T r``
correlation each iteration.  Batch-OMP (Rubinstein, Zibulevsky & Elad 2008,
"Efficient Implementation of the K-SVD Algorithm using Batch Orthogonal
Matching Pursuit") restructures the pursuit around precomputed quantities:

* ``G = W^T W`` (the Gram matrix) and ``b = W^T y`` are computed once;
  the correlation after adding support S with coefficients c is
  ``alpha = b - G[:, S] c`` — a (q, |S|) product instead of a (D, q) one.
* The support least-squares is solved through an incrementally updated
  Cholesky factor of ``G[S, S]`` (one triangular solve per new atom),
  falling back to scipy ``nnls`` when the unconstrained solve goes
  negative or the support turns numerically rank-deficient.

Byte-identical selections demand one refinement over textbook Batch-OMP.
``alpha`` equals ``W^T r`` *mathematically* but not bitwise, and the
incidence structure of review columns produces exact correlation ties
(two disjoint reviews covering equally many target aspects), so ulp-level
noise can flip the greedy atom choice against the reference; likewise the
unconstrained Cholesky coefficients differ from nnls's in the last ulp,
which flips remainder ties inside the discrete rounding stage.  The
default **exact mode** therefore (a) uses ``alpha`` only as a *screen* —
when the winner's margin over the runner-up is below a conservative
epsilon (or the stopping test is borderline), the reference correlation
vector ``W^T (y - W_S c)`` is recomputed with the reference's own
expressions, bitwise — and (b) always takes the support coefficients from
scipy ``nnls`` exactly as the reference does (they feed the rounding
stage, where their last ulp matters).  ``exact=False`` switches to the
textbook fast path (Gram correlations + Cholesky coefficients) whose
selections may diverge on tie-heavy instances; the core benchmark
measures both.

The Eq.-4 / Algorithm-1 matrices are stacked from two row blocks — the
opinion incidence O and the aspect incidence A — so their Grams compose
without ever forming the stack:

    CompaReSetS      W = [O; lam*A]                G = G_op + lam^2 G_asp
    CompaReSetS+     W = [O; lam*A; mu*A * (n-1)]  G = G_op + (lam^2 + (n-1) mu^2) G_asp

where ``G_op = O^T O`` and ``G_asp = A^T A`` are per-item invariants.  An
alternating CompaReSetS+ sweep therefore only recomputes the target
correlation vector ``b``; the Gram never changes.  :class:`SolverArtifacts`
packages these invariants (dedup groups, unique columns, Gram blocks) per
item so the serving layer can reuse them across requests, and
:class:`CountsEvaluator` scores candidate selections directly from group
counts on the precomputed unique columns instead of re-vectorising Python
``Review`` lists per candidate.

Numerical-faithfulness notes (why selections match the reference):

* the dedup of the ``k``-sync-block stack equals the dedup of the
  1-sync-block stack — replicated identical rows cannot split groups;
* ``b = stacked^T y`` reproduces the reference's first-iteration
  correlations bit-for-bit (same arrays, same BLAS call);
* binary / 3-polarity incidence counts are small integers, so evaluating
  pi/phi as ``U @ counts`` is exact under any summation order; the unary
  scheme accumulates raw per-review signed strengths in selection order to
  preserve the reference's floating-point summation;
* the discrete stage (:func:`round_path`) reproduces
  :func:`~repro.core.integer_regression.round_to_counts` byte for byte,
  and the candidate argmin is the reference's.

The equivalence test harness (``tests/test_omp_kernel.py``) and the core
benchmark (``benchmarks/bench_core_solver.py``) assert identical selections
against the scipy-``nnls`` reference across schemes and instance shapes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from collections.abc import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import nnls

from repro.core.distance import concat_scaled, squared_l2
from repro.core.integer_regression import (
    _CORRELATION_TOLERANCE,
    RegressionSelection,
    deduplicate_columns,
)
from repro.core.problem import SelectionConfig
from repro.core.vectors import OpinionScheme, VectorSpace, _sigmoid
from repro.data.models import Review

#: The per-stage timing buckets exposed in serving provenance and metrics.
STAGES = ("dedup", "gram", "screen", "pursuit", "round", "evaluate")

#: A candidate scorer: group counts and the selection they map to -> objective.
_Evaluate = Callable[[np.ndarray, tuple[int, ...]], float]


class StageTimer:
    """Accumulates wall time per solver stage across any number of solves.

    One timer typically spans a whole selector run (all items, all
    sweeps); :meth:`as_millis` snapshots the totals for provenance.
    ``counters`` accumulates integer event counts alongside the timings —
    the candidate pre-screen records how many columns it examined, kept,
    and promoted there, and the serving layer surfaces the totals as
    solver provenance.
    """

    __slots__ = ("seconds", "counters")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.counters: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        began = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - began

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate an integer event counter (screen sizes, rechecks)."""
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def as_millis(self) -> dict[str, float]:
        """Stage totals in milliseconds (a fresh dict; safe to keep)."""
        return {stage: seconds * 1e3 for stage, seconds in self.seconds.items()}


#: Column-chunk width of the canonical Gram computation (see
#: :func:`_grid_gram`).  Smaller chunks make incremental extension cheaper
#: (an extension recomputes at most one partial chunk of old columns) at
#: the cost of more, smaller GEMM calls in the cold build.
_GRAM_CHUNK = 128


def _grid_gram(
    unique: np.ndarray,
    previous: np.ndarray | None = None,
    previous_columns: int = 0,
) -> np.ndarray:
    """``unique.T @ unique`` computed in fixed column-grid chunks.

    BLAS GEMM results for a sub-block are *not* bitwise equal to the
    corresponding slice of one big GEMM (different reduction blocking),
    so a naive bordered update ``[[G, W^T W_d], [W_d^T W, W_d^T W_d]]``
    would drift from a cold rebuild at the ulp level.  Instead both the
    cold build and the incremental extension compute the Gram chunk by
    chunk at *absolute* column positions ``[k*B, (k+1)*B)``: each chunk
    issues the same GEMM calls (same shapes, same operand bytes)
    regardless of how many columns existed when it was first filled, so
    N successive extensions reproduce the cold bytes exactly.

    With ``previous`` (the Gram over the first ``previous_columns``
    columns, itself grid-built), every complete old chunk is copied and
    only the trailing partial chunk plus the appended columns are
    recomputed — O(q * (d + B) * D) instead of O(q^2 * D).
    """
    q = unique.shape[1]
    gram = np.empty((q, q), dtype=unique.dtype)
    keep = 0
    if previous is not None:
        keep = (previous_columns // _GRAM_CHUNK) * _GRAM_CHUNK
        gram[:keep, :keep] = previous[:keep, :keep]
    for start in range(keep, q, _GRAM_CHUNK):
        end = min(start + _GRAM_CHUNK, q)
        block = unique[:, start:end]
        if start:
            cross = unique[:, :start].T @ block
            gram[:start, start:end] = cross
            gram[start:end, :start] = cross.T
        gram[start:end, start:end] = block.T @ block
    return gram


class GramBlock:
    """Dedup groups + Gram blocks for one (lam, mu) stacked-matrix family.

    ``with_sync=False`` is the CompaReSetS family ``[O; lam*A]``;
    ``with_sync=True`` additionally carries one ``mu*A`` copy, which fixes
    the dedup for *every* number of sync blocks (identical rows replicate,
    so extra copies can never split a group).  :meth:`stacked` and
    :meth:`gram` materialise the matrix / Gram for a concrete sync-block
    count on demand and memoise per count.
    """

    __slots__ = (
        "lam",
        "mu",
        "with_sync",
        "groups",
        "capacities",
        "column_group",
        "unique_opinion",
        "unique_aspect",
        "_gram_op",
        "_gram_asp",
        "_dedup_matrix",
        "_sync_rows",
        "_stacks",
        "_grams",
        "_norms",
        "_nonneg",
    )

    def __init__(
        self,
        opinion: np.ndarray,
        aspect: np.ndarray,
        lam: float,
        mu: float,
        with_sync: bool,
        timer: StageTimer,
        *,
        grams: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.lam = float(lam)
        self.mu = float(mu)
        self.with_sync = with_sync
        blocks = [opinion, lam * aspect]
        if with_sync:
            blocks.append(mu * aspect)
        with timer.stage("dedup"):
            dedup = deduplicate_columns(np.vstack(blocks))
        self.groups = dedup.groups
        self.capacities = dedup.capacities
        num_columns = opinion.shape[1]
        self.column_group = np.zeros(num_columns, dtype=np.intp)
        for group_id, group in enumerate(self.groups):
            for member in group:
                self.column_group[member] = group_id
        # dedup.matrix rows are [O_u; lam*A_u] (+ mu*A_u when with_sync) —
        # already the exact stacked matrix of the 0/1-sync-block solve.
        self._dedup_matrix = dedup.matrix
        opinion_dim = opinion.shape[0]
        num_aspects = aspect.shape[0]
        self._sync_rows = (
            dedup.matrix[opinion_dim + num_aspects :] if with_sync else None
        )
        firsts = [group[0] for group in self.groups]
        with timer.stage("gram"):
            self.unique_opinion = opinion[:, firsts]
            self.unique_aspect = aspect[:, firsts]
        if grams is not None:
            # Snapshot restore: the Gram blocks were persisted, so the
            # two matmuls are skipped.  They are pure functions of the
            # unique columns, making the injected values verifiable.
            self._gram_op, self._gram_asp = grams
        else:
            # Built lazily on first access: the screened pursuit path
            # never touches the O(q^2 D) Gram products, which is the
            # whole point of pre-screening 10k-100k-review items.
            self._gram_op = None
            self._gram_asp = None
        self._stacks: dict[int, np.ndarray] = {}
        self._grams: dict[int, np.ndarray] = {}
        self._norms: dict[int, np.ndarray] = {}
        self._nonneg: bool | None = None

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def gram_op(self) -> np.ndarray:
        """``O_u^T O_u`` over the unique columns (built on first access)."""
        if self._gram_op is None:
            self._gram_op = _grid_gram(self.unique_opinion)
        return self._gram_op

    @property
    def gram_asp(self) -> np.ndarray:
        """``A_u^T A_u`` over the unique columns (built on first access)."""
        if self._gram_asp is None:
            self._gram_asp = _grid_gram(self.unique_aspect)
        return self._gram_asp

    def stacked(self, sync_blocks: int = 0) -> np.ndarray:
        """The unique-column stacked matrix for ``sync_blocks`` sync copies.

        Byte-identical to deduplicating the full replicated stack: scaling
        rows commutes with selecting first-occurrence columns.
        """
        self._check_sync(sync_blocks)
        cached = self._stacks.get(sync_blocks)
        if cached is not None:
            return cached
        if not self.with_sync or sync_blocks == 1:
            stack = self._dedup_matrix
        else:
            stack = np.vstack(
                [self._dedup_matrix] + [self._sync_rows] * (sync_blocks - 1)
            )
        self._stacks[sync_blocks] = stack
        return stack

    def gram(self, sync_blocks: int = 0) -> np.ndarray:
        """``G_op + (lam^2 + sync_blocks * mu^2) G_asp`` (memoised)."""
        self._check_sync(sync_blocks)
        cached = self._grams.get(sync_blocks)
        if cached is not None:
            return cached
        scale = self.lam * self.lam + sync_blocks * self.mu * self.mu
        gram = self.gram_op + scale * self.gram_asp
        self._grams[sync_blocks] = gram
        return gram

    def counts_for(self, selection: Sequence[int]) -> np.ndarray:
        """Group-count vector nu of a selection of original column indices."""
        counts = np.zeros(self.num_groups, dtype=int)
        for index in selection:
            counts[self.column_group[index]] += 1
        return counts

    def column_norms(self, sync_blocks: int = 0) -> np.ndarray:
        """Per-column L2 norms of :meth:`stacked` (memoised per count).

        The pre-screen's Cauchy-Schwarz bound ``corr_j <= ||w_j|| ||r||``
        needs them once per (block, sync count); O(q D), no Gram.
        """
        cached = self._norms.get(sync_blocks)
        if cached is not None:
            return cached
        stack = self.stacked(sync_blocks)
        norms = np.sqrt(np.einsum("ij,ij->j", stack, stack))
        self._norms[sync_blocks] = norms
        return norms

    def nonnegative(self) -> bool:
        """Whether every stacked-matrix entry is >= 0 (memoised).

        All three opinion schemes produce non-negative incidence (0/1
        counts, or sigmoid strengths in (0, 1)), which the pre-screen's
        ``corr_j <= b_j`` bound relies on; the check guards against a
        future scheme with signed entries, for which the screen falls
        back to the norm bound alone.  Sync row blocks are scaled copies
        of the aspect rows, so checking the base dedup matrix covers
        every sync count.
        """
        if self._nonneg is None:
            self._nonneg = bool(np.all(self._dedup_matrix >= 0.0))
        return self._nonneg

    def _check_sync(self, sync_blocks: int) -> None:
        if sync_blocks < 0:
            raise ValueError(f"sync_blocks must be >= 0, got {sync_blocks}")
        if sync_blocks > 0 and not self.with_sync:
            raise ValueError("this block was built without a sync row block")

    def extended(
        self,
        opinion: np.ndarray,
        aspect: np.ndarray,
        old_columns: int,
        timer: StageTimer,
    ) -> "GramBlock":
        """A new block over ``opinion``/``aspect``, built from this one.

        ``opinion``/``aspect`` must extend this block's matrices by
        appended columns (``old_columns`` is how many columns this block
        covers).  The dedup is reconciled incrementally — each appended
        column either joins an existing group (matching the rounded,
        signed-zero-normalised keys :func:`deduplicate_columns` uses) or
        opens a new group in first-occurrence order — and materialised
        Gram blocks grow via :func:`_grid_gram`'s grid extension.  The
        result is byte-identical to cold-building a block over the full
        matrices: same group order, same unique-column bytes, same Gram
        bytes.
        """
        if not self.groups:
            return GramBlock(
                opinion, aspect, self.lam, self.mu, self.with_sync, timer
            )
        delta_blocks = [opinion[:, old_columns:], self.lam * aspect[:, old_columns:]]
        if self.with_sync:
            delta_blocks.append(self.mu * aspect[:, old_columns:])
        delta_stack = np.vstack(delta_blocks)
        added = delta_stack.shape[1]
        with timer.stage("dedup"):
            # Rounded keys are per-column (np.round and the +0.0
            # signed-zero normalisation are elementwise), so keys derived
            # from this block's first-occurrence columns match the keys a
            # cold full-matrix dedup would compute for them.
            rounded_old = np.round(self._dedup_matrix, 12)
            rounded_old += 0.0
            old_keys = np.ascontiguousarray(rounded_old.T)
            key_to_group: dict[bytes, int] = {
                old_keys[group_id].tobytes(): group_id
                for group_id in range(len(self.groups))
            }
            rounded = np.round(delta_stack, 12)
            rounded += 0.0
            delta_keys = np.ascontiguousarray(rounded.T)
            groups = [list(group) for group in self.groups]
            new_firsts: list[int] = []
            for offset in range(added):
                column = old_columns + offset
                key = delta_keys[offset].tobytes()
                group_id = key_to_group.get(key)
                if group_id is None:
                    group_id = len(groups)
                    key_to_group[key] = group_id
                    groups.append([column])
                    new_firsts.append(offset)
                else:
                    groups[group_id].append(column)
        block = object.__new__(GramBlock)
        block.lam = self.lam
        block.mu = self.mu
        block.with_sync = self.with_sync
        block.groups = tuple(tuple(group) for group in groups)
        block.capacities = np.array([len(group) for group in block.groups], dtype=int)
        block.column_group = np.zeros(old_columns + added, dtype=np.intp)
        for group_id, group in enumerate(block.groups):
            for member in group:
                block.column_group[member] = group_id
        with timer.stage("gram"):
            if new_firsts:
                block._dedup_matrix = np.hstack(
                    [self._dedup_matrix, delta_stack[:, new_firsts]]
                )
                absolute = [old_columns + offset for offset in new_firsts]
                block.unique_opinion = np.hstack(
                    [self.unique_opinion, opinion[:, absolute]]
                )
                block.unique_aspect = np.hstack(
                    [self.unique_aspect, aspect[:, absolute]]
                )
                old_unique = len(self.groups)
                block._gram_op = (
                    None
                    if self._gram_op is None
                    else _grid_gram(block.unique_opinion, self._gram_op, old_unique)
                )
                block._gram_asp = (
                    None
                    if self._gram_asp is None
                    else _grid_gram(block.unique_aspect, self._gram_asp, old_unique)
                )
            else:
                # Every appended column duplicates an existing group: the
                # unique columns (hence the Grams) are unchanged.
                block._dedup_matrix = self._dedup_matrix
                block.unique_opinion = self.unique_opinion
                block.unique_aspect = self.unique_aspect
                block._gram_op = self._gram_op
                block._gram_asp = self._gram_asp
        opinion_dim = opinion.shape[0]
        num_aspects = aspect.shape[0]
        block._sync_rows = (
            block._dedup_matrix[opinion_dim + num_aspects :]
            if self.with_sync
            else None
        )
        block._stacks = {}
        block._grams = {}
        block._norms = {}
        if self._nonneg is None or not new_firsts:
            block._nonneg = self._nonneg
        else:
            # Cold checks the dedup matrix (unique columns only), so the
            # combination must too — a duplicate column may differ from
            # its group representative below the rounding tolerance.
            block._nonneg = self._nonneg and bool(
                np.all(delta_stack[:, new_firsts] >= 0.0)
            )
        return block


class SolverArtifacts:
    """Reusable per-item invariants of the Batch-OMP kernel.

    Bound to one ``(space, reviews, lam)`` triple: the incidence matrices,
    the eagerly built CompaReSetS :class:`GramBlock`, and — lazily, keyed
    by ``mu`` — the CompaReSetS+ sync blocks (``m`` and the sync-block
    count vary per solve without invalidating anything, matching the
    :class:`~repro.serve.store.ItemStore` artifact key).  Thread-safe:
    the serving layer shares one instance across concurrent solves.
    """

    def __init__(
        self,
        space: VectorSpace,
        reviews: Sequence[Review],
        lam: float,
        *,
        timer: StageTimer | None = None,
        incidence: tuple[np.ndarray, np.ndarray] | None = None,
        base_grams: tuple[np.ndarray, np.ndarray] | None = None,
        screen: str = "auto",
    ) -> None:
        if screen not in _SCREEN_MODES:
            raise ValueError(
                f"screen must be one of {sorted(_SCREEN_MODES)}, got {screen!r}"
            )
        self.space = space
        self.reviews: tuple[Review, ...] = tuple(reviews)
        self.lam = float(lam)
        self.screen = screen
        if incidence is not None:
            # Snapshot restore: the persisted incidence matrices replace
            # the per-review tokenised-corpus walks, which dominate cold
            # artifact construction.
            self._opinion, self._aspect = incidence
        else:
            self._opinion = space.opinion_matrix(self.reviews)
            self._aspect = space.aspect_matrix(self.reviews)
        self._lock = threading.Lock()
        self._base = GramBlock(
            self._opinion,
            self._aspect,
            self.lam,
            0.0,
            with_sync=False,
            timer=timer if timer is not None else StageTimer(),
            grams=base_grams,
        )
        self._plus: dict[float, GramBlock] = {}
        self._strengths: np.ndarray | None = None
        self._solve_cache: dict[tuple, RegressionSelection] = {}

    def matches(self, space: VectorSpace, reviews: Sequence[Review], lam: float) -> bool:
        """Cheap identity check that these artifacts fit an item solve."""
        return (
            self.space is space
            and self.lam == float(lam)
            and len(self.reviews) == len(reviews)
            and (not self.reviews or self.reviews[0] is reviews[0])
        )

    def base_block(self) -> GramBlock:
        """The CompaReSetS block ``[O; lam*A]``."""
        return self._base

    def plus_block(self, mu: float, timer: StageTimer | None = None) -> GramBlock:
        """The CompaReSetS+ block for ``mu`` (built once, then shared).

        The dedup depends on ``mu`` (two reviews with equal opinions and
        aspects are always grouped, but the rounding is applied to the
        scaled rows), hence the per-``mu`` keying.
        """
        mu = float(mu)
        with self._lock:
            block = self._plus.get(mu)
        if block is None:
            block = GramBlock(
                self._opinion,
                self._aspect,
                self.lam,
                mu,
                with_sync=True,
                timer=timer if timer is not None else StageTimer(),
            )
            with self._lock:
                self._plus.setdefault(mu, block)
                block = self._plus[mu]
        return block

    def cached_solve(
        self, key: tuple, compute: Callable[[], RegressionSelection]
    ) -> RegressionSelection:
        """Memoise a full regression solve keyed by its exact inputs.

        Alternating CompaReSetS+ sweeps converge quickly, so later sweeps
        re-pose byte-identical subproblems (same target vector, same
        parameters); serving repeats them across requests.  The key embeds
        ``target.tobytes()`` plus every parameter that shapes the solve, so
        a hit returns precisely what recomputing would.  The cache is
        dropped wholesale past a size bound rather than evicted piecemeal —
        solves cluster around a handful of targets per item.
        """
        with self._lock:
            hit = self._solve_cache.get(key)
        if hit is not None:
            return hit
        result = compute()
        with self._lock:
            if len(self._solve_cache) >= _SOLVE_CACHE_LIMIT:
                self._solve_cache.clear()
            self._solve_cache.setdefault(key, result)
            return self._solve_cache[key]

    def peek(self, key: tuple) -> RegressionSelection | None:
        """A memoised solve for ``key``, or None (never computes).

        The batched entry points use it to split a request batch into
        memo hits and the misses worth stacking into one multi-RHS
        pursuit.
        """
        with self._lock:
            return self._solve_cache.get(key)

    def solve_many(
        self,
        jobs: Sequence[tuple],
        *,
        timer: StageTimer | None = None,
        exact: bool = True,
    ) -> list:
        """Solve a mixed batch of per-item subproblems in lockstep.

        Each job is either ``("item", tau, gamma, config)`` — one Eq.-4
        CompaReSetS solve, yielding a :class:`RegressionSelection` — or
        ``("plus", tau, gamma, other_phis, config, current, literal)`` —
        one Algorithm-1 inner iteration, yielding the accepted selection
        tuple exactly like :func:`solve_plus_item`.  Jobs that share a
        Gram block are stacked into single GEMM-shaped pursuit rounds
        (:func:`batch_omp_many`); results are byte-identical to issuing
        the jobs one at a time and land in the same memo cache.
        """
        timer = timer if timer is not None else StageTimer()
        results: list = [None] * len(jobs)
        item_jobs: list[tuple[int, tuple]] = []
        plus_jobs: list[tuple[int, tuple]] = []
        for index, job in enumerate(jobs):
            kind = job[0]
            if kind == "item":
                item_jobs.append((index, job[1:]))
            elif kind == "plus":
                plus_jobs.append((index, job[1:]))
            else:
                raise ValueError(f"unknown solve_many job kind {kind!r}")
        if item_jobs:
            solved = solve_item_many(
                self, [job for _, job in item_jobs], timer=timer, exact=exact
            )
            for (index, _), result in zip(item_jobs, solved):
                results[index] = result
        if plus_jobs:
            solved = solve_plus_item_many(
                self, [job for _, job in plus_jobs], timer=timer, exact=exact
            )
            for (index, _), result in zip(plus_jobs, solved):
                results[index] = result
        return results

    def clear_solve_cache(self) -> None:
        """Drop memoised solve results, keeping the Gram blocks.

        For benchmarking the warm-artifact / cold-solve case; production
        callers never need this (the cache is exact by construction).
        """
        with self._lock:
            self._solve_cache.clear()

    def strength_matrix(self) -> np.ndarray:
        """(z, N) raw signed-strength columns for unary-scale evaluation."""
        with self._lock:
            if self._strengths is None:
                if self.reviews:
                    self._strengths = np.column_stack(
                        [
                            self.space.review_signed_strengths(review)
                            for review in self.reviews
                        ]
                    )
                else:
                    self._strengths = np.zeros((self.space.num_aspects, 0))
            return self._strengths

    def extended(
        self, reviews: Sequence[Review], *, timer: StageTimer | None = None
    ) -> "SolverArtifacts":
        """New artifacts for this item's reviews plus appended ``reviews``.

        Incidence matrices grow by the delta columns only (per-review
        walks for the new reviews; the old columns are reused), and every
        already-built :class:`GramBlock` — the base block and any
        per-``mu`` sync blocks — is extended via the bordered grid update
        instead of rebuilt.  Byte-identical to cold-building artifacts
        over the concatenated review tuple.

        The solve memo does *not* carry over: appended reviews can change
        group capacities even for an unchanged target vector (a new
        member joining an existing dedup group shifts the
        largest-remainder apportionment), so memo entries keyed by target
        bytes may be stale.  Artifacts of *untouched* items are shared by
        reference during delta carry-over, which is where the memo reuse
        the store relies on actually lives.
        """
        delta = tuple(reviews)
        if not delta:
            return self
        timer = timer if timer is not None else StageTimer()
        delta_opinion = self.space.opinion_matrix(delta)
        delta_aspect = self.space.aspect_matrix(delta)
        opinion = np.hstack([self._opinion, delta_opinion])
        aspect = np.hstack([self._aspect, delta_aspect])
        old_columns = len(self.reviews)
        with self._lock:
            plus_blocks = dict(self._plus)
            strengths = self._strengths
        extended = object.__new__(SolverArtifacts)
        extended.space = self.space
        extended.reviews = self.reviews + delta
        extended.lam = self.lam
        extended.screen = self.screen
        extended._opinion = opinion
        extended._aspect = aspect
        extended._lock = threading.Lock()
        extended._base = self._base.extended(opinion, aspect, old_columns, timer)
        extended._plus = {
            mu: block.extended(opinion, aspect, old_columns, timer)
            for mu, block in plus_blocks.items()
        }
        if strengths is None:
            extended._strengths = None
        else:
            extended._strengths = np.hstack(
                [
                    strengths,
                    np.column_stack(
                        [self.space.review_signed_strengths(r) for r in delta]
                    ),
                ]
            )
        extended._solve_cache = {}
        return extended


#: Upper bound on memoised solves per :class:`SolverArtifacts`; the cache
#: clears wholesale when full (see :meth:`SolverArtifacts.cached_solve`).
_SOLVE_CACHE_LIMIT = 1024

#: Valid candidate pre-screen modes for :class:`SolverArtifacts`.
#: ``auto`` screens provably once an item crosses
#: :data:`_SCREEN_MIN_GROUPS` unique columns; ``provable`` / ``empirical``
#: force screening at any size (the latter trades the exactness
#: certificate for speed); ``off`` disables it.
_SCREEN_MODES = frozenset({"auto", "off", "provable", "empirical"})

#: ``screen="auto"`` threshold: below this many unique columns the dense
#: Gram path is already fast and byte-exact, so screening only kicks in
#: for huge items (the paper's corpora top out far below it).
_SCREEN_MIN_GROUPS = 2048

#: Kept-set sizing for the pre-screen: ``max(_SCREEN_KEEP_MIN,
#: _SCREEN_KEEP_FACTOR * budget)`` columns survive the initial
#: correlation ranking.  Purely a performance knob — the per-round
#: certificate recovers any wrongly pruned column — sized so promotions
#: stay rare in practice.
_SCREEN_KEEP_MIN = 256
_SCREEN_KEEP_FACTOR = 16


def _screen_active(screen: str, num_groups: int, exact: bool) -> bool:
    """Whether the pre-screen governs this solve.

    ``exact=False`` already runs the textbook fast path whose selections
    may diverge; the screen only targets the exact path, where avoiding
    the O(q^2) Gram is the win worth certifying.
    """
    if screen == "off" or not exact:
        return False
    if screen == "auto":
        return num_groups >= _SCREEN_MIN_GROUPS
    return True

#: Relative margin below which a screened atom choice counts as a tie and
#: the exact correlation vector is recomputed.  The fp discrepancy between
#: ``alpha`` and ``W^T r`` is ~D machine epsilons (relative ~1e-13); 1e-9
#: leaves four orders of magnitude of slack, and a false positive merely
#: costs one reference-style mat-vec.
_TIE_MARGIN = 1e-9


class _PursuitState:
    """Per-problem bookkeeping of one pursuit (see :func:`_pursuit_step`)."""

    __slots__ = (
        "b",
        "target",
        "target_float",
        "max_steps",
        "support",
        "in_support",
        "coefficients",
        "lower",
        "cholesky_ok",
        "path",
    )

    def __init__(
        self, b: np.ndarray, target: np.ndarray, max_steps: int,
        num_columns: int, exact: bool,
    ) -> None:
        self.b = np.asarray(b, dtype=float)
        self.target = target
        self.target_float = target.astype(float)
        self.max_steps = max_steps
        self.support: list[int] = []
        self.in_support = np.zeros(num_columns, dtype=bool)
        self.coefficients = np.zeros(0)
        self.lower = np.zeros((max_steps, max_steps)) if not exact else None
        self.cholesky_ok = not exact
        self.path: list[np.ndarray] = []


def _pursuit_step(
    state: _PursuitState,
    alpha: np.ndarray,
    gram: np.ndarray,
    stacked: np.ndarray,
    exact: bool,
) -> bool:
    """Add one atom to ``state``'s path, choosing it from ``alpha``.

    Returns False, adding nothing, when no column correlates positively.
    :func:`batch_omp_path` and :func:`batch_omp_many` share it, so a
    batched problem takes exactly the steps it would take alone.
    """
    num_columns = gram.shape[1]
    support = state.support
    correlations = alpha.copy()
    correlations[state.in_support] = -np.inf
    best = int(np.argmax(correlations))
    top = float(correlations[best])
    if exact and support:
        # Screen: the Gram-updated alpha differs from the reference's
        # W^T r by fp noise only, so an unambiguous winner is *the*
        # winner.  On a near-tie (or a borderline stop) recompute the
        # reference correlations bitwise and let them decide.
        correlations[best] = -np.inf
        runner_up = float(correlations.max()) if num_columns > 1 else -np.inf
        margin = _TIE_MARGIN * max(1.0, abs(top), abs(runner_up))
        if top - runner_up <= margin or top <= _CORRELATION_TOLERANCE + margin:
            residual = state.target_float - stacked[:, support] @ state.coefficients
            refreshed = stacked.T @ residual
            refreshed[state.in_support] = -np.inf
            best = int(np.argmax(refreshed))
            top = float(refreshed[best])
    if top <= _CORRELATION_TOLERANCE:
        return False
    size = len(support)
    if state.cholesky_ok:
        pivot = float(gram[best, best])
        if size:
            w = solve_triangular(
                state.lower[:size, :size], gram[support, best],
                lower=True, check_finite=False,
            )
            pivot -= float(w @ w)
        if pivot <= 1e-12 * max(1.0, float(gram[best, best])):
            state.cholesky_ok = False
        else:
            if size:
                state.lower[size, :size] = w
            state.lower[size, size] = np.sqrt(pivot)
    support.append(best)
    state.in_support[best] = True
    size += 1

    step: np.ndarray | None = None
    if state.cholesky_ok:
        factor = state.lower[:size, :size]
        rhs = state.b[support]
        forward = solve_triangular(factor, rhs, lower=True, check_finite=False)
        step = solve_triangular(factor.T, forward, lower=False, check_finite=False)
        if np.any(step < 0.0):
            step = None
    if step is None:
        step, _ = nnls(stacked[:, support], state.target)
    state.coefficients = step
    x = np.zeros(num_columns)
    x[support] = step
    state.path.append(x)
    return True


def batch_omp_path(
    gram: np.ndarray,
    b: np.ndarray,
    max_atoms: int,
    stacked: np.ndarray,
    target: np.ndarray,
    *,
    exact: bool = True,
) -> list[np.ndarray]:
    """Non-negative Batch-OMP, returning the solution after *every* atom.

    Drop-in counterpart of
    :func:`~repro.core.integer_regression.nomp_path` operating on the
    precomputed Gram ``gram = stacked^T stacked`` and correlation
    ``b = stacked^T target``.  Atom selection uses the Gram-updated
    correlation ``alpha = b - gram[:, S] c`` as a screen.

    ``exact=True`` (the default) guarantees the returned path is
    bit-identical to the reference ``nomp_path(stacked, target, ...)``:
    when the screened winner's margin (or the stopping test) falls below
    :data:`_TIE_MARGIN` the reference correlations are recomputed with the
    reference's own expressions, and the support coefficients always come
    from scipy ``nnls`` (their last ulp feeds the rounding stage).
    ``exact=False`` is textbook Batch-OMP — Gram correlations plus
    incremental-Cholesky coefficients, with nnls only when the
    unconstrained solve goes negative or the support turns numerically
    rank-deficient — whose atom/rounding tie-breaks may diverge from the
    reference on tie-heavy instances.
    """
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {gram.shape}")
    num_columns = gram.shape[1]
    if num_columns == 0 or max_atoms <= 0:
        return []

    state = _PursuitState(b, target, min(max_atoms, num_columns), num_columns, exact)
    alpha = state.b
    while len(state.path) < state.max_steps and _pursuit_step(
        state, alpha, gram, stacked, exact
    ):
        alpha = state.b - gram[:, state.support] @ state.coefficients
    return state.path


def batch_omp_many(
    gram: np.ndarray,
    bs: Sequence[np.ndarray],
    budgets: Sequence[int],
    stacked: np.ndarray,
    targets: Sequence[np.ndarray],
    *,
    exact: bool = True,
) -> list[list[np.ndarray]]:
    """Many concurrent pursuits over one shared Gram, GEMM-stacked.

    The multi-RHS counterpart of :func:`batch_omp_path`: ``bs[t]``,
    ``budgets[t]``, ``targets[t]`` pose problem ``t`` against the shared
    ``gram = stacked^T stacked``, and each round updates every still-active
    problem's correlations with **one** ``gram[:, S_union] @ C`` product
    (``S_union`` the union of active supports, ``C`` the per-problem
    coefficients scattered into union rows) instead of one mat-vec per
    problem.  Returns each problem's per-atom solution path; in exact mode
    (the default) it is byte-identical to
    ``batch_omp_path(gram, bs[t], budgets[t], stacked, targets[t])``.
    ``exact=False`` keeps the textbook fast path's existing caveat: with
    no tie rechecks, the GEMM's summation-order noise may flip tie-heavy
    atom choices exactly like the fast path already may against the
    reference.

    Why the GEMM cannot flip an exact-mode selection: zero rows of ``C``
    contribute
    exactly 0.0, so the batched alpha differs from the sequential one only
    by summation-order noise (~1e-13 relative), four orders of magnitude
    below :data:`_TIE_MARGIN` — any choice that close to the margin
    triggers the same reference-expression recheck either way, and the
    recheck recomputes ``W^T (y - W_S c)`` per problem with the exact
    sequential expression.  First-round correlations are the caller's
    ``b`` vectors verbatim (never re-derived through the GEMM), and the
    support coefficients come from per-problem scipy ``nnls`` on identical
    inputs.

    Identical targets are internally deduplicated: the greedy choice and
    the per-round nnls are budget-independent, so the budget-``m`` path is
    the first ``m`` entries of the longest requested path (one pursuit,
    sliced per requester).
    """
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"expected a square Gram matrix, got shape {gram.shape}")
    if not (len(bs) == len(budgets) == len(targets)):
        raise ValueError(
            f"mismatched batch: {len(bs)} correlation vectors, "
            f"{len(budgets)} budgets, {len(targets)} targets"
        )
    num_columns = gram.shape[1]
    paths: list[list[np.ndarray]] = [[] for _ in range(len(bs))]
    if num_columns == 0 or not bs:
        return paths

    # Dedup identical subproblems (same target implies same b): solve one
    # pursuit at the largest requested budget, slice prefixes per member.
    members: dict[bytes, list[int]] = {}
    for index, target in enumerate(targets):
        members.setdefault(target.tobytes(), []).append(index)
    states: list[_PursuitState] = []
    groups: list[list[int]] = []
    for group in members.values():
        budget = max(budgets[i] for i in group)
        max_steps = min(budget, num_columns)
        if max_steps <= 0:
            continue
        leader = group[0]
        states.append(
            _PursuitState(
                bs[leader], targets[leader], max_steps, num_columns, exact
            )
        )
        groups.append(group)

    active = list(range(len(states)))
    while active:
        union = sorted({atom for p in active for atom in states[p].support})
        alphas = np.column_stack([states[p].b for p in active])
        if union:
            scatter = np.zeros((len(union), len(active)))
            row_of = {atom: row for row, atom in enumerate(union)}
            for col, p in enumerate(active):
                state = states[p]
                if state.support:
                    rows = [row_of[atom] for atom in state.support]
                    scatter[rows, col] = state.coefficients
            alphas -= gram[:, union] @ scatter
        still_active: list[int] = []
        for col, p in enumerate(active):
            state = states[p]
            if (
                _pursuit_step(state, alphas[:, col], gram, stacked, exact)
                and len(state.path) < state.max_steps
            ):
                still_active.append(p)
        active = still_active

    for state, group in zip(states, groups):
        for index in group:
            paths[index] = state.path[: budgets[index]]
    return paths


def _screened_omp_path(
    stacked: np.ndarray,
    target: np.ndarray,
    max_atoms: int,
    norms: np.ndarray,
    *,
    empirical: bool,
    nonneg: bool,
    timer: StageTimer,
) -> list[np.ndarray]:
    """Exact-mode pursuit over a pre-screened candidate set, Gram-free.

    For 10k-100k-review items the O(q^2 D) Gram behind
    :func:`batch_omp_path` dominates end to end, yet a budget-``m``
    pursuit touches at most ``m`` support atoms.  This path ranks all
    columns once by their initial correlation ``b = W^T y`` (one O(q D)
    product — bitwise the reference's first-round correlations), keeps
    the top ``max(_SCREEN_KEEP_MIN, _SCREEN_KEEP_FACTOR * m)``, and runs
    the pursuit against lazily built Gram *columns* restricted to the
    kept set (O(keep * D) per atom, never O(q^2)).

    Exactness (default, ``empirical=False``) comes from a per-round
    certificate instead of trusting the ranking: with non-negative
    incidence and nnls coefficients ``c >= 0`` every pruned column obeys
    ``corr_j = b_j - w_j . (W_S c) <= b_j``, and Cauchy-Schwarz gives
    ``corr_j <= ||w_j|| ||r||`` unconditionally.  Whenever the kept
    winner fails to beat the best pruned bound by :data:`_TIE_MARGIN` —
    or ties within the kept set, or sits at the stopping boundary — the
    reference correlation vector ``W^T r`` is recomputed over *all*
    columns with the reference's own expressions and decides; an
    out-of-set winner is promoted into the kept set (sorted insert, so
    the lowest-index tie-break keeps matching the reference).  The
    returned path is therefore byte-identical to the unscreened exact
    pursuit.  ``empirical=True`` skips the certificate and restricts
    rechecks to the kept set: faster, support preserved empirically but
    not provably.
    """
    num_columns = stacked.shape[1]
    if num_columns == 0 or max_atoms <= 0:
        return []
    max_steps = min(max_atoms, num_columns)

    with timer.stage("pursuit"):
        b = stacked.T @ target
    with timer.stage("screen"):
        keep = min(
            num_columns,
            max(_SCREEN_KEEP_MIN, _SCREEN_KEEP_FACTOR * max_steps),
        )
        if keep >= num_columns:
            kept_idx = np.arange(num_columns)
        else:
            order = np.argsort(b, kind="stable")
            kept_idx = np.sort(order[num_columns - keep :])
        kept_mask = np.zeros(num_columns, dtype=bool)
        kept_mask[kept_idx] = True
        kept_stack = stacked[:, kept_idx]
        b_kept = b[kept_idx]
        pruned = ~kept_mask
        pruned_b = b[pruned]
        pruned_norms = norms[pruned]
        timer.count("screen_total", num_columns)
        timer.count("screen_kept", len(kept_idx))
        timer.count("screen_solves", 1)

    support: list[int] = []
    in_support = np.zeros(num_columns, dtype=bool)
    coefficients = np.zeros(0)
    gram_kept = np.zeros((len(kept_idx), max_steps))
    path: list[np.ndarray] = []

    with timer.stage("pursuit"):
        for _ in range(max_steps):
            size = len(support)
            if size:
                alpha = b_kept - gram_kept[:, :size] @ coefficients
            else:
                alpha = b_kept.copy()
            alpha[in_support[kept_idx]] = -np.inf
            pos = int(np.argmax(alpha))
            best = int(kept_idx[pos])
            top = float(alpha[pos])
            alpha[pos] = -np.inf
            runner_up = float(alpha.max()) if alpha.size > 1 else -np.inf
            margin = _TIE_MARGIN * max(1.0, abs(top), abs(runner_up))
            need_full = (
                top - runner_up <= margin
                or top <= _CORRELATION_TOLERANCE + margin
            )
            residual: np.ndarray | None = None
            if not empirical and pruned_b.size:
                residual = (
                    target - stacked[:, support] @ coefficients
                    if size
                    else target
                )
                if not need_full:
                    # Certificate: no pruned column can out-correlate the
                    # kept winner.  At round one the nonneg bound equals
                    # the exact correlation, so boundary cases always
                    # fall through to the reference recheck.
                    rnorm = float(np.sqrt(residual @ residual))
                    bounds = pruned_norms * rnorm
                    if nonneg:
                        bounds = np.minimum(bounds, pruned_b)
                    if top <= float(bounds.max()) + margin:
                        need_full = True
            if need_full:
                if residual is None:
                    residual = (
                        target - stacked[:, support] @ coefficients
                        if size
                        else target
                    )
                refreshed = stacked.T @ residual
                refreshed[in_support] = -np.inf
                if empirical:
                    refreshed[pruned] = -np.inf
                best = int(np.argmax(refreshed))
                top = float(refreshed[best])
                timer.count("screen_rechecks", 1)
                if not kept_mask[best]:
                    timer.count("screen_promoted", 1)
                    at = int(np.searchsorted(kept_idx, best))
                    kept_idx = np.insert(kept_idx, at, best)
                    kept_mask[best] = True
                    kept_stack = stacked[:, kept_idx]
                    b_kept = np.insert(b_kept, at, b[best])
                    row = np.zeros(max_steps)
                    if size:
                        row[:size] = stacked[:, best] @ stacked[:, support]
                    gram_kept = np.insert(gram_kept, at, row, axis=0)
                    pruned = ~kept_mask
                    pruned_b = b[pruned]
                    pruned_norms = norms[pruned]
            if top <= _CORRELATION_TOLERANCE:
                break
            support.append(best)
            in_support[best] = True
            gram_kept[:, size] = kept_stack.T @ stacked[:, best]
            coefficients, _ = nnls(stacked[:, support], target)
            x = np.zeros(num_columns)
            x[support] = coefficients
            path.append(x)
    return path


class CountsEvaluator:
    """True-objective evaluation from group counts on unique columns.

    Replaces the reference's per-candidate rebuild (gather ``Review``
    objects, re-walk their mentions) with two mat-vecs on the block's
    precomputed unique columns.  Binary / 3-polarity counts are exact
    integers, so the mat-vec totals are bit-identical to the review walk;
    the unary scheme re-accumulates raw signed strengths in selection
    order to preserve the reference's floating-point summation order.
    """

    __slots__ = ("artifacts", "block", "tau", "gamma", "lam", "unary")

    def __init__(
        self,
        artifacts: SolverArtifacts,
        block: GramBlock,
        tau: np.ndarray,
        gamma: np.ndarray,
        lam: float,
    ) -> None:
        self.artifacts = artifacts
        self.block = block
        self.tau = tau
        self.gamma = gamma
        self.lam = float(lam)
        self.unary = artifacts.space.scheme is OpinionScheme.UNARY_SCALE

    def vectors(
        self, counts: np.ndarray, selection: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(pi, phi) of the selection, matching :class:`VectorSpace` exactly."""
        weights = np.asarray(counts, dtype=float)
        aspect_counts = self.block.unique_aspect @ weights
        maximum = float(aspect_counts.max()) if aspect_counts.size else 0.0
        phi = aspect_counts if maximum == 0.0 else aspect_counts / maximum
        if self.unary:
            pi = self._unary_pi(selection, aspect_counts)
        else:
            opinion_counts = self.block.unique_opinion @ weights
            pi = opinion_counts if maximum == 0.0 else opinion_counts / maximum
        return pi, phi

    def _unary_pi(
        self, selection: tuple[int, ...], aspect_counts: np.ndarray
    ) -> np.ndarray:
        strengths = self.artifacts.strength_matrix()
        totals = np.zeros(strengths.shape[0])
        for index in selection:
            totals += strengths[:, index]
        mentioned = aspect_counts > 0
        pi = np.zeros(strengths.shape[0])
        pi[mentioned] = _sigmoid(totals[mentioned])
        return pi

    def item_value(self, counts: np.ndarray, selection: tuple[int, ...]) -> float:
        """Eq.-3 contribution — mirrors :func:`~repro.core.objective.item_objective`."""
        pi, phi = self.vectors(counts, selection)
        return squared_l2(self.tau, pi) + self.lam**2 * squared_l2(self.gamma, phi)

    def plus_value(
        self,
        counts: np.ndarray,
        selection: tuple[int, ...],
        other_phis: Sequence[np.ndarray],
        mu: float,
        literal: bool,
    ) -> float:
        """Algorithm-1 acceptance score — mirrors ``_item_plus_objective``."""
        pi, phi = self.vectors(counts, selection)
        pairwise = sum(squared_l2(phi, other) for other in other_phis)
        if literal:
            return squared_l2(self.tau, pi) + squared_l2(self.gamma, phi) + pairwise
        base = squared_l2(self.tau, pi) + self.lam**2 * squared_l2(self.gamma, phi)
        return base + mu**2 * pairwise


def _run_regression(
    block: GramBlock,
    sync_blocks: int,
    target: np.ndarray,
    max_reviews: int,
    evaluate: _Evaluate,
    timer: StageTimer,
    exact: bool = True,
    screen: str = "off",
) -> RegressionSelection:
    """The kernel's Integer-Regression driver for one problem.

    The pursuit and the evaluation are served from precomputed artifacts;
    :func:`_shared_path_selections` rounds and picks the candidate.  When
    the pre-screen governs (:func:`_screen_active`), the pursuit switches
    to :func:`_screened_omp_path` and the Gram is never materialised; the
    rounding still sees the full dedup groups and capacities, so
    largest-remainder spill into zero-coefficient groups stays identical.
    """
    target = np.asarray(target, dtype=float)
    if _screen_active(screen, block.num_groups, exact):
        with timer.stage("gram"):
            stacked = block.stacked(sync_blocks)
        with timer.stage("screen"):
            norms = block.column_norms(sync_blocks)
            nonneg = block.nonnegative()
        path = _screened_omp_path(
            stacked, target, max_reviews, norms,
            empirical=screen == "empirical", nonneg=nonneg, timer=timer,
        )
    else:
        with timer.stage("gram"):
            gram = block.gram(sync_blocks)
            stacked = block.stacked(sync_blocks)
        with timer.stage("pursuit"):
            b = stacked.T @ target
            path = batch_omp_path(gram, b, max_reviews, stacked, target, exact=exact)
    return _shared_path_selections(block, path, (max_reviews,), evaluate, timer)[
        max_reviews
    ]


#: Elements per (steps x totals x groups) array in one chunk of
#: :func:`round_path`, bounding its temporaries at a few MiB.
_ROUND_CHUNK = 1 << 19

#: One step's rounding for one budget: group counts and their selection.
_Pick = tuple[np.ndarray, tuple[int, ...]]


def round_path(
    path: Sequence[np.ndarray],
    capacities: np.ndarray,
    groups: Sequence[Sequence[int]],
    budgets: Sequence[int],
) -> tuple[np.ndarray, dict[int, list[_Pick]]]:
    """The discrete stage of a whole pursuit path in one array pass.

    Rounds every step for every total 1..m (m the largest budget) and
    returns ``(gaps, picks)``: ``gaps[step, s - 1]`` is the normalised L1
    gap of the total-``s`` apportionment (NaN where
    :func:`~repro.core.integer_regression.round_to_counts_table` holds
    ``None``), and ``picks[b][step]`` the ``(counts, selection)`` that
    ``round_to_counts(path[step], capacities, b)`` and
    ``counts_to_selection`` give, byte for byte, for steps ``< b``.  Two
    properties keep it exact while touching O(m) groups per step (see
    docs/ALGORITHMS.md):

    * only reachable groups are apportioned: every step's nonzero
      coefficients plus its first m zero-coefficient groups by index.  Zero
      groups sort at key exactly 0.0 with slack >= 1, in index order, and a
      row hands out at most m units, so the round-robin never reaches a
      later one;
    * each gap is summed over a dense q-length row like the reference's,
      because numpy's pairwise sum depends on where the zeros sit.
    """
    max_total = max(budgets, default=0)
    num_groups = len(capacities)
    steps_total = len(path) if num_groups and max_total > 0 else 0
    gaps = np.full((steps_total, max(max_total, 0)), np.nan)
    columns: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    chunk = max(1, _ROUND_CHUNK // max(1, max_total * num_groups))
    totals = np.arange(1, max_total + 1)
    scales = totals[:, None].astype(float)
    for start in range(0, steps_total, chunk):
        steps = np.array(path[start : start + chunk], dtype=float)
        masses = np.abs(steps).sum(axis=1)
        # A step's first m zero groups lie below m plus its nonzero count,
        # so with every step's nonzeros they hold all reachable groups.
        reach = max_total + int(np.count_nonzero(steps, axis=1).max())
        if reach >= num_groups:
            cols = np.arange(num_groups)
        else:
            reachable = (steps != 0.0).any(axis=0)
            reachable[:reach] = True
            cols = np.flatnonzero(reachable)
        caps = capacities[cols]
        # The reference's arithmetic, over (steps, totals, reachable groups).
        normalised = steps[:, cols] / np.where(masses == 0.0, 1.0, masses)[:, None]
        ideals = scales * normalised[:, None, :]
        if normalised.min() < 0.0:
            if np.any(ideals < -1e-12):
                raise ValueError("ideal allocations must be non-negative")
            ideals = np.maximum(ideals, 0.0)
        bases = np.minimum(np.floor(ideals + 1e-12), caps).astype(int, order="C")
        remaining = (np.minimum(totals, caps.sum()) - bases.sum(axis=2)).ravel()
        if remaining.max() > 0:
            # Round-robin in key order, one unit per group per pass, exactly
            # as largest_remainder_round hands the remaining units out.
            width = len(cols)
            order = np.argsort(
                (bases - ideals).reshape(-1, width), axis=1, kind="stable"
            ) + np.arange(0, remaining.size * width, width)[:, None]
            ranked_slack = (caps - bases).reshape(-1)[order]
            extra = np.zeros_like(order)
            rounds = 0
            while remaining.max() > 0:
                rounds += 1
                eligible = ranked_slack >= rounds
                given = eligible & (np.cumsum(eligible, axis=1) <= remaining[:, None])
                extra += given
                remaining -= given.sum(axis=1)
            bases.reshape(-1)[order] += extra  # now the apportioned counts
        count_sums = bases.sum(axis=2)
        diffs = np.abs(
            bases / np.maximum(count_sums, 1)[..., None] - normalised[:, None, :]
        )
        if len(cols) < num_groups:
            rows = np.zeros((len(steps), max_total, num_groups))
            rows[..., cols] = diffs
            diffs = rows
        gaps[start : start + len(steps)] = np.where(
            (count_sums > 0) & (masses != 0.0)[:, None], diffs.sum(axis=2), np.nan
        )
        columns.extend([cols] * len(steps))
        counts.extend(bases)

    # round_to_counts's scan over each budget prefix: strict 1e-12
    # improvement, the lowest total wins ties, NaN (no mass) never wins.
    picks: dict[int, list[_Pick]] = {budget: [] for budget in budgets}
    for step, row in enumerate(gaps.tolist()):
        best_gap, best, pick = np.inf, -1, None
        for total, gap in enumerate(row, start=1):
            if gap < best_gap - 1e-12:
                best_gap, best, pick = gap, total - 1, None
            if total not in picks or step >= total:
                continue
            if pick is None:
                full = np.zeros(num_groups, dtype=int)
                selected: list[int] = []
                if best >= 0:
                    full[columns[step]] = counts[step][best]
                    for group, count in zip(
                        columns[step].tolist(), counts[step][best].tolist()
                    ):
                        selected.extend(groups[group][:count])
                pick = (full, tuple(sorted(selected)))
            picks[total].append(pick)
    return gaps, picks


def _shared_path_selections(
    block: GramBlock,
    path: Sequence[np.ndarray],
    budgets: Sequence[int],
    evaluate: _Evaluate,
    timer: StageTimer,
) -> dict[int, RegressionSelection]:
    """Discrete rounding + candidate argmin for each budget over one path.

    Mirrors :func:`~repro.core.integer_regression.integer_regression_select`
    candidate for candidate: the same rounding, the same strict 1e-12
    improvement rule, the same empty-set fallback.  A single solve is the
    one-budget case.  Requests whose pursuits dedup onto one leader path
    differ only in where the path is cut and which totals the rounding may
    use, both prefix views of :func:`round_path`'s one pass at the largest
    budget; the budget-independent evaluator is memoised per selection, so
    a 16-way burst pays for one rounding pass instead of sixteen.
    """
    with timer.stage("round"):
        _, picks = round_path(
            path[: max(budgets)], block.capacities, block.groups, budgets
        )
    objective_of: dict[tuple[int, ...], float] = {}

    def evaluate_once(counts: np.ndarray, selection: tuple[int, ...]) -> float:
        objective = objective_of.get(selection)
        if objective is None:
            with timer.stage("evaluate"):
                objective = evaluate(counts, selection)
            objective_of[selection] = objective
        return objective

    results: dict[int, RegressionSelection] = {}
    for budget in sorted(set(budgets)):
        best: RegressionSelection | None = None
        seen: set[tuple[int, ...]] = {()}
        for counts, selection in picks[budget]:
            if selection in seen:
                continue
            seen.add(selection)
            objective = evaluate_once(counts, selection)
            if best is None or objective < best.objective - 1e-12:
                best = RegressionSelection(selected=selection, objective=objective)
        if best is None:
            empty_value = evaluate_once(np.zeros(block.num_groups, dtype=int), ())
            best = RegressionSelection(selected=(), objective=empty_value)
        results[budget] = best
    return results


def solve_item(
    artifacts: SolverArtifacts,
    tau: np.ndarray,
    gamma: np.ndarray,
    config: SelectionConfig,
    *,
    timer: StageTimer | None = None,
    exact: bool = True,
) -> RegressionSelection:
    """Kernel counterpart of the CompaReSetS per-item solve (Eq. 4)."""
    timer = timer if timer is not None else StageTimer()
    block = artifacts.base_block()
    target = concat_scaled((1.0, tau), (config.lam, gamma))
    key = ("item", config.max_reviews, exact, target.tobytes())

    def compute() -> RegressionSelection:
        evaluator = CountsEvaluator(artifacts, block, tau, gamma, config.lam)
        return _run_regression(
            block, 0, target, config.max_reviews, evaluator.item_value, timer,
            exact=exact, screen=artifacts.screen,
        )

    return artifacts.cached_solve(key, compute)


def solve_plus_item(
    artifacts: SolverArtifacts,
    tau: np.ndarray,
    gamma: np.ndarray,
    other_phis: Sequence[np.ndarray],
    config: SelectionConfig,
    current: tuple[int, ...],
    literal: bool,
    *,
    timer: StageTimer | None = None,
    exact: bool = True,
) -> tuple[int, ...]:
    """Kernel counterpart of one Algorithm-1 inner iteration for item i.

    Returns the improved selection, or ``current`` when the regression
    candidate does not strictly improve the acceptance score.  With no
    other items the sync row block vanishes and the solve runs on the
    CompaReSetS base block, exactly like ``regression_columns(...,
    sync_blocks=0)`` does in the reference.
    """
    timer = timer if timer is not None else StageTimer()
    block, sync_blocks, target, key, evaluate = _plus_problem(
        artifacts, tau, gamma, other_phis, config, literal, exact, timer
    )
    candidate = artifacts.cached_solve(
        key,
        lambda: _run_regression(
            block, sync_blocks, target, config.max_reviews, evaluate, timer,
            exact=exact, screen=artifacts.screen,
        ),
    )
    return _accepted(candidate, current, block, evaluate, timer)


def _accepted(
    candidate: RegressionSelection,
    current: tuple[int, ...],
    block: GramBlock,
    evaluate: _Evaluate,
    timer: StageTimer,
) -> tuple[int, ...]:
    """Algorithm 1's acceptance: the candidate only if it strictly improves."""
    with timer.stage("evaluate"):
        current_objective = evaluate(block.counts_for(current), current)
    if candidate.objective < current_objective - 1e-12:
        return candidate.selected
    return current


def _plus_problem(
    artifacts: SolverArtifacts,
    tau: np.ndarray,
    gamma: np.ndarray,
    other_phis: Sequence[np.ndarray],
    config: SelectionConfig,
    literal: bool,
    exact: bool,
    timer: StageTimer,
) -> tuple[GramBlock, int, np.ndarray, tuple, _Evaluate]:
    """Block, sync count, target, memo key and acceptance score of one
    Algorithm-1 inner solve for item i."""
    sync_blocks = len(other_phis)
    if sync_blocks == 0:
        block = artifacts.base_block()
    else:
        block = artifacts.plus_block(config.mu, timer=timer)
    gamma_scale = 1.0 if literal else config.lam
    phi_scale = 1.0 if literal else config.mu
    target = concat_scaled(
        (1.0, tau), (gamma_scale, gamma), *((phi_scale, phi) for phi in other_phis)
    )
    evaluator = CountsEvaluator(artifacts, block, tau, gamma, config.lam)

    def evaluate(counts: np.ndarray, selection: tuple[int, ...]) -> float:
        return evaluator.plus_value(counts, selection, other_phis, config.mu, literal)

    # The target blocks (with mu / literal in the key) pin down the other
    # items' phis, so the memo key fully determines the candidate solve.
    key = (
        "plus", sync_blocks, config.max_reviews, config.mu, literal, exact,
        target.tobytes(),
    )
    return block, sync_blocks, target, key, evaluate


def solve_item_many(
    artifacts: SolverArtifacts,
    jobs: Sequence[tuple],
    *,
    timer: StageTimer | None = None,
    exact: bool = True,
) -> list[RegressionSelection]:
    """Many CompaReSetS per-item solves (Eq. 4) stacked into one pursuit.

    Each job is ``(tau, gamma, config)``.  Memo hits are filled from the
    solve cache; the misses share the base block's Gram/stacked matrices
    and run through :func:`batch_omp_many`, so a burst of distinct
    targets pays one ``G[:, S] @ C`` per round instead of one mat-vec
    per target per round.  Results are byte-identical to calling
    :func:`solve_item` per job and land in the same memo cache.
    Screened (huge) items fall back to the per-job screened path — GEMM
    stacking would materialise the O(q^2) Gram the screen exists to
    avoid.
    """
    timer = timer if timer is not None else StageTimer()
    block = artifacts.base_block()
    results: list[RegressionSelection | None] = [None] * len(jobs)
    misses: list[tuple[int, tuple, np.ndarray, tuple]] = []
    for index, (tau, gamma, config) in enumerate(jobs):
        target = concat_scaled((1.0, tau), (config.lam, gamma))
        key = ("item", config.max_reviews, exact, target.tobytes())
        hit = artifacts.peek(key)
        if hit is not None:
            results[index] = hit
        else:
            misses.append((index, key, target, (tau, gamma, config)))
    if not misses:
        return results  # type: ignore[return-value]

    if _screen_active(artifacts.screen, block.num_groups, exact):
        for index, _, _, (tau, gamma, config) in misses:
            results[index] = solve_item(
                artifacts, tau, gamma, config, timer=timer, exact=exact
            )
        return results  # type: ignore[return-value]

    with timer.stage("gram"):
        gram = block.gram(0)
        stacked = block.stacked(0)
    with timer.stage("pursuit"):
        targets = [np.asarray(target, dtype=float) for _, _, target, _ in misses]
        bs = [stacked.T @ target for target in targets]
        budgets = [config.max_reviews for _, _, _, (_, _, config) in misses]
        paths = batch_omp_many(gram, bs, budgets, stacked, targets, exact=exact)
    # Misses sharing a target dedup'd onto one leader pursuit above; their
    # rounding + evaluation shares one apportionment table per step too
    # (the evaluator depends only on (tau, gamma, lam), all pinned by the
    # group key), so only the budget-prefix scans stay per request.
    groups: dict[tuple, list[int]] = {}
    for position, (_, _, target, (_, _, config)) in enumerate(misses):
        groups.setdefault((target.tobytes(), config.lam), []).append(position)
    for members in groups.values():
        budgets_of = [misses[position][3][2].max_reviews for position in members]
        leader = members[int(np.argmax(budgets_of))]
        tau, gamma, config = misses[leader][3]
        evaluator = CountsEvaluator(artifacts, block, tau, gamma, config.lam)
        by_budget = _shared_path_selections(
            block, paths[leader], budgets_of, evaluator.item_value, timer
        )
        for position, budget in zip(members, budgets_of):
            index, key = misses[position][0], misses[position][1]
            selection = by_budget[budget]
            results[index] = artifacts.cached_solve(key, lambda s=selection: s)
    return results  # type: ignore[return-value]


def solve_plus_item_many(
    artifacts: SolverArtifacts,
    jobs: Sequence[tuple],
    *,
    timer: StageTimer | None = None,
    exact: bool = True,
) -> list[tuple[int, ...]]:
    """Many Algorithm-1 inner iterations for one item, GEMM-stacked.

    Each job is ``(tau, gamma, other_phis, config, current, literal)``;
    the return mirrors :func:`solve_plus_item` per job (the improved
    selection, or ``current``).  Candidate solves are grouped by the
    Gram block they pose against — jobs may mix ``mu`` values, sync
    counts, and the literal flag — and each group's cache misses run
    through one :func:`batch_omp_many` call.  Byte-identical to the
    sequential calls, same memo cache.
    """
    timer = timer if timer is not None else StageTimer()
    entries = []
    grouped: dict[tuple[int, int], list[int]] = {}
    for index, (tau, gamma, other_phis, config, current, literal) in enumerate(jobs):
        block, sync_blocks, target, key, evaluate = _plus_problem(
            artifacts, tau, gamma, other_phis, config, literal, exact, timer
        )
        candidate = artifacts.peek(key)
        entries.append(
            [index, block, sync_blocks, target, config, current, evaluate, key,
             candidate]
        )
        if candidate is None:
            grouped.setdefault((id(block), sync_blocks), []).append(len(entries) - 1)

    for group in grouped.values():
        block = entries[group[0]][1]
        sync_blocks = entries[group[0]][2]
        if _screen_active(artifacts.screen, block.num_groups, exact):
            for position in group:
                entry = entries[position]
                entry[8] = artifacts.cached_solve(
                    entry[7],
                    lambda e=entry: _run_regression(
                        e[1], e[2], e[3], e[4].max_reviews, e[6], timer,
                        exact=exact, screen=artifacts.screen,
                    ),
                )
            continue
        with timer.stage("gram"):
            gram = block.gram(sync_blocks)
            stacked = block.stacked(sync_blocks)
        with timer.stage("pursuit"):
            targets = [np.asarray(entries[p][3], dtype=float) for p in group]
            bs = [stacked.T @ target for target in targets]
            budgets = [entries[position][4].max_reviews for position in group]
            paths = batch_omp_many(gram, bs, budgets, stacked, targets, exact=exact)
        for position, path in zip(group, paths):
            entry = entries[position]
            budget = entry[4].max_reviews
            selection = _shared_path_selections(
                block, path, (budget,), entry[6], timer
            )[budget]
            entry[8] = artifacts.cached_solve(entry[7], lambda s=selection: s)

    return [
        _accepted(candidate, current, block, evaluate, timer)
        for _, block, _, _, _, current, evaluate, _, candidate in entries
    ]
