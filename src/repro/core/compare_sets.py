"""CompaReSetS — Problem 1, solved per item by Integer-Regression.

Eq. 1 decomposes over items (Eq. 3), so each item p_i is solved
independently: minimise Delta(tau_i, pi(S_i)) + lambda^2 Delta(Gamma,
phi(S_i)) over subsets S_i of R_i with |S_i| <= m.  Following Eq. 4 this
equals a single regression against the concatenated target
[tau_i; lambda * Gamma] with matrix rows [opinion incidence;
lambda * aspect incidence].

By default the selector runs the Gram-cached Batch-OMP kernel through
:func:`~repro.core.batch_solver.select_many`, as a batch of one request;
``use_kernel=False`` keeps the original scipy-``nnls`` reference, the
oracle the kernel's byte-identity tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_solver import BatchJob, select_many
from repro.core.distance import concat_scaled
from repro.core.integer_regression import integer_regression_select
from repro.core.objective import item_objective
from repro.core.omp_kernel import SolverArtifacts, StageTimer, solve_item_many
from repro.core.problem import SelectionConfig
from repro.core.selection import SelectionResult, build_space, register_selector
from repro.core.vectors import VectorSpace, regression_columns
from repro.data.instances import ComparisonInstance
from repro.data.models import Review


def select_for_item(
    space: VectorSpace,
    reviews: tuple[Review, ...],
    tau: np.ndarray,
    gamma: np.ndarray,
    config: SelectionConfig,
    *,
    artifacts: SolverArtifacts | None = None,
    timer: StageTimer | None = None,
    use_kernel: bool = True,
) -> tuple[int, ...]:
    """Solve Eq. 3 for one item; returns sorted review indices.

    ``use_kernel=True`` (default) routes through the Batch-OMP kernel,
    optionally reusing precomputed ``artifacts`` (they must be bound to
    the same ``space`` / ``reviews`` / ``config.lam``); ``use_kernel=False``
    keeps the scipy-``nnls`` reference path, which the equivalence tests
    and the core benchmark compare against.
    """
    if not reviews:
        return ()
    if use_kernel:
        if artifacts is None:
            artifacts = SolverArtifacts(space, reviews, config.lam, timer=timer)
        elif not artifacts.matches(space, reviews, config.lam):
            raise ValueError(
                "solver artifacts are bound to a different item or config"
            )
        [solution] = solve_item_many(artifacts, [(tau, gamma, config)], timer=timer)
        return solution.selected
    columns = regression_columns(space, reviews, config.lam)
    target = concat_scaled((1.0, tau), (config.lam, gamma))

    def evaluate(selection: tuple[int, ...]) -> float:
        chosen = [reviews[j] for j in selection]
        return item_objective(space, chosen, tau, gamma, config.lam)

    return integer_regression_select(
        columns, target, config.max_reviews, evaluate
    ).selected


@register_selector
class CompareSetsSelector:
    """Problem 1: independent per-item Integer-Regression selection.

    ``use_kernel=False`` pins the scipy-``nnls`` reference solver; the
    default Batch-OMP kernel produces identical selections and reports
    per-stage timings on the result.
    """

    name = "CompaReSetS"

    def __init__(self, use_kernel: bool = True) -> None:
        self.use_kernel = use_kernel

    def select(
        self,
        instance: ComparisonInstance,
        config: SelectionConfig,
        rng: np.random.Generator | None = None,
        *,
        space: VectorSpace | None = None,
        solver_artifacts: tuple[SolverArtifacts, ...] | None = None,
    ) -> SelectionResult:
        """Solve CompaReSetS on ``instance``; ``rng`` is unused (deterministic).

        ``space`` may supply a precomputed :class:`VectorSpace` for the
        instance (its per-review memoisation then carries across calls, as
        the serving layer's :class:`~repro.serve.store.ItemStore` relies
        on); it must match ``instance.aspect_vocabulary()`` and
        ``config.scheme``.  ``solver_artifacts`` likewise reuses one
        :class:`SolverArtifacts` per item (built against ``space`` and
        ``config.lam``), letting warm serving requests skip dedup + Gram
        entirely.
        """
        if space is None:
            space = build_space(instance, config)
        if self.use_kernel:
            return select_many(
                instance,
                [BatchJob(self.name, config)],
                space=space,
                solver_artifacts=solver_artifacts,
            )[0]
        gamma = space.aspect_vector(instance.reviews[0])
        selections = tuple(
            select_for_item(
                space,
                reviews,
                space.opinion_vector(reviews),
                gamma,
                config,
                use_kernel=False,
            )
            for reviews in instance.reviews
        )
        return SelectionResult(
            instance=instance, selections=selections, algorithm=self.name
        )
