"""CompaReSetS+ — Problem 2, solved by Algorithm 1 (alternating regression).

Starting from the CompaReSetS solution, each item p_i is re-solved against
the stacked target

    Upsilon = [tau_i; lambda*Gamma; mu*phi(S_1); ...; mu*phi(S_{i-1});
               mu*phi(S_{i+1}); ...; mu*phi(S_n)]

with matrix V whose columns stack the per-review opinion incidence, the
lambda-scaled aspect incidence, and n-1 copies of the mu-scaled aspect
incidence (Algorithm 1, line 4).  A new selection replaces the old one
only when it strictly improves the true Eq.-5 contribution of item i
(Algorithm 1, lines 10-12).  The paper performs one alternating pass;
``config.sweeps`` allows more.

Two readings of Algorithm 1 are implemented, selectable via the
``variant`` constructor argument:

* ``"literal"`` (default) — exactly what Algorithm 1 writes: the target
  Upsilon = [tau_i; Gamma; phi(S_1); ...] is *unscaled* while V's rows
  carry lambda and mu, and the acceptance test of line 10 compares
  candidate against target in that unweighted space, i.e. the candidate
  wins when Delta(tau, pi) + Delta(Gamma, phi) + sum_j Delta(phi, phi_j)
  improves.  Here mu modulates how aggressively the *continuous* stage
  chases synchronisation (a small mu row-scale against an O(1) target
  block produces a large residual and a strong pull), while acceptance
  weighs fit and synchronisation equally.
* ``"weighted"`` — the Eq.-5-consistent reading: lambda/mu appear on both
  the matrix rows and the target blocks, and acceptance uses the true
  Eq.-5 contribution of item i.  With the paper's mu = 0.1 the cross term
  is then only mu^2 = 1% of the objective and the synchronisation effect
  is far weaker.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_solver import BatchJob, select_many
from repro.core.compare_sets import CompareSetsSelector
from repro.core.distance import concat_scaled, squared_l2
from repro.core.integer_regression import integer_regression_select
from repro.core.objective import item_objective
from repro.core.omp_kernel import SolverArtifacts
from repro.core.problem import SelectionConfig
from repro.core.selection import SelectionResult, build_space, register_selector
from repro.core.vectors import VectorSpace, regression_columns
from repro.data.instances import ComparisonInstance
from repro.data.models import Review


def _item_plus_objective(
    space: VectorSpace,
    chosen: list[Review],
    tau: np.ndarray,
    gamma: np.ndarray,
    other_phis: list[np.ndarray],
    config: SelectionConfig,
    literal: bool,
) -> float:
    """Item i's acceptance score with the other selections fixed.

    ``literal=False``: the true Eq.-5 contribution (lambda^2 / mu^2
    weighted).  ``literal=True``: Algorithm 1 line 10's unweighted
    distance Delta(tau, pi) + Delta(Gamma, phi) + sum_j Delta(phi, phi_j).
    """
    phi = space.aspect_vector(chosen)
    pairwise = sum(squared_l2(phi, other) for other in other_phis)
    if literal:
        pi = space.opinion_vector(chosen)
        return squared_l2(tau, pi) + squared_l2(gamma, phi) + pairwise
    base = item_objective(space, chosen, tau, gamma, config.lam)
    return base + config.mu**2 * pairwise


@register_selector
class CompareSetsPlusSelector:
    """Problem 2: synchronised selection via Algorithm 1.

    ``variant="literal"`` (default) follows Algorithm 1 verbatim (see the
    module docstring); ``variant="weighted"`` is the Eq.-5-consistent
    alternative.  The ablation benchmark compares the two.  The default
    kernel runs the request through
    :func:`~repro.core.batch_solver.select_many` as a batch of one;
    ``use_kernel=False`` pins the scipy-``nnls`` reference.
    """

    name = "CompaReSetS+"

    def __init__(self, variant: str = "literal", use_kernel: bool = True) -> None:
        if variant not in ("literal", "weighted"):
            raise ValueError(f"variant must be 'literal' or 'weighted', got {variant!r}")
        self.variant = variant
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
        """Solve CompaReSetS+ on ``instance``; deterministic, ``rng`` unused.

        ``space`` optionally reuses a precomputed :class:`VectorSpace`
        (see :meth:`CompareSetsSelector.select`); ``solver_artifacts``
        likewise one kernel :class:`SolverArtifacts` per item.  The
        artifacts carry the per-item Gram blocks, so every alternating
        sweep reuses the same dedup + Gram and only rebuilds the target
        correlation vector.
        """
        if space is None:
            space = build_space(instance, config)
        if self.use_kernel:
            return select_many(
                instance,
                [BatchJob(self.name, config, self.variant)],
                space=space,
                solver_artifacts=solver_artifacts,
            )[0]
        gamma = space.aspect_vector(instance.reviews[0])
        taus = [space.opinion_vector(reviews) for reviews in instance.reviews]

        # Algorithm 1 input: the CompaReSetS solution.
        initial = CompareSetsSelector(use_kernel=False).select(
            instance, config, space=space
        )
        selections: list[tuple[int, ...]] = list(initial.selections)
        phis: list[np.ndarray] = [
            space.aspect_vector(initial.selected_reviews(i))
            for i in range(instance.num_items)
        ]

        num_items = instance.num_items
        for _ in range(config.sweeps):
            for item_index in range(num_items):
                reviews = instance.reviews[item_index]
                if not reviews:
                    continue
                other_phis = [
                    phis[j] for j in range(num_items) if j != item_index
                ]
                selection = self._inner_iteration(
                    space,
                    reviews,
                    taus[item_index],
                    gamma,
                    other_phis,
                    config,
                    current=selections[item_index],
                    literal=(self.variant == "literal"),
                )
                if selection != selections[item_index]:
                    selections[item_index] = selection
                    phis[item_index] = space.aspect_vector(
                        [reviews[j] for j in selection]
                    )

        return SelectionResult(
            instance=instance, selections=tuple(selections), algorithm=self.name
        )

    @staticmethod
    def _inner_iteration(
        space: VectorSpace,
        reviews: tuple[Review, ...],
        tau: np.ndarray,
        gamma: np.ndarray,
        other_phis: list[np.ndarray],
        config: SelectionConfig,
        current: tuple[int, ...],
        literal: bool,
    ) -> tuple[int, ...]:
        """One Algorithm-1 inner iteration for item i.

        Returns the improved selection, or ``current`` when the regression
        candidate does not strictly improve the acceptance score
        (Algorithm 1, lines 10-12).
        """
        columns = regression_columns(
            space, reviews, config.lam, config.mu, sync_blocks=len(other_phis)
        )
        # Literal Algorithm 1 leaves the target blocks unscaled; the
        # weighted variant mirrors the row scalings on the target side.
        gamma_scale = 1.0 if literal else config.lam
        phi_scale = 1.0 if literal else config.mu
        target_parts: list[tuple[float, np.ndarray]] = [
            (1.0, tau),
            (gamma_scale, gamma),
        ]
        for phi in other_phis:
            target_parts.append((phi_scale, phi))
        target = concat_scaled(*target_parts)

        def evaluate(selection: tuple[int, ...]) -> float:
            chosen = [reviews[j] for j in selection]
            return _item_plus_objective(
                space, chosen, tau, gamma, other_phis, config, literal
            )

        candidate = integer_regression_select(
            columns, target, config.max_reviews, evaluate
        )
        current_objective = evaluate(current)
        if candidate.objective < current_objective - 1e-12:
            return candidate.selected
        return current
