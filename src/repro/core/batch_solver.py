"""Cross-request batched selection over shared per-item solver artifacts.

A burst of concurrent serving requests against the same corpus generation
poses many independent selection problems over the *same* per-item Gram
blocks — only the request parameters (budget ``m``, sync weight ``mu``,
algorithm, CompaReSetS+ variant) differ.  :func:`select_many` runs such a
batch in lockstep: every item's per-request subproblems are stacked into
one multi-RHS pursuit (:func:`~repro.core.omp_kernel.batch_omp_many`), so
each Batch-OMP round costs one ``G[:, S] @ C`` GEMM across all requests
instead of one mat-vec per request per round.

This is the kernel's only driver of CompaReSetS and CompaReSetS+:
:class:`~repro.core.compare_sets.CompareSetsSelector` and
:class:`~repro.core.compare_sets_plus.CompareSetsPlusSelector` run a
single request as a batch of one.

Equivalence: the per-request results are byte-identical to the
scipy-``nnls`` reference selectors (``use_kernel=False``) — the batch
replicates their iteration order (base solve per item, then alternating
sweeps with per-item phi refresh) and the kernel's tie rechecks stay
per-request.  Solves land in the per-artifact memo cache, so a batch
warms the cache exactly like its one-request batches would.

The serving layer (:mod:`repro.serve.engine`) feeds sealed micro-batches
of distinct-target requests here; ``CompaReSetS+`` requests additionally
amortise their alternating sweeps across each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.omp_kernel import (
    SolverArtifacts,
    StageTimer,
    solve_item_many,
    solve_plus_item_many,
)
from repro.core.problem import SelectionConfig
from repro.core.selection import SelectionResult
from repro.core.vectors import VectorSpace
from repro.data.instances import ComparisonInstance

#: Algorithms :func:`select_many` can coalesce.  Other selectors (Random,
#: MILP, greedy baselines) do not share the kernel's Gram-block shape and
#: fall back to per-request solving in the engine.
BATCHABLE_ALGORITHMS = frozenset({"CompaReSetS", "CompaReSetS+"})


@dataclass(frozen=True, slots=True)
class BatchJob:
    """One request's selection parameters inside a :func:`select_many` batch.

    ``variant`` only matters for ``CompaReSetS+`` (the Algorithm-1
    literal/weighted acceptance reading).  ``config`` may differ per job
    in ``max_reviews``, ``mu``, and ``sweeps``; ``lam`` and ``scheme``
    must match the shared artifacts (the serving layer groups requests by
    artifact identity, which pins both).
    """

    algorithm: str
    config: SelectionConfig
    variant: str = "literal"


def select_many(
    instance: ComparisonInstance,
    jobs: list[BatchJob],
    *,
    space: VectorSpace,
    solver_artifacts: tuple[SolverArtifacts, ...] | None = None,
    timer: StageTimer | None = None,
) -> list[SelectionResult]:
    """Solve many selection requests against one instance in lockstep.

    Returns one :class:`SelectionResult` per job, in job order, each
    byte-identical to the corresponding reference selector run.  All jobs
    share ``space`` and the per-item ``solver_artifacts`` (hence one
    ``lam``/scheme); budgets, ``mu``, sweeps, algorithm, and variant vary
    freely per job.  Without ``solver_artifacts`` the per-item artifacts
    are built here, against the first job's ``lam``, and their dedup and
    Gram time lands in ``timer``.
    """
    for job in jobs:
        if job.algorithm not in BATCHABLE_ALGORITHMS:
            raise ValueError(
                f"algorithm {job.algorithm!r} is not batchable; "
                f"expected one of {sorted(BATCHABLE_ALGORITHMS)}"
            )
        if job.variant not in ("literal", "weighted"):
            raise ValueError(
                f"variant must be 'literal' or 'weighted', got {job.variant!r}"
            )
    if not jobs:
        return []
    timer = timer if timer is not None else StageTimer()
    if solver_artifacts is None:
        solver_artifacts = tuple(
            SolverArtifacts(space, reviews, jobs[0].config.lam, timer=timer)
            for reviews in instance.reviews
        )
    if len(solver_artifacts) != instance.num_items:
        raise ValueError(
            f"{len(solver_artifacts)} artifacts for {instance.num_items} items"
        )
    for item_index, (artifacts, reviews) in enumerate(
        zip(solver_artifacts, instance.reviews)
    ):
        for job in jobs:
            if not artifacts.matches(space, reviews, job.config.lam):
                raise ValueError(
                    f"artifacts for item {item_index} do not match the batch "
                    "space/reviews/lam"
                )
    num_items = instance.num_items
    gamma = space.aspect_vector(instance.reviews[0])
    taus = [space.opinion_vector(reviews) for reviews in instance.reviews]

    # Base phase: every job needs the CompaReSetS solution (it seeds
    # Algorithm 1 for the plus jobs), so each item runs one multi-RHS
    # pursuit across the whole batch.
    base: list[list[tuple[int, ...]]] = [
        [() for _ in range(num_items)] for _ in jobs
    ]
    for item_index, reviews in enumerate(instance.reviews):
        if not reviews:
            continue
        solved = solve_item_many(
            solver_artifacts[item_index],
            [(taus[item_index], gamma, job.config) for job in jobs],
            timer=timer,
        )
        for job_index, selection in enumerate(solved):
            base[job_index][item_index] = selection.selected

    results: list[SelectionResult | None] = [None] * len(jobs)
    plus_jobs = [
        index for index, job in enumerate(jobs) if job.algorithm == "CompaReSetS+"
    ]

    if plus_jobs:
        selections = {index: list(base[index]) for index in plus_jobs}
        phis = {
            index: [
                space.aspect_vector(
                    tuple(instance.reviews[i][k] for k in base[index][i])
                )
                for i in range(num_items)
            ]
            for index in plus_jobs
        }
        max_sweeps = max(jobs[index].config.sweeps for index in plus_jobs)
        for sweep in range(max_sweeps):
            active = [
                index for index in plus_jobs if sweep < jobs[index].config.sweeps
            ]
            if not active:
                break
            for item_index in range(num_items):
                reviews = instance.reviews[item_index]
                if not reviews:
                    continue
                batch = []
                for index in active:
                    other_phis = [
                        phis[index][j] for j in range(num_items) if j != item_index
                    ]
                    batch.append(
                        (
                            taus[item_index],
                            gamma,
                            other_phis,
                            jobs[index].config,
                            selections[index][item_index],
                            jobs[index].variant == "literal",
                        )
                    )
                solved = solve_plus_item_many(
                    solver_artifacts[item_index], batch, timer=timer
                )
                for index, selection in zip(active, solved):
                    if selection != selections[index][item_index]:
                        selections[index][item_index] = selection
                        phis[index][item_index] = space.aspect_vector(
                            [reviews[k] for k in selection]
                        )
        for index in plus_jobs:
            results[index] = SelectionResult(
                instance=instance,
                selections=tuple(selections[index]),
                algorithm="CompaReSetS+",
                timings=timer.as_millis(),
                counters=dict(timer.counters) if timer.counters else None,
            )

    for index, job in enumerate(jobs):
        if results[index] is None:
            results[index] = SelectionResult(
                instance=instance,
                selections=tuple(base[index]),
                algorithm="CompaReSetS",
                timings=timer.as_millis(),
                counters=dict(timer.counters) if timer.counters else None,
            )
    return results  # type: ignore[return-value]
