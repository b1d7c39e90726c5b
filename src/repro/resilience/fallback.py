"""Solver fallback chains with provenance.

Table 5 runs the TargetHkS ILP under a 60-second limit and reports
non-proven solutions when it is hit.  :class:`FallbackChain` generalises
that degradation: run an exact stage, fall back on solver error or an
exhausted deadline, and finally to the greedy Algorithm 2 — which
always answers.  The default chain is the from-scratch exact solver
(``"bnb"``: an enumeration on the small graphs serving sees, a branch
and bound above) then greedy; the HiGHS MILP (``"milp"``) stays a stage
a caller may name.  The outcome records which backend actually produced
the solution and what happened to every stage before it, so experiment
tables can report provenance alongside ``proven_optimal``.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.graph.target_hks import HksSolution, solve_greedy, solve_ilp
from repro.resilience.deadline import Deadline, DeadlineExceeded, resolve_deadline

# A stage is a name from STAGES, or a (name, solver) pair where
# solver(weights, k, target, deadline) -> HksSolution (for custom
# backends and fault-injection tests).
StageSolver = Callable[[np.ndarray, int, int, Deadline], HksSolution]

#: Every built-in stage name.
STAGES: tuple[str, ...] = ("milp", "bnb", "greedy")

DEFAULT_STAGES: tuple[str, ...] = ("bnb", "greedy")


class FallbackExhausted(RuntimeError):
    """Every stage of a fallback chain failed (no terminal greedy stage)."""


@dataclass(frozen=True, slots=True)
class FallbackAttempt:
    """What happened to one stage of the chain."""

    backend: str
    status: str  # "ok" | "error" | "deadline"
    seconds: float
    error: str | None = None


@dataclass(frozen=True, slots=True)
class FallbackOutcome:
    """The chain's answer plus full provenance."""

    solution: HksSolution
    backend: str
    attempts: tuple[FallbackAttempt, ...]

    @property
    def degraded(self) -> bool:
        """Whether any earlier (preferred) stage failed before the answer."""
        return self.attempts[0].status != "ok"


def builtin_stage(name: str, time_limit: float) -> StageSolver:
    """The named built-in stage solver (public so callers can wrap it —
    the serving engine interposes circuit breakers per backend)."""
    return _builtin_stage(name, time_limit)


def _builtin_stage(name: str, time_limit: float) -> StageSolver:
    if name in ("milp", "bnb"):
        def solve(weights, k, target, deadline, _backend=name):
            return solve_ilp(
                weights, k, target,
                time_limit=time_limit, backend=_backend, deadline=deadline,
            )
        return solve
    if name == "greedy":
        def solve(weights, k, target, deadline):
            return solve_greedy(weights, k, target)
        return solve
    raise ValueError(
        f"unknown fallback stage {name!r}; use one of {STAGES} "
        "or a (name, solver) pair"
    )


class FallbackChain:
    """Try TargetHkS backends in order, degrading on timeout or error.

    ``stages`` is an ordered sequence of backend names (any of
    :data:`STAGES`) or ``(name, solver)`` pairs.  Each stage
    gets the remaining deadline, itself tightened by ``time_limit``
    (the per-solve cap, the paper's 60-second budget).  A stage that
    raises — or that cannot start because the deadline already expired —
    is recorded and the next stage is tried; ``"greedy"`` never fails,
    so the default chain always answers.
    """

    def __init__(
        self,
        stages: Sequence["str | tuple[str, StageSolver]"] = DEFAULT_STAGES,
        time_limit: float = 60.0,
    ) -> None:
        if not stages:
            raise ValueError("a fallback chain needs at least one stage")
        if time_limit <= 0:
            raise ValueError("time_limit must be positive")
        self.time_limit = time_limit
        self._stages: list[tuple[str, StageSolver]] = []
        for stage in stages:
            if isinstance(stage, str):
                self._stages.append((stage, _builtin_stage(stage, time_limit)))
            else:
                name, solver = stage
                self._stages.append((str(name), solver))

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._stages)

    def solve(
        self,
        weights: np.ndarray,
        k: int,
        target: int = 0,
        deadline: Deadline | float | None = None,
    ) -> FallbackOutcome:
        """Solve TargetHkS, degrading through the chain as needed."""
        overall = resolve_deadline(deadline)
        attempts: list[FallbackAttempt] = []
        last = len(self._stages) - 1
        for position, (name, solver) in enumerate(self._stages):
            # Greedy (or whatever the terminal stage is) still runs on an
            # expired deadline: a cheap degraded answer beats no answer.
            if overall.expired() and position != last:
                attempts.append(
                    FallbackAttempt(backend=name, status="deadline", seconds=0.0)
                )
                continue
            start = time.perf_counter()
            try:
                solution = solver(
                    weights, k, target, overall.tightened(self.time_limit)
                )
            except DeadlineExceeded as exc:
                attempts.append(
                    FallbackAttempt(
                        backend=name,
                        status="deadline",
                        seconds=time.perf_counter() - start,
                        error=str(exc),
                    )
                )
            except Exception as exc:
                attempts.append(
                    FallbackAttempt(
                        backend=name,
                        status="error",
                        seconds=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            else:
                attempts.append(
                    FallbackAttempt(
                        backend=name,
                        status="ok",
                        seconds=time.perf_counter() - start,
                    )
                )
                return FallbackOutcome(
                    solution=solution, backend=name, attempts=tuple(attempts)
                )
        raise FallbackExhausted(
            "all fallback stages failed: "
            + "; ".join(f"{a.backend}={a.status}({a.error})" for a in attempts)
        )


def solve_with_fallback(
    weights: np.ndarray,
    k: int,
    target: int = 0,
    deadline: Deadline | float | None = None,
    time_limit: float = 60.0,
    stages: Sequence["str | tuple[str, StageSolver]"] = DEFAULT_STAGES,
) -> FallbackOutcome:
    """One-shot convenience wrapper around :class:`FallbackChain`."""
    return FallbackChain(stages, time_limit=time_limit).solve(
        weights, k, target, deadline=deadline
    )
