"""The in-process selection engine behind the HTTP API.

:class:`SelectionEngine` answers three request shapes against an
:class:`~repro.serve.store.ItemStore`:

* ``select`` — Problem 1/2 review-set selection by any registered
  algorithm;
* ``select_plus`` — convenience alias pinning CompaReSetS+;
* ``narrow`` — select, build the §3.1 item graph, and narrow to the
  k-item core list through the PR-1
  :class:`~repro.resilience.fallback.FallbackChain`.

Every answer carries :class:`Provenance`: how the cache behaved ("hit",
"miss", or "coalesced" behind another request's solve), which backend
produced it, whether it is proven optimal, and the wall time.  Cache
misses execute on a bounded worker pool; the caller blocks under the
ambient :class:`~repro.resilience.deadline.Deadline` (or an explicit
one), so an expired deadline surfaces as
:class:`~repro.resilience.deadline.DeadlineExceeded` — the HTTP layer's
503 — rather than an unbounded wait.

The engine is designed to be used in-process (tests, notebooks) exactly
as the HTTP server uses it; no sockets are involved until
:mod:`repro.serve.http` wraps it.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.batch_solver import BATCHABLE_ALGORITHMS, BatchJob, select_many
from repro.core.compare_sets import CompareSetsSelector
from repro.core.compare_sets_plus import CompareSetsPlusSelector
from repro.core.problem import SelectionConfig
from repro.core.selection import SELECTORS, SelectionResult, make_selector
from repro.core.vectors import OpinionScheme
from repro.data.codec import review_from_record, review_record
from repro.data.io import load_corpus
from repro.graph.similarity import build_item_graph
from repro.resilience.deadline import Deadline, DeadlineExceeded, resolve_deadline
from repro.resilience.fallback import (
    DEFAULT_STAGES,
    STAGES,
    FallbackChain,
    StageSolver,
    builtin_stage,
)
from repro.serve.admission import AdmissionController, Overloaded, request_cost
from repro.serve.batch import MicroBatcher
from repro.serve.breaker import STATE_CODES, BreakerBoard
from repro.serve.cache import ResultCache
from repro.serve.cachetier import SharedCacheTier, tier_key
from repro.serve.health import HealthMonitor
from repro.serve.jitter import NO_JITTER, RetryJitter
from repro.serve.metrics import MetricsRegistry
from repro.serve.snapshot import RecoveryInfo, SnapshotInfo, SnapshotManager
from repro.serve.store import (
    CorpusValidationError,
    DeltaValidationError,
    InstanceArtifacts,
    ItemStore,
)
from repro.serve.wal import WriteAheadLog

_RECOVERY_MODE_CODES = {"cold": 0, "cold+wal": 1, "snapshot": 2, "snapshot+wal": 3}


class InvalidRequest(ValueError):
    """A request failed semantic validation (HTTP 422)."""


class EngineClosed(RuntimeError):
    """The engine was shut down (HTTP 503)."""


class EngineDraining(EngineClosed):
    """The engine is draining for graceful shutdown (HTTP 503 + Retry-After)."""


_SCHEMES = {scheme.value: scheme for scheme in OpinionScheme}

#: Registered selectors a request may not name: the brute force enumerates
#: up to millions of subsets per item and would hold a worker for seconds.
UNSERVED_ALGORITHMS = frozenset({"CompaReSetS_Exhaustive"})

#: The largest lam or mu.  The selectors and the item graph square both
#: and multiply the square into Gram entries and aspect distances, so
#: the fourth root leaves those products finite.
_MAX_WEIGHT = sys.float_info.max**0.25


@dataclass(frozen=True, slots=True)
class SelectRequest:
    """Parameters of one ``select`` call (all have CLI-matching defaults).

    ``target=None`` picks the first viable target in the corpus, like the
    CLI does.
    """

    target: str | None = None
    m: int = 3
    lam: float = 1.0
    mu: float = 0.1
    scheme: str = OpinionScheme.BINARY.value
    algorithm: str = "CompaReSetS+"
    max_comparisons: int = 10
    min_reviews: int = 3

    def validated(self) -> "SelectRequest":
        """Raise :class:`InvalidRequest` on semantic errors."""
        if self.m < 1:
            raise InvalidRequest(f"m must be >= 1, got {self.m}")
        # Comparisons, so NaN fails them and a huge int cannot overflow.
        if not (0 <= self.lam <= _MAX_WEIGHT and 0 <= self.mu <= _MAX_WEIGHT):
            raise InvalidRequest(f"lam and mu must be in [0, {_MAX_WEIGHT:.4g}]")
        if self.scheme not in _SCHEMES:
            raise InvalidRequest(
                f"unknown scheme {self.scheme!r}; one of {sorted(_SCHEMES)}"
            )
        if self.algorithm not in SELECTORS or self.algorithm in UNSERVED_ALGORITHMS:
            problem = "unservable" if self.algorithm in SELECTORS else "unknown"
            raise InvalidRequest(
                f"{problem} algorithm {self.algorithm!r}; "
                f"one of {sorted(SELECTORS.keys() - UNSERVED_ALGORITHMS)}"
            )
        if self.max_comparisons < 1:
            raise InvalidRequest(
                f"max_comparisons must be >= 1, got {self.max_comparisons}"
            )
        if self.min_reviews < 1:
            raise InvalidRequest(
                f"min_reviews must be >= 1, got {self.min_reviews}"
            )
        return self

    def config(self) -> SelectionConfig:
        return SelectionConfig(
            max_reviews=self.m,
            lam=self.lam,
            mu=self.mu,
            scheme=_SCHEMES[self.scheme],
        )


@dataclass(frozen=True, slots=True)
class NarrowRequest(SelectRequest):
    """A ``narrow`` call: select, then TargetHkS down to ``k`` items."""

    k: int = 3
    time_limit: float = 60.0
    stages: tuple[str, ...] = DEFAULT_STAGES

    def validated(self) -> "NarrowRequest":
        # Explicit base call: zero-arg super() is broken inside
        # dataclass(slots=True) bodies (the decorator recreates the class).
        SelectRequest.validated(self)
        if self.k < 1:
            raise InvalidRequest(f"k must be >= 1, got {self.k}")
        if not 0 < self.time_limit <= sys.float_info.max:
            raise InvalidRequest(
                f"time_limit must be positive and finite, got {self.time_limit}"
            )
        if not self.stages:
            raise InvalidRequest("stages must not be empty")
        return self


@dataclass(frozen=True, slots=True)
class Provenance:
    """How an answer was produced (attached to every response).

    ``stage_timings`` carries the solver kernel's per-stage wall times in
    milliseconds (dedup / gram / screen / pursuit / round / evaluate) for
    the solve that produced the cached value; cache hits repeat the
    original solve's timings unchanged.  ``batch_size``/``batched_with``
    record cross-request batch amortisation: the solve ran inside a
    GEMM-stacked group of ``batch_size`` requests, sharing its pursuit
    rounds with ``batched_with`` others (absent for solo solves).
    ``solver_counters`` carries the kernel's integer event counts —
    notably the candidate pre-screen's examined/kept/promoted column
    totals for huge items.
    """

    cache: str  # "hit" | "miss" | "coalesced" | "tier"
    backend: str
    corpus_version: str
    wall_ms: float
    proven_optimal: bool | None = None
    fallback_depth: int | None = None
    degraded: bool = False
    breaker_skipped: tuple[str, ...] = ()
    stage_timings: Mapping[str, float] | None = None
    batch_size: int | None = None
    batched_with: int | None = None
    solver_counters: Mapping[str, int] | None = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "cache": self.cache,
            "backend": self.backend,
            "corpus_version": self.corpus_version,
            "wall_ms": round(self.wall_ms, 3),
            "degraded": self.degraded,
        }
        if self.proven_optimal is not None:
            payload["proven_optimal"] = self.proven_optimal
        if self.fallback_depth is not None:
            payload["fallback_depth"] = self.fallback_depth
        if self.breaker_skipped:
            payload["breaker_skipped"] = list(self.breaker_skipped)
        if self.stage_timings is not None:
            payload["stage_ms"] = {
                stage: round(ms, 3) for stage, ms in self.stage_timings.items()
            }
        if self.batch_size is not None:
            payload["batch_size"] = self.batch_size
            payload["batched_with"] = self.batched_with
        if self.solver_counters:
            payload["solver_counters"] = dict(self.solver_counters)
        return payload


@dataclass(frozen=True, slots=True)
class EngineResponse:
    """A JSON-ready result block plus its provenance."""

    result: dict[str, object]
    provenance: Provenance

    def as_dict(self) -> dict[str, object]:
        return {"result": self.result, "provenance": self.provenance.as_dict()}


def selection_payload(result: SelectionResult) -> dict[str, object]:
    """The canonical JSON-ready rendering of a :class:`SelectionResult`.

    This is the single serialisation path: the HTTP API, the in-process
    engine, and the byte-for-byte equivalence tests all call it, so
    "server output == offline selector output" is checkable with a plain
    bytes comparison of the dumps.
    """
    items = []
    for item_index, product in enumerate(result.instance.products):
        items.append(
            {
                "product_id": product.product_id,
                "title": product.title,
                "role": "target" if item_index == 0 else "comparative",
                "selected": [
                    {
                        "review_id": review.review_id,
                        "rating": review.rating,
                        "text": review.text,
                    }
                    for review in result.selected_reviews(item_index)
                ],
            }
        )
    return {
        "algorithm": result.algorithm,
        "target": result.instance.target.product_id,
        "selections": [list(s) for s in result.selections],
        "items": items,
    }


@dataclass(frozen=True, slots=True)
class _SolvedSelect:
    """Cached value for one select key.

    Deliberately JSON-able (payload + scalars only, no
    :class:`SelectionResult`) so the shared tier can round-trip it
    across processes; ``from_tier`` marks values decoded from the tier
    rather than solved locally, for provenance.
    """

    payload: dict[str, object]
    degraded: bool = False
    timings: Mapping[str, float] | None = None
    from_tier: bool = False
    counters: Mapping[str, int] | None = None
    batch_size: int | None = None
    batched_with: int | None = None


@dataclass(frozen=True, slots=True)
class _SolvedNarrow:
    payload: dict[str, object]
    backend: str
    proven_optimal: bool
    fallback_depth: int
    degraded: bool
    breaker_skipped: tuple[str, ...] = ()
    stage_timings: Mapping[str, float] | None = None
    from_tier: bool = False


class SelectionEngine:
    """Cached, deadline-aware selection serving against an ItemStore.

    ``batch_window`` > 0 enables micro-batching: concurrent cache-missing
    select requests of one corpus generation — same or different targets,
    mixed budgets/algorithms — are grouped for up to that many seconds
    and solved in one handler call; requests sharing per-item solver
    artifacts are GEMM-stacked through
    :func:`repro.core.batch_solver.select_many`, byte-identical to solo
    solves, with ``batch_size``/``batched_with`` amortisation recorded
    in provenance and ``repro_batch_*`` gauges in ``/metrics``.

    Overload protection: ``admission`` (default: a generous
    :class:`AdmissionController`) sheds excess requests with
    :class:`~repro.serve.admission.Overloaded` before they reach the
    worker pool; ``breakers`` trips failing narrow backends out of the
    fallback chain; ``stage_solvers`` overrides named fallback stages
    (the chaos harness injects faulty backends through it).
    """

    def __init__(
        self,
        store: ItemStore,
        *,
        cache: ResultCache | None = None,
        cache_size: int = 256,
        ttl: float | None = None,
        workers: int = 4,
        batch_window: float = 0.0,
        batch_max: int = 8,
        metrics: MetricsRegistry | None = None,
        admission: AdmissionController | None = None,
        breakers: BreakerBoard | None = None,
        stage_solvers: Mapping[str, StageSolver] | None = None,
        tier: SharedCacheTier | None = None,
        wal: WriteAheadLog | None = None,
        snapshots: SnapshotManager | None = None,
        snapshot_every: int = 0,
        recovery: RecoveryInfo | None = None,
        jitter: RetryJitter | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
        self.store = store
        # Every collaborator with process-wide state is injectable —
        # store, cache, tier, admission, breakers — so a shard worker can
        # assemble an engine over its own partition without hidden
        # globals; ``cache_size``/``ttl`` only shape the default cache.
        self.cache = (
            cache if cache is not None else ResultCache(max_size=cache_size, ttl=ttl)
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jitter = jitter or NO_JITTER
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_pending=workers * 64, jitter=self.jitter)
        )
        self.tier = tier
        self.wal = wal
        self.snapshots = snapshots
        self.snapshot_every = snapshot_every
        self.recovery = recovery
        self._ingest_lock = threading.Lock()
        self._deltas_since_snapshot = 0
        self._recovery_pending = False
        self.breakers = breakers if breakers is not None else BreakerBoard()
        # Hook the board (own or caller-supplied) into the metrics
        # registry so breaker transitions are always visible in /metrics.
        self.breakers.add_transition_hook(self._on_breaker_transition)
        self.health = HealthMonitor()
        self._stage_solvers = dict(stage_solvers or {})
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._closed = False
        self.batcher: MicroBatcher | None = None
        if batch_window > 0:
            self.batcher = MicroBatcher(
                self._solve_batch, max_batch=batch_max, max_wait=batch_window
            )
        self._latency = {
            endpoint: self.metrics.histogram(
                "repro_request_latency_seconds",
                "request wall time in seconds",
                labels={"endpoint": endpoint},
            )
            for endpoint in ("select", "narrow")
        }
        self._shed_latency = self.metrics.histogram(
            "repro_shed_latency_seconds",
            "wall time of requests refused by admission control",
        )
        self._wire_gauges()
        self._wire_health()
        if recovery is not None and recovery.mode != "cold":
            # Restarted from durable state: surface "recovering" until the
            # first request completes against the rebuilt generation.
            self._recovery_pending = True
            self.health.begin_recovery()

    def _on_breaker_transition(self, backend: str, old: str, new: str) -> None:
        self.metrics.counter(
            "repro_breaker_transitions_total",
            "circuit breaker state changes",
            labels={"backend": backend, "to": new},
        ).inc()
        self._register_breaker_gauge(backend)

    def _register_breaker_gauge(self, backend: str) -> None:
        self.metrics.gauge(
            "repro_breaker_state",
            lambda _backend=backend: STATE_CODES[
                self.breakers.breaker(_backend).state
            ],
            "breaker state per backend (0 closed, 1 half-open, 2 open)",
            labels={"backend": backend},
        )

    def _wire_health(self) -> None:
        for backend in STAGES:
            self._register_breaker_gauge(backend)

        def breaker_probe() -> str | None:
            opened = self.breakers.open_backends()
            if opened:
                return "circuit open: " + ", ".join(opened)
            return None

        def admission_probe() -> str | None:
            if self.admission.saturated():
                stats = self.admission.stats()
                return (
                    f"admission queue saturated "
                    f"({stats.inflight}/{stats.max_pending} pending)"
                )
            return None

        self.health.add_probe(breaker_probe)
        self.health.add_probe(admission_probe)
        self.metrics.gauge(
            "repro_health_state",
            self.health.code,
            "serving health (0 healthy, 1 degraded, 2 draining, 3 recovering)",
        )
        self.metrics.gauge(
            "repro_inflight",
            lambda: self.admission.inflight,
            "requests currently inside the engine",
        )
        admission_stats = self.admission.stats
        self.metrics.gauge(
            "repro_admission_shed_ratio",
            lambda: admission_stats().shed_ratio,
            "fraction of offered requests refused by admission control",
        )

    def _wire_gauges(self) -> None:
        stats = self.cache.stats
        self.metrics.gauge(
            "repro_cache_hits", lambda: stats().hits, "result cache hits"
        )
        self.metrics.gauge(
            "repro_cache_misses", lambda: stats().misses, "result cache misses"
        )
        self.metrics.gauge(
            "repro_cache_coalesced",
            lambda: stats().coalesced,
            "requests served by another request's in-flight solve",
        )
        self.metrics.gauge(
            "repro_cache_hit_ratio",
            lambda: stats().hit_ratio,
            "fraction of lookups answered without a fresh solve",
        )
        self.metrics.gauge(
            "repro_cache_size", lambda: stats().size, "cached results"
        )
        self.metrics.gauge(
            "repro_store_artifacts",
            lambda: self.store.stats()["cached_artifacts"],
            "precomputed instance artifacts",
        )
        if self.batcher is not None:
            batch_stats = self.batcher.stats
            self.metrics.gauge(
                "repro_batch_submitted",
                lambda: batch_stats().submitted,
                "requests submitted to the micro-batcher",
            )
            self.metrics.gauge(
                "repro_batch_batches",
                lambda: batch_stats().batches,
                "sealed micro-batches executed",
            )
            self.metrics.gauge(
                "repro_batch_batched_requests",
                lambda: batch_stats().batched_requests,
                "requests that joined another request's batch window",
            )
            self.metrics.gauge(
                "repro_batch_largest",
                lambda: batch_stats().largest_batch,
                "largest sealed micro-batch so far",
            )
            self.metrics.gauge(
                "repro_batch_amortisation",
                lambda: batch_stats().amortisation,
                "mean requests per micro-batch handler call",
            )
        if self.tier is not None:
            tier_stats = self.tier.stats
            self.metrics.gauge(
                "repro_tier_hits", lambda: tier_stats().hits,
                "shared cache tier hits",
            )
            self.metrics.gauge(
                "repro_tier_gets", lambda: tier_stats().gets,
                "shared cache tier lookups",
            )
            self.metrics.gauge(
                "repro_tier_puts", lambda: tier_stats().puts,
                "results published to the shared cache tier",
            )
            self.metrics.gauge(
                "repro_tier_errors", lambda: tier_stats().errors,
                "shared cache tier backend failures (absorbed)",
            )
            self.metrics.gauge(
                "repro_tier_skipped", lambda: tier_stats().skipped,
                "tier calls skipped while its breaker was open",
            )
            self.metrics.gauge(
                "repro_tier_breaker_state",
                lambda: STATE_CODES[self.tier.breaker.state],
                "shared tier breaker state (0 closed, 1 half-open, 2 open)",
            )
        if self.recovery is not None:
            recovery = self.recovery
            self.metrics.gauge(
                "repro_recovery_mode",
                lambda: _RECOVERY_MODE_CODES.get(recovery.mode, -1),
                "how the store was rebuilt "
                "(0 cold, 1 cold+wal, 2 snapshot, 3 snapshot+wal)",
            )
            self.metrics.gauge(
                "repro_recovery_replayed_deltas",
                lambda: recovery.replayed_deltas,
                "WAL deltas replayed at the last restart",
            )
            self.metrics.gauge(
                "repro_recovery_restarts",
                lambda: recovery.restarts,
                "supervisor restarts since the service started",
            )

    # -- public API ----------------------------------------------------------

    def select(
        self,
        request: SelectRequest | None = None,
        deadline: Deadline | float | None = None,
        **kwargs,
    ) -> EngineResponse:
        """Answer one select request (kwargs build a request if none given)."""
        if request is None:
            request = SelectRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass either a request object or kwargs, not both")
        request = request.validated()
        return self._run("select", request, resolve_deadline(deadline))

    def select_plus(
        self,
        request: SelectRequest | None = None,
        deadline: Deadline | float | None = None,
        **kwargs,
    ) -> EngineResponse:
        """``select`` pinned to CompaReSetS+ (Problem 2)."""
        if request is None:
            request = SelectRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass either a request object or kwargs, not both")
        return self.select(replace(request, algorithm="CompaReSetS+"), deadline)

    def narrow(
        self,
        request: NarrowRequest | None = None,
        deadline: Deadline | float | None = None,
        **kwargs,
    ) -> EngineResponse:
        """Select, then narrow to the k-item core list via the fallback chain."""
        if request is None:
            request = NarrowRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass either a request object or kwargs, not both")
        request = request.validated()
        return self._run("narrow", request, resolve_deadline(deadline))

    def close(self) -> None:
        """Stop accepting work and release the worker pool (abruptly).

        In-flight futures are cancelled; prefer :meth:`drain` for a
        graceful stop that lets accepted requests finish first.
        """
        self._closed = True
        self.health.start_draining()
        if self.batcher is not None:
            self.batcher.close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.wal is not None:
            self.wal.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Gracefully stop: refuse new work, let in-flight requests finish.

        Enters the draining health state immediately (new requests raise
        :class:`EngineDraining`, the HTTP layer's 503), waits up to
        ``timeout`` seconds for every in-flight request to complete,
        then releases the worker pool.  Returns ``True`` when the engine
        drained fully within the timeout; on ``False`` the stragglers
        were cancelled as in :meth:`close`.
        """
        if timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        self.health.start_draining()
        deadline = Deadline.after(timeout)
        while self.admission.inflight > 0 and not deadline.expired():
            time.sleep(0.005)
        drained = self.admission.inflight == 0
        self._closed = True
        if self.batcher is not None:
            self.batcher.close()
        self._pool.shutdown(wait=drained, cancel_futures=not drained)
        if self.wal is not None:
            self.wal.close()
        return drained

    def reload_corpus(self, corpus) -> str:
        """Validated hot reload: swap the store's corpus, flush the cache.

        Delegates to :meth:`ItemStore.safe_reload` — the new corpus is
        validated while the old generation keeps serving, and a failing
        corpus raises :class:`~repro.serve.store.CorpusValidationError`
        without any visible change.  On success the result cache is
        cleared (its versioned keys are already unreachable; clearing
        just frees the memory immediately).
        """
        version = self.store.safe_reload(corpus)
        self.cache.clear()
        self.metrics.counter(
            "repro_reloads_total", "successful corpus reloads"
        ).inc()
        if self.snapshots is not None:
            # A reload starts a new lineage: WAL records for the old one
            # are obsolete.  Snapshot the fresh generation immediately so
            # a crash right after the reload recovers to it; the save
            # drops the old lineage's snapshots, so the compaction takes
            # the stale tail away.  Failure is non-fatal — serving is
            # already on the new corpus; the next snapshot retries.
            try:
                self.snapshot()
            except OSError:
                self.metrics.counter(
                    "repro_snapshot_failures_total", "failed snapshot writes"
                ).inc()
        return version

    def reload_from_path(self, path: str | Path) -> str:
        """Load a JSONL corpus from disk and :meth:`reload_corpus` it.

        An unreadable or unparsable file — including one that is
        truncated mid-record, not UTF-8, or missing required fields — is
        a validation failure (the corpus never existed as far as serving
        is concerned), reported as :class:`CorpusValidationError`.
        """
        try:
            corpus = load_corpus(path)
        except (OSError, ValueError) as exc:
            raise CorpusValidationError(
                f"cannot load corpus from {str(path)!r}: {exc}"
            ) from exc
        return self.reload_corpus(corpus)

    # -- durable ingest -------------------------------------------------------

    def ingest_reviews(
        self, records: Sequence[Mapping], *, delta_seq: int | None = None
    ) -> dict[str, object]:
        """Apply one review delta durably; returns an ack payload.

        The write discipline is WAL-before-apply-before-ack: the batch
        is validated against the live generation, fsynced to the WAL,
        applied as a new generation, and only then acknowledged — so an
        acknowledged delta survives any crash (the chaos suite's
        zero-acked-lost invariant).  A WAL append failure (disk full)
        surfaces as :class:`OSError` with the store untouched; the batch
        was never acked and never applied.

        ``delta_seq`` is an optional caller-supplied identity for the
        batch (the cluster gateway's global delta sequence): it is
        stamped into the WAL record so a restarted shard worker can
        rebuild its applied-delta set from replay and treat a hinted
        re-delivery as the no-op it is.  The single-process path never
        sets it.

        Invalidation is generation-chained: exactly the entries tagged
        with an affected product are evicted, locally and in the shared
        tier.
        """
        if self.health.draining:
            raise EngineDraining("engine is draining for shutdown")
        if self._closed:
            raise EngineClosed("engine is closed")
        try:
            reviews = [review_from_record(record) for record in records]
        except ValueError as exc:
            raise DeltaValidationError(str(exc)) from exc
        with self._ingest_lock:
            self.store.validate_delta(reviews)
            seq = 0
            if self.wal is not None:
                record: dict[str, object] = {
                    "kind": "delta",
                    "reviews": [review_record(r) for r in reviews],
                }
                if delta_seq is not None:
                    record["delta_seq"] = delta_seq
                seq = self.wal.append(record)
            outcome = self.store.apply_delta(reviews)
            self._deltas_since_snapshot += 1
            snapshot_due = (
                self.snapshots is not None
                and self.snapshot_every > 0
                and self._deltas_since_snapshot >= self.snapshot_every
            )
        evicted = self.cache.invalidate_tags(outcome.affected)
        tier_purged = 0
        if self.tier is not None:
            tier_purged = self.tier.purge_products(outcome.affected)
        self.metrics.counter(
            "repro_ingest_total", "acknowledged review deltas"
        ).inc()
        self.metrics.counter(
            "repro_ingest_reviews_total", "reviews added via delta ingest"
        ).inc(outcome.added)
        self.metrics.counter(
            "repro_cache_invalidated_total",
            "cache entries evicted by delta invalidation",
        ).inc(evicted)
        self.metrics.counter(
            "repro_ingest_artifacts_patched_total",
            "solver artifacts extended in place by delta ingest",
        ).inc(outcome.patched)
        self.metrics.counter(
            "repro_ingest_artifacts_rebuilt_total",
            "solver artifacts dropped for cold rebuild by delta ingest",
        ).inc(outcome.rebuilt)
        self.metrics.histogram(
            "repro_ingest_patch_seconds",
            "wall time of the per-delta artifact carry-over pass",
        ).observe(outcome.patch_ms / 1e3)
        if snapshot_due:
            try:
                self.snapshot()
            except OSError:
                # Non-fatal: the delta is already durable in the WAL.
                self.metrics.counter(
                    "repro_snapshot_failures_total", "failed snapshot writes"
                ).inc()
        return {
            "version": outcome.version,
            "added": outcome.added,
            "affected": list(outcome.affected),
            "wal_seq": seq,
            "cache_evicted": evicted,
            "tier_purged": tier_purged,
            "artifacts": {
                "patched": outcome.patched,
                "rebuilt": outcome.rebuilt,
                "verify_failures": outcome.verify_failures,
            },
            "stage_ms": {"artifact_patch": outcome.patch_ms},
        }

    def snapshot(self) -> SnapshotInfo:
        """Write an atomic generation snapshot and compact the WAL.

        The log keeps every record past the *oldest* kept snapshot's
        watermark, so recovery from any kept snapshot still finds its
        tail.  Raises :class:`RuntimeError` when no snapshot manager is
        configured.
        """
        if self.snapshots is None:
            raise RuntimeError("snapshots are not configured (no state dir)")
        with self._ingest_lock:
            wal_seq = self.wal.last_seq if self.wal is not None else 0
            info = self.snapshots.save(self.store, wal_seq=wal_seq)
            if self.wal is not None:
                self.wal.compact(self.snapshots.oldest_watermark())
            self._deltas_since_snapshot = 0
        self.metrics.counter(
            "repro_snapshots_total", "generation snapshots written"
        ).inc()
        return info

    # -- internals -----------------------------------------------------------

    def _run(
        self, endpoint: str, request: SelectRequest, deadline: Deadline
    ) -> EngineResponse:
        if self.health.draining and not self._closed:
            raise EngineDraining("engine is draining for shutdown")
        if self._closed:
            raise EngineClosed("engine is closed")
        started = time.perf_counter()
        self.metrics.counter(
            "repro_requests_total", "requests by endpoint",
            labels={"endpoint": endpoint},
        ).inc()
        cost = request_cost(
            endpoint,
            request.m,
            k=getattr(request, "k", 0),
            stages=len(getattr(request, "stages", ())),
            reviews=self.store.stats()["reviews"],
        )
        try:
            slot = self.admission.admit(cost)
        except Overloaded as exc:
            self.metrics.counter(
                "repro_shed_total", "requests refused by admission control",
                labels={"reason": exc.reason},
            ).inc()
            self._shed_latency.observe(time.perf_counter() - started)
            raise
        with slot:
            try:
                artifacts = self._artifacts_for(request)
                request = self._pin_target(request, artifacts)
                key = self._cache_key(endpoint, request, artifacts)
                tags = tuple(
                    p.product_id for p in artifacts.instance.products
                )
                solved, source = self.cache.get_or_compute(
                    key,
                    lambda: self._compute(endpoint, request, artifacts, deadline),
                    deadline,
                    tags=tags,
                )
            except Exception:
                self.metrics.counter(
                    "repro_request_errors_total", "failed requests by endpoint",
                    labels={"endpoint": endpoint},
                ).inc()
                raise
        if source == "miss" and solved.from_tier:
            source = "tier"
        if self._recovery_pending:
            self._recovery_pending = False
            self.health.end_recovery()
        wall_ms = (time.perf_counter() - started) * 1e3
        self._latency[endpoint].observe(wall_ms / 1e3)
        if isinstance(solved, _SolvedNarrow):
            provenance = Provenance(
                cache=source,
                backend=solved.backend,
                corpus_version=artifacts.version,
                wall_ms=wall_ms,
                proven_optimal=solved.proven_optimal,
                fallback_depth=solved.fallback_depth,
                degraded=solved.degraded,
                breaker_skipped=solved.breaker_skipped,
                stage_timings=solved.stage_timings,
            )
        else:
            provenance = Provenance(
                cache=source,
                backend=request.algorithm,
                corpus_version=artifacts.version,
                wall_ms=wall_ms,
                degraded=solved.degraded,
                stage_timings=solved.timings,
                batch_size=solved.batch_size,
                batched_with=solved.batched_with,
                solver_counters=solved.counters,
            )
        return EngineResponse(result=solved.payload, provenance=provenance)

    def _artifacts_for(self, request: SelectRequest) -> InstanceArtifacts:
        target = request.target
        if target is None:
            target = self.store.default_target(
                request.max_comparisons, request.min_reviews
            )
        return self.store.artifacts(
            target,
            request.config(),
            max_comparisons=request.max_comparisons,
            min_reviews=request.min_reviews,
        )

    @staticmethod
    def _pin_target(
        request: SelectRequest, artifacts: InstanceArtifacts
    ) -> SelectRequest:
        """Replace ``target=None`` with the resolved default target id."""
        if request.target is not None:
            return request
        return replace(
            request, target=artifacts.instance.target.product_id
        )

    @staticmethod
    def _cache_key(
        endpoint: str, request: SelectRequest, artifacts: InstanceArtifacts
    ) -> tuple:
        # Keyed by the generation *chain*, not the version string: a
        # delta to product P changes only P's epoch, so entries for
        # untouched targets stay addressable across deltas (and, via the
        # chain token, across process restarts in the shared tier).
        key: tuple = (
            endpoint,
            artifacts.chain,
            request.target,
            artifacts.comparative_ids,
            request.m,
            request.lam,
            request.mu,
            request.scheme,
            request.algorithm,
        )
        if isinstance(request, NarrowRequest):
            key += (request.k, request.stages, request.time_limit)
        return key

    def _tier_token(
        self, endpoint: str, request: SelectRequest, artifacts: InstanceArtifacts
    ) -> str | None:
        """The cross-process tier key, or None when the tier is off."""
        if self.tier is None:
            return None
        parts: tuple = (
            endpoint,
            request.target,
            artifacts.comparative_ids,
            request.m,
            request.lam,
            request.mu,
            request.scheme,
            request.algorithm,
        )
        if isinstance(request, NarrowRequest):
            parts += (request.k, request.stages, request.time_limit)
        return tier_key(artifacts.chain_token, *parts)

    @staticmethod
    def _encode_tier(solved) -> dict:
        """A JSON envelope for one solved value (both endpoint shapes)."""
        if isinstance(solved, _SolvedNarrow):
            return {
                "kind": "narrow",
                "payload": solved.payload,
                "backend": solved.backend,
                "proven_optimal": solved.proven_optimal,
                "fallback_depth": solved.fallback_depth,
                "degraded": solved.degraded,
                "breaker_skipped": list(solved.breaker_skipped),
                "stage_timings": dict(solved.stage_timings)
                if solved.stage_timings
                else None,
            }
        return {
            "kind": "select",
            "payload": solved.payload,
            "degraded": solved.degraded,
            "timings": dict(solved.timings) if solved.timings else None,
            "counters": dict(solved.counters) if solved.counters else None,
            "batch_size": solved.batch_size,
            "batched_with": solved.batched_with,
        }

    @staticmethod
    def _decode_tier(endpoint: str, value: dict):
        """The solved object for a tier envelope, or None if unusable."""
        try:
            if value["kind"] != endpoint:
                return None
            if endpoint == "narrow":
                return _SolvedNarrow(
                    payload=value["payload"],
                    backend=str(value["backend"]),
                    proven_optimal=bool(value["proven_optimal"]),
                    fallback_depth=int(value["fallback_depth"]),
                    degraded=bool(value["degraded"]),
                    breaker_skipped=tuple(value.get("breaker_skipped") or ()),
                    stage_timings=value.get("stage_timings"),
                    from_tier=True,
                )
            batch_size = value.get("batch_size")
            batched_with = value.get("batched_with")
            return _SolvedSelect(
                payload=value["payload"],
                degraded=bool(value["degraded"]),
                timings=value.get("timings"),
                from_tier=True,
                counters=value.get("counters"),
                batch_size=int(batch_size) if batch_size is not None else None,
                batched_with=(
                    int(batched_with) if batched_with is not None else None
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _compute(
        self,
        endpoint: str,
        request: SelectRequest,
        artifacts: InstanceArtifacts,
        deadline: Deadline,
    ):
        """One local-cache miss: consult the shared tier, else solve.

        A tier hit skips the worker pool entirely; a fresh solve is
        published back (tagged with the instance's product ids so a
        delta's purge reaches it).  Tier trouble never fails the
        request — the tier degrades to misses internally.
        """
        token = self._tier_token(endpoint, request, artifacts)
        if token is not None:
            cached = self.tier.get(token)
            if cached is not None:
                decoded = self._decode_tier(endpoint, cached)
                if decoded is not None:
                    return decoded
        solved = self._dispatch(endpoint, request, artifacts, deadline)
        if token is not None:
            self.tier.put(
                token,
                self._encode_tier(solved),
                tags=tuple(p.product_id for p in artifacts.instance.products),
            )
        return solved

    def _dispatch(
        self,
        endpoint: str,
        request: SelectRequest,
        artifacts: InstanceArtifacts,
        deadline: Deadline,
    ):
        """Run one cache miss on the worker pool, bounded by ``deadline``."""
        # An expired deadline never starts a solve.  Otherwise the pool
        # wait below is 0 s, and a memo-warm solve that finishes first
        # would come back as a success.
        deadline.check(f"{endpoint} request not started")
        if self.batcher is not None and endpoint == "select":
            # Solver-aware grouping: any select misses of one corpus
            # generation may share GEMM-stacked pursuit rounds, so the
            # window coalesces across targets and parameters; the handler
            # partitions the sealed batch by concrete artifact identity.
            return self.batcher.submit(
                artifacts.version, (request, artifacts), deadline
            )
        future = self._pool.submit(self._solve, endpoint, request, artifacts)
        timeout = deadline.remaining() if deadline.bounded else None
        try:
            return future.result(timeout)
        except FutureTimeoutError:
            future.cancel()
            raise DeadlineExceeded(
                f"deadline exceeded while solving {endpoint} request"
            ) from None

    def _solve_batch(self, key: tuple, requests: list) -> list:
        """Micro-batch handler: GEMM-stack the batchable groups.

        The sealed batch shares a corpus generation; requests that also
        share an artifact object (same target/scheme/lambda — budgets,
        ``mu``, and algorithm may differ) and run a batchable paper
        algorithm are solved in one :func:`select_many` call, stacking
        their per-item pursuits into multi-RHS rounds.  Everything else
        (baselines, lone members) solves individually; partitions run
        concurrently on the pool.
        """
        self.metrics.histogram(
            "repro_batch_size",
            "sealed micro-batch sizes (requests per handler call)",
        ).observe(len(requests))
        groups: dict[int, list[int]] = {}
        for position, (request, artifacts) in enumerate(requests):
            if request.algorithm in BATCHABLE_ALGORITHMS:
                groups.setdefault(id(artifacts), []).append(position)
        stacked = [members for members in groups.values() if len(members) >= 2]
        in_group = {position for members in stacked for position in members}
        group_futures = [
            (
                members,
                self._pool.submit(
                    self._solve_group, [requests[p] for p in members]
                ),
            )
            for members in stacked
        ]
        solo_futures = {
            position: self._pool.submit(self._solve, "select", request, artifacts)
            for position, (request, artifacts) in enumerate(requests)
            if position not in in_group
        }
        results: list = [None] * len(requests)
        for members, future in group_futures:
            for position, solved in zip(members, future.result()):
                results[position] = solved
        for position, future in solo_futures.items():
            results[position] = future.result()
        return results

    def _solve_group(self, group: list) -> list:
        """Solve one shared-artifact partition through the batch solver."""
        artifacts = group[0][1]
        jobs = [
            BatchJob(algorithm=request.algorithm, config=request.config())
            for request, _ in group
        ]
        selected = select_many(
            artifacts.instance,
            jobs,
            space=artifacts.space,
            solver_artifacts=artifacts.solver,
        )
        # One timer spans the whole group, so observe its totals once
        # rather than once per member.
        self._observe_stage_timings(selected[0].timings if selected else None)
        size = len(group)
        return [
            _SolvedSelect(
                payload=selection_payload(result),
                degraded=result.degraded,
                timings=result.timings,
                counters=result.counters,
                batch_size=size,
                batched_with=size - 1,
            )
            for result in selected
        ]

    def _solve(
        self, endpoint: str, request: SelectRequest, artifacts: InstanceArtifacts
    ):
        selected = self._select_result(request, artifacts)
        if endpoint == "select":
            return _SolvedSelect(
                payload=selection_payload(selected),
                degraded=selected.degraded,
                timings=selected.timings,
                counters=selected.counters,
            )
        assert isinstance(request, NarrowRequest)
        return self._narrow_result(request, artifacts, selected)

    def _select_result(
        self, request: SelectRequest, artifacts: InstanceArtifacts
    ) -> SelectionResult:
        config = request.config()
        selector = make_selector(request.algorithm)
        if isinstance(selector, (CompareSetsSelector, CompareSetsPlusSelector)):
            # The paper algorithms accept the store's precomputed space and
            # per-item solver artifacts (dedup + Gram reuse); baselines
            # build their own (they are cheap by construction).
            result = selector.select(
                artifacts.instance,
                config,
                space=artifacts.space,
                solver_artifacts=artifacts.solver,
            )
        else:
            result = selector.select(artifacts.instance, config)
        self._observe_stage_timings(result.timings)
        return result

    def _observe_stage_timings(self, timings: Mapping[str, float] | None) -> None:
        """Export one solve's per-stage kernel timings to /metrics."""
        if not timings:
            return
        for stage, ms in timings.items():
            self.metrics.histogram(
                "repro_solver_stage_seconds",
                "per-stage solver kernel wall time for cache-miss solves",
                labels={"stage": stage},
            ).observe(ms / 1e3)

    def _chain_for(
        self, request: NarrowRequest
    ) -> tuple[FallbackChain, list[str]]:
        """Build the fallback chain with breaker-guarded stage solvers.

        Named stages resolve through ``stage_solvers`` overrides first,
        then the built-in solver registry; ``(name, solver)`` pairs pass
        through for in-process callers.  Every stage is wrapped by its
        backend's circuit breaker except the terminal one, which must
        always be allowed to answer (a degraded answer beats none).
        """
        skipped: list[str] = []
        stages: list[tuple[str, StageSolver]] = []
        last = len(request.stages) - 1
        for position, stage in enumerate(request.stages):
            if isinstance(stage, str):
                name = stage
                solver = self._stage_solvers.get(name)
                if solver is None:
                    if name not in STAGES:
                        raise InvalidRequest(
                            f"unknown fallback stage {name!r}; "
                            f"one of {sorted(STAGES)}"
                        )
                    solver = builtin_stage(name, request.time_limit)
            else:
                name, solver = stage
                name = str(name)
            stages.append(
                (
                    name,
                    self.breakers.wrap(
                        name, solver, skipped=skipped, gate=position != last
                    ),
                )
            )
        return FallbackChain(stages, time_limit=request.time_limit), skipped

    def _narrow_result(
        self,
        request: NarrowRequest,
        artifacts: InstanceArtifacts,
        selected: SelectionResult,
    ) -> _SolvedNarrow:
        graph = build_item_graph(selected, request.config(), space=artifacts.space)
        if not np.isfinite(graph.weights).all():
            # A caller's parameters, not a backend, broke the graph: refuse
            # before the chain runs so no breaker counts it as a failure.
            raise InvalidRequest(
                "the item graph has non-finite weights; lower lam or mu"
            )
        k = min(request.k, artifacts.instance.num_items)
        chain, skipped = self._chain_for(request)
        outcome = chain.solve(graph.weights, k)
        kept = [0] + sorted(v for v in outcome.solution.selected if v != 0)
        narrowed = selected.restricted_to_items(kept)
        payload = {
            "k": k,
            "core_product_ids": [
                artifacts.instance.products[i].product_id for i in kept
            ],
            "weight": outcome.solution.weight,
            "attempts": [
                {"backend": a.backend, "status": a.status}
                for a in outcome.attempts
            ],
            "selection": selection_payload(narrowed),
        }
        depth = len(outcome.attempts) - 1
        self.metrics.histogram(
            "repro_fallback_depth", "stages tried before a narrow answer"
        ).observe(depth)
        return _SolvedNarrow(
            payload=payload,
            backend=outcome.backend,
            proven_optimal=outcome.solution.proven_optimal,
            fallback_depth=depth,
            degraded=outcome.degraded or selected.degraded,
            breaker_skipped=tuple(skipped),
            stage_timings=selected.timings,
        )


def build_durable_engine(
    state_dir: str | Path,
    *,
    corpus_path: str | Path | None = None,
    cache_tier: str | SharedCacheTier | None = None,
    snapshot_every: int = 32,
    keep_snapshots: int = 2,
    wal_fsync: bool = True,
    restarts: int = 0,
    jitter_seed: int | None = None,
    **engine_kwargs,
) -> SelectionEngine:
    """Open (or recover) durable state under ``state_dir`` and build an
    engine on top of it.

    The one-stop constructor for durable serving — the CLI's
    ``--state-dir`` path and the supervisor's child process both call
    it.  ``cache_tier`` may be ``None``, ``"file"`` (a FileBackend under
    ``state_dir/tier``), ``"memory"``, or a ready
    :class:`SharedCacheTier`.  ``restarts`` is stamped into the recovery
    provenance so ``/healthz`` can report how many times the supervisor
    has brought the engine back.
    """
    from repro.serve.cachetier import FileBackend, InMemoryBackend
    from repro.serve.snapshot import open_durable_store

    state_dir = Path(state_dir)
    store, wal, snapshots, recovery = open_durable_store(
        state_dir,
        corpus_path=corpus_path,
        keep_snapshots=keep_snapshots,
        wal_fsync=wal_fsync,
    )
    recovery.restarts = restarts
    tier = cache_tier
    if tier == "file":
        tier = SharedCacheTier(FileBackend(state_dir / "tier"))
    elif tier == "memory":
        tier = SharedCacheTier(InMemoryBackend())
    elif isinstance(tier, str):
        raise ValueError(
            f"unknown cache tier {tier!r}; one of 'file', 'memory'"
        )
    jitter = None
    if jitter_seed is not None:
        jitter = RetryJitter(seed=jitter_seed)
    return SelectionEngine(
        store,
        tier=tier,
        wal=wal,
        snapshots=snapshots,
        snapshot_every=snapshot_every,
        recovery=recovery,
        jitter=jitter,
        **engine_kwargs,
    )
