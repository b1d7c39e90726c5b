"""Online selection serving: precomputed stores, caching, HTTP API.

The batch pipeline answers "regenerate Table 4"; this package answers
"what are the comparative review sets for product X, right now".  The
pieces compose bottom-up:

* :mod:`repro.serve.store` — :class:`ItemStore`: corpus ingested once,
  per-instance artifacts (vector space, per-item incidence matrices and
  Gram blocks) precomputed behind versioned keys.
* :mod:`repro.serve.cache` — :class:`ResultCache`: thread-safe LRU+TTL
  results with single-flight coalescing of concurrent identical requests.
* :mod:`repro.serve.batch` — :class:`MicroBatcher`: same-target request
  grouping so shared per-target work amortises.
* :mod:`repro.serve.engine` — :class:`SelectionEngine`: deadline-aware
  select / select_plus / narrow with provenance on every answer.
* :mod:`repro.serve.http` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``/healthz``, ``/metrics``, ``/v1/select``, ``/v1/narrow``,
  ``/v1/reload``).
* :mod:`repro.serve.wire` — the wire contract every front end and shard
  answers through: request checks and the one exception → status table.
* :mod:`repro.serve.metrics` — counters and reservoir histograms with
  JSON and Prometheus renderings.
* :mod:`repro.serve.admission` — :class:`AdmissionController`: bounded
  pending queue + token-bucket rate limiting; sheds excess load with
  typed :class:`Overloaded` errors (HTTP 429).
* :mod:`repro.serve.breaker` — per-backend :class:`CircuitBreaker`
  tripping failing solvers out of the narrow fallback chain.
* :mod:`repro.serve.health` — the healthy → degraded → draining state
  machine behind ``/healthz`` and graceful shutdown.
* :mod:`repro.serve.wal` — :class:`WriteAheadLog`: fsynced, checksummed
  delta log; every ingest is durable *before* it is acknowledged.
* :mod:`repro.serve.snapshot` — :class:`SnapshotManager` atomic
  generation snapshots and :func:`open_durable_store` (snapshot load +
  WAL replay = byte-identical recovery).
* :mod:`repro.serve.cachetier` — :class:`SharedCacheTier`: a
  breaker-guarded process-external result cache (file or in-memory
  backend) with generation-chained invalidation.
* :mod:`repro.serve.supervisor` — :class:`Supervisor`: the engine in a
  child process, crash detection, backoff restarts through recovery.
* :mod:`repro.serve.jitter` — :class:`RetryJitter`: seeded, bounded
  jitter on every ``Retry-After`` hint.
* :mod:`repro.serve.chaos` — deterministic in-process chaos harness
  (overload bursts, failing backends, mid-flight reloads, SIGKILL
  mid-ingest, torn WAL writes, full disks, cache outages, shard kills)
  with SLO assertions; ``python -m repro.serve.chaos`` runs the suite.
* :mod:`repro.serve.cluster` — horizontal scale-out: a consistent-hash
  ring, supervised shard workers speaking length-prefixed JSON frames,
  and an asyncio HTTP gateway (``repro-cli serve --shards N``) with
  byte-identical responses to the single-process server.

In-process quickstart (no sockets)::

    from repro.data.synthetic import generate_corpus
    from repro.serve import ItemStore, SelectionEngine

    engine = SelectionEngine(ItemStore(generate_corpus("Toy", scale=0.3)))
    response = engine.select(m=3, algorithm="CompaReSetS+")
    response.result["items"]          # the selected review sets
    response.provenance.cache         # "miss" first, then "hit"
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionStats,
    Overloaded,
    TokenBucket,
    request_cost,
)
from repro.serve.batch import BatchClosed, BatchStats, MicroBatcher
from repro.serve.breaker import BreakerBoard, CircuitBreaker, CircuitOpen
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.cachetier import (
    CacheBackend,
    CacheBackendError,
    FileBackend,
    InMemoryBackend,
    SharedCacheTier,
    TierStats,
    tier_key,
)
from repro.serve.engine import (
    EngineClosed,
    EngineDraining,
    EngineResponse,
    InvalidRequest,
    NarrowRequest,
    Provenance,
    SelectionEngine,
    SelectRequest,
    build_durable_engine,
    selection_payload,
)
from repro.serve.health import HealthMonitor
from repro.serve.http import ServingHTTPServer, encode_json, make_server, run_server
from repro.serve.jitter import NO_JITTER, RetryJitter
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.snapshot import (
    RecoveryInfo,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotInfo,
    SnapshotManager,
    open_durable_store,
)
from repro.serve.store import (
    CorpusValidationError,
    DeltaOutcome,
    DeltaValidationError,
    InstanceArtifacts,
    ItemStore,
    ReloadInProgress,
    UnknownTargetError,
    UnviableTargetError,
    corpus_fingerprint,
)
from repro.serve.supervisor import RestartPolicy, Supervisor, SupervisorError
from repro.serve.wal import (
    WALCorruptError,
    WALError,
    WALStats,
    WriteAheadLog,
    review_from_record,
    review_record,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BatchClosed",
    "BatchStats",
    "BreakerBoard",
    "CacheBackend",
    "CacheBackendError",
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpen",
    "CorpusValidationError",
    "Counter",
    "DeltaOutcome",
    "DeltaValidationError",
    "EngineClosed",
    "EngineDraining",
    "EngineResponse",
    "FileBackend",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "InMemoryBackend",
    "InstanceArtifacts",
    "InvalidRequest",
    "ItemStore",
    "MetricsRegistry",
    "MicroBatcher",
    "NO_JITTER",
    "NarrowRequest",
    "Overloaded",
    "Provenance",
    "RecoveryInfo",
    "ReloadInProgress",
    "RestartPolicy",
    "ResultCache",
    "RetryJitter",
    "SelectRequest",
    "SelectionEngine",
    "ServingHTTPServer",
    "SharedCacheTier",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotInfo",
    "SnapshotManager",
    "Supervisor",
    "SupervisorError",
    "TierStats",
    "TokenBucket",
    "UnknownTargetError",
    "UnviableTargetError",
    "WALCorruptError",
    "WALError",
    "WALStats",
    "WriteAheadLog",
    "build_durable_engine",
    "corpus_fingerprint",
    "encode_json",
    "make_server",
    "open_durable_store",
    "request_cost",
    "review_from_record",
    "review_record",
    "run_server",
    "selection_payload",
    "tier_key",
]
