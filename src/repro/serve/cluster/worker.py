"""Shard worker: one :class:`SelectionEngine` over one corpus partition.

A shard is the single-process serving stack, minus HTTP: a durable
engine (its own ``shard-{i}/`` state dir with WAL + snapshots, so PR-6
crash recovery applies per shard) behind a thread-per-connection TCP
server speaking the :mod:`repro.serve.cluster.proto` framing.  The
gateway owns the public HTTP surface; the worker's job is to produce
*exactly* the status code and payload the single-process server would
have produced, which it does by answering through the same
:mod:`repro.serve.wire` functions: the request checks, the
:func:`~repro.serve.wire.failure` table and the healthz/snapshot
payloads.

Request frames are ``{"op": ..., ...}``; replies are either
``{"status": 200, "payload": ...}`` or the error frame of a
:class:`~repro.serve.wire.WireError` (``{"status": <4xx/5xx>, "error":
..., "retry_after"?: ..., "extra"?: {...}}``), which the gateway relays
without reinterpretation.

:func:`shard_child_main` matches the :class:`~repro.serve.supervisor.
Supervisor` child-entry contract (readiness over a pipe, SIGTERM drain,
same-port rebind on restart), so shard crash-restarts ride the existing
``RestartPolicy`` machinery unchanged.
"""

from __future__ import annotations

import socketserver
import threading
import time

from repro.serve.admission import AdmissionController
from repro.serve.cluster.proto import FrameError, recv_frame, send_frame
from repro.serve.engine import SelectionEngine, build_durable_engine
from repro.serve.store import DeltaValidationError
from repro.serve.supervisor import serve_child
from repro.serve.wire import (
    BadRequest,
    WireError,
    deadline_ms,
    failure,
    health,
    query,
    review_batch,
    snapshot,
)

#: Engine-option keys the shard resolves itself rather than forwarding
#: to ``SelectionEngine`` — admission is *injected* per shard (the
#: ROADMAP's unlock), built from plain numbers so the options dict stays
#: picklable across any multiprocessing start method.
_ADMISSION_KEYS = ("max_pending", "rate_limit", "rate_burst")


class AppliedDeltaSeqs:
    """A bounded set of gateway delta sequence numbers already applied.

    The replication layer's idempotence ledger: every cluster ingest
    frame carries a gateway-assigned ``delta_seq``, and a delta that was
    both written live *and* queued as a hint (or re-driven by a resize
    catch-up replay) arrives at the same shard more than once.  The fast
    path is this in-memory set; the durable path is the ``delta_seq``
    stamped into each WAL record, from which :class:`ShardServer`
    rebuilds the set after a crash restart — so a replayed delta is a
    no-op on both sides of a SIGKILL.

    Bounded FIFO (``capacity`` most recent seqs): sequences old enough
    to be evicted are, by the same age, covered by a snapshot, where the
    review-id conflict check provides the backstop dedup for hinted
    re-deliveries.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._seen: set[int] = set()
        self._order: list[int] = []
        self._lock = threading.Lock()

    def __contains__(self, seq: int) -> bool:
        with self._lock:
            return seq in self._seen

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def add(self, seq: int) -> None:
        with self._lock:
            if seq in self._seen:
                return
            self._seen.add(seq)
            self._order.append(seq)
            if len(self._order) > self.capacity:
                self._seen.discard(self._order.pop(0))


def _noop_ingest_ack(engine: SelectionEngine) -> dict:
    """The ack for a delta this shard has already applied (same shape as
    a real ingest ack, so the gateway aggregates it unchanged)."""
    return {
        "version": engine.store.version,
        "added": 0,
        "affected": [],
        "wal_seq": engine.wal.last_seq if engine.wal is not None else 0,
        "cache_evicted": 0,
        "tier_purged": 0,
        "idempotent": True,
    }


def _handle_ingest(
    engine: SelectionEngine,
    message: dict,
    applied: AppliedDeltaSeqs | None = None,
) -> dict:
    reviews = review_batch(message.get("reviews"))
    delta_seq = message.get("delta_seq")
    if delta_seq is not None and (
        isinstance(delta_seq, bool) or not isinstance(delta_seq, int)
    ):
        raise BadRequest(f"delta_seq must be an integer, got {delta_seq!r}")
    # Seq-based idempotence: a delta this shard already applied — live
    # write followed by its own hint replay, or a resize catch-up
    # re-delivery — acks as a no-op instead of a 409.
    if delta_seq is not None and applied is not None and delta_seq in applied:
        return _noop_ingest_ack(engine)
    try:
        ack = engine.ingest_reviews(reviews, delta_seq=delta_seq)
    except DeltaValidationError as exc:
        if exc.conflict and message.get("hinted"):
            # Durable backstop for replays that outlive the in-memory
            # seq set (restart + WAL compaction): the batch is atomic
            # (one WAL append), so a review-id conflict on a *hinted*
            # re-delivery proves the whole delta already landed.
            return _noop_ingest_ack(engine)
        raise
    if delta_seq is not None and applied is not None:
        applied.add(delta_seq)
    return ack


def _handle_product_state(engine: SelectionEngine, message: dict) -> dict:
    """The replica-divergence probe: a product's review ids, in order.

    The gateway compares this list across a product's preference
    replicas; byte-identical partitioning plus idempotent delta replay
    should keep them equal, and ``repro_replica_divergence_total``
    counts every observation where they are not.
    """
    product_id = message.get("product_id")
    if not isinstance(product_id, str) or not product_id:
        raise BadRequest("field 'product_id' (a non-empty string) is required")
    corpus = engine.store.corpus
    if not corpus.has_product(product_id):
        raise WireError(404, f"product {product_id!r} is not held by this shard")
    return {
        "product_id": product_id,
        "review_ids": [
            review.review_id
            for review in corpus.reviews
            if review.product_id == product_id
        ],
        "version": engine.store.version,
    }


def handle_message(
    engine: SelectionEngine,
    message: dict,
    *,
    started_at: float = 0.0,
    applied_seqs: AppliedDeltaSeqs | None = None,
) -> dict:
    """One request frame in, one reply frame out (never raises)."""
    op = message.get("op")
    try:
        if op in ("select", "narrow"):
            body = message.get("body")
            if not isinstance(body, dict):
                raise BadRequest("shard query frame must carry a 'body' object")
            payload = query(
                engine, op, body, deadline_ms(message.get("deadline_ms"))
            )
        elif op == "ingest":
            payload = _handle_ingest(engine, message, applied_seqs)
        elif op == "healthz":
            status, payload = health(engine, started_at)
            return {"status": status, "payload": payload}
        elif op == "metrics":
            payload = {
                "json": engine.metrics.as_dict(),
                "prometheus": engine.metrics.render_prometheus(),
            }
        elif op == "snapshot":
            payload = snapshot(engine)
        elif op == "product_state":
            payload = _handle_product_state(engine, message)
        elif op == "ping":
            payload = {"version": engine.store.version}
        else:
            raise BadRequest(f"unknown op {op!r}")
    except Exception as exc:
        return failure(exc, op, engine.jitter).frame()
    return {"status": 200, "payload": payload}


class ShardServer(socketserver.ThreadingTCPServer):
    """Framed-protocol TCP server around one shard engine.

    ``allow_reuse_address`` matters operationally: after a SIGKILL the
    supervisor respawns the shard on the *same* port (so the gateway's
    address table never changes), and lingering TIME_WAIT connections
    from the dead process must not block the rebind.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], engine: SelectionEngine) -> None:
        super().__init__(address, _ShardConnection)
        self.engine = engine
        self.started_at = time.monotonic()
        # Rebuild the idempotence ledger from the WAL tail so hinted
        # re-deliveries stay no-ops across a crash restart (deltas the
        # compaction already folded into a snapshot fall back to the
        # review-id conflict check in _handle_ingest).
        self.applied_seqs = AppliedDeltaSeqs()
        if engine.wal is not None:
            for _seq, payload in engine.wal.replay(0):
                delta_seq = payload.get("delta_seq")
                if isinstance(delta_seq, int):
                    self.applied_seqs.add(delta_seq)


class _ShardConnection(socketserver.BaseRequestHandler):
    """One gateway connection: a loop of request frame -> reply frame."""

    server: ShardServer

    def handle(self) -> None:
        sock = self.request
        while True:
            try:
                message = recv_frame(sock)
            except (FrameError, OSError):
                return  # garbage or torn frame: drop the connection
            if message is None:
                return  # clean hangup between frames
            reply = handle_message(
                self.server.engine,
                message,
                started_at=self.server.started_at,
                applied_seqs=self.server.applied_seqs,
            )
            try:
                send_frame(sock, reply)
            except OSError:
                return


def shard_child_main(
    state_dir: str,
    corpus_path: str | None,
    host: str,
    port: int,
    restarts: int,
    options: dict,
    conn,
) -> None:
    """Supervisor child entry point for one shard worker.

    :func:`~repro.serve.supervisor.serve_child` with the HTTP server
    swapped for :class:`ShardServer`: recover the shard's durable state,
    report readiness over the pipe, serve frames until SIGTERM (drain,
    then exit).
    """
    serve_child(
        conn,
        lambda: _build_shard_engine(
            state_dir, corpus_path=corpus_path, restarts=restarts, options=options
        ),
        lambda engine: ShardServer((host, port), engine),
    )


def _build_shard_engine(
    state_dir: str,
    *,
    corpus_path: str | None,
    restarts: int,
    options: dict,
) -> SelectionEngine:
    """A durable engine with the shard's own injected admission control.

    The gateway does the *global* shedding; the per-shard controller is
    a deep backstop sized from the same knobs, so a single hot shard
    degrades to 429s instead of an unbounded thread pile-up.
    """
    options = dict(options)
    admission_options = {
        key: options.pop(key) for key in _ADMISSION_KEYS if key in options
    }
    admission = None
    if admission_options:
        admission = AdmissionController(
            max_pending=admission_options.get("max_pending") or 64,
            rate=admission_options.get("rate_limit"),
            burst=admission_options.get("rate_burst"),
        )
    return build_durable_engine(
        state_dir,
        corpus_path=corpus_path,
        restarts=restarts,
        admission=admission,
        **options,
    )
