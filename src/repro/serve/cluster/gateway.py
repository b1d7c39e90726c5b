"""Asyncio gateway: one public HTTP front door over many shard workers.

The gateway is the cluster's only HTTP surface.  It is a thin,
stdlib-only ``asyncio.start_server`` loop speaking just enough HTTP/1.1
(request line, headers, ``Content-Length`` bodies, keep-alive) to be a
drop-in for the single-process server's endpoints, and it does four
things per request:

1. **admission** — a *global* :class:`AdmissionController` sheds excess
   load with 429 + ``Retry-After`` before any shard is touched, using
   the same cost model as the single-process engine;
2. **routing** — ``/v1/select`` and ``/v1/narrow`` go to the shard that
   owns the target item (``target: null`` is resolved here, against the
   full corpus, to the exact product the single-process store would
   pick, then pinned into the forwarded body); with ``replicas > 1``
   the read *fails over* down the key's preference list when a shard is
   unreachable, so a crashed primary costs latency, not availability —
   the replica's answer is byte-identical because partitioning is, and
   provenance gains ``served_by``/``failover: true`` so operators can
   see it happened;
3. **fan-out** — ``/v1/ingest`` deltas go to *every* shard holding an
   affected product (owner + replicas + comparative holders); when a
   holder is unreachable the delta is *hinted* — durably queued in a
   :class:`~repro.serve.cluster.hints.HintQueue` (atomically across
   every down holder) and replayed once the shard recovers (the
   worker's ``delta_seq`` idempotence makes replay a no-op if the
   delta also arrived live).  Same-product deltas are serialised under
   striped per-product locks held through the journal append, so every
   replica and the journal replay stream apply them in ``delta_seq``
   order, and a holder with an undrained hint backlog takes new deltas
   through the queue, behind what it is owed.  ``/v1/snapshot`` and
   the ``healthz``/``metrics`` aggregations go to all shards;
4. **failure conversion** — a dead or restarting shard becomes 503 +
   ``Retry-After`` (reason ``shard_unavailable``) only once every
   replica in the preference list has been tried, never an uncaught
   500, while requests routed to live shards keep succeeding.

Routing state lives in an immutable :class:`Topology` snapshot (ring +
plan + shard clients under a monotonic *generation* token).  Every
request captures the snapshot once and uses it throughout, and a live
resize swaps the gateway's reference atomically on the event loop — a
request observes exactly one epoch, which is what makes "never a
wrong-shard answer" hold while the ring is being resized underneath.

The request checks, the exception → status table and the error bodies
come from :mod:`repro.serve.wire`, the module the single-process server
and the shard workers answer through, and a shard's error frame is
relayed as the :class:`~repro.serve.wire.WireError` it encodes.  That is
what makes ``--shards N`` responses byte-identical to ``--shards 1``
modulo provenance.  ``/v1/reload`` is the one deliberate gap: swapping
corpora would change the partition itself, so cluster mode answers 501
and operators restart with the new corpus instead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from http.client import responses as _HTTP_REASONS
from urllib.parse import urlparse

from repro.data.codec import review_from_record
from repro.data.corpus import Corpus
from repro.data.instances import build_instance
from repro.serve.admission import AdmissionController, Overloaded, request_cost
from repro.serve.cluster.hints import HintOverflow, HintQueue
from repro.serve.cluster.proto import (
    FrameError,
    read_frame_async,
    write_frame_async,
)
from repro.serve.cluster.ring import HashRing, PartitionPlan
from repro.serve.http import encode_json
from repro.serve.jitter import NO_JITTER, RetryJitter
from repro.serve.metrics import MetricsRegistry
from repro.serve.store import (
    DeltaValidationError,
    UnknownTargetError,
    UnviableTargetError,
    check_delta,
)
from repro.serve.wal import WriteAheadLog
from repro.serve.wire import (
    JSON_TYPE,
    PROMETHEUS_TYPE,
    BadRequest,
    WireError,
    body_length,
    deadline_ms,
    failure,
    ingest_batch,
    json_body,
    metrics_as_text,
    parse_request,
    route,
)

#: Upper bound on a forwarded request's wait for its shard when the
#: client sent no deadline; with a deadline the wait is deadline + margin.
DEFAULT_SHARD_TIMEOUT = 120.0
_SHARD_TIMEOUT_MARGIN = 5.0

_MAX_HEADER_LINES = 100

#: Stripe count for the per-product ingest ordering locks.  Two
#: products hashing to the same stripe serialise their deltas — a
#: concurrency cost only, never a correctness one.
_INGEST_STRIPES = 32

_DIVERGENCE_HELP = (
    "replica groups observed (or at risk of) holding different review "
    "sets for a product"
)


class ShardUnavailable(RuntimeError):
    """The owning shard cannot be reached (crashed, restarting, hung)."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(
            f"shard {shard} is unavailable ({detail}); retry shortly"
        )
        self.shard = shard


class ShardClient:
    """A pooled framed-protocol client for one shard.

    At most ``pool_size`` requests are in flight to the shard at once;
    excess requests queue on the pool (they are already inside the
    global admission window, so the queue is bounded).  Connections are
    opened lazily and re-opened on demand, which is what lets a
    supervisor-restarted shard — same port, new process — come back
    without any gateway reconfiguration: the first request after the
    restart just dials again, with seeded :class:`RetryJitter` backoff
    between dial attempts so a reconnect herd after a restart spreads
    out (deterministically under a fixed seed).
    """

    def __init__(
        self,
        shard: int,
        host: str,
        port_fn,
        *,
        pool_size: int = 8,
        connect_timeout: float = 2.0,
        jitter: RetryJitter | None = None,
        connect_retries: int = 2,
        reconnect_base: float = 0.05,
    ) -> None:
        self.shard = shard
        self.host = host
        self._port_fn = port_fn
        self.connect_timeout = connect_timeout
        self.jitter = jitter or NO_JITTER
        self.connect_retries = connect_retries
        self.reconnect_base = reconnect_base
        self._slots: asyncio.Queue = asyncio.Queue()
        for _ in range(pool_size):
            self._slots.put_nowait(None)

    async def _dial(self):
        """Open a connection, retrying with jittered exponential backoff.

        Only connection *establishment* is retried.  A request that
        failed mid-exchange is never resent from here — ingest is not
        idempotent at this layer, and the preference-list failover above
        owns read retries.
        """
        last: Exception | None = None
        for attempt in range(self.connect_retries + 1):
            if attempt:
                await asyncio.sleep(
                    self.jitter.apply(
                        self.reconnect_base * (2 ** (attempt - 1))
                    )
                )
            port = self._port_fn()
            if port is None:
                last = ShardUnavailable(self.shard, "not yet bound")
                continue
            try:
                return await asyncio.wait_for(
                    asyncio.open_connection(self.host, port),
                    self.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                last = exc
        if isinstance(last, ShardUnavailable):
            raise last
        detail = type(last).__name__ if not str(last) else str(last)
        raise ShardUnavailable(self.shard, detail) from last

    async def request(self, message: dict, timeout: float | None = None) -> dict:
        """One framed round-trip; raises :class:`ShardUnavailable` on failure.

        A failed connection is never returned to the pool (a torn or
        timed-out exchange leaves the stream desynchronised); its slot
        goes back empty so the next request dials fresh.
        """
        conn = await self._slots.get()
        try:
            if conn is None:
                conn = await self._dial()
            reader, writer = conn
            await write_frame_async(writer, message)
            reply = await asyncio.wait_for(
                read_frame_async(reader),
                timeout if timeout is not None else DEFAULT_SHARD_TIMEOUT,
            )
        except ShardUnavailable:
            self._slots.put_nowait(None)
            raise
        except (OSError, FrameError, asyncio.TimeoutError, EOFError) as exc:
            if conn is not None:
                conn[1].close()
            self._slots.put_nowait(None)
            detail = type(exc).__name__ if not str(exc) else str(exc)
            raise ShardUnavailable(self.shard, detail) from exc
        else:
            self._slots.put_nowait(conn)
            return reply

    async def aclose(self) -> None:
        """Close every pooled connection (drains the pool non-blockingly)."""
        while True:
            try:
                conn = self._slots.get_nowait()
            except asyncio.QueueEmpty:
                return
            if conn is not None:
                conn[1].close()


@dataclass(frozen=True)
class Topology:
    """One immutable routing epoch: generation token + ring/plan/clients.

    Every request captures the current topology exactly once and routes
    against that snapshot for its whole lifetime, so a concurrent resize
    can never hand one request two epochs.  The no-wrong-shard-answer
    guarantee during a live resize is this immutability plus the fact
    that :meth:`ClusterGateway.swap_topology` runs on the gateway's
    event loop — a single reference assignment between requests.
    """

    generation: int
    ring: HashRing
    plan: PartitionPlan
    clients: tuple[ShardClient, ...]


def _annotate_failover(reply: dict, shard: int) -> dict:
    """Stamp failover provenance into a 200 reply served by a replica.

    The result block is untouched (byte-identity holds); only the
    provenance — already process-specific — records which replica
    answered and that it was not the primary.
    """
    if reply.get("status") != 200:
        return reply
    payload = reply.get("payload")
    if not isinstance(payload, dict):
        return reply
    provenance = payload.get("provenance")
    if not isinstance(provenance, dict):
        provenance = {}
    payload = {
        **payload,
        "provenance": {
            **provenance,
            "served_by": f"shard-{shard}",
            "failover": True,
        },
    }
    return {**reply, "payload": payload}


class ClusterGateway:
    """Routing, admission, fan-out, and aggregation over shard clients.

    Pure asyncio — no threads of its own; the cluster controller decides
    which event loop it runs on.  ``restart_total`` is a zero-arg
    callable summing supervisor restarts (exposed as the
    ``repro_shard_restart_total`` gauge).

    Replication plumbing is optional so the gateway still runs bare in
    unit tests: with ``hints``/``journal`` left ``None`` an unreachable
    holder fails the ingest with 503 exactly as before, and no delta
    journal is kept (which also means the cluster cannot live-resize).
    ``hints`` does require ``journal``, though: a hint carries the
    journal's ``delta_seq`` for idempotent replay, so queueing hints
    without journalling would strip that and lose resize replay.
    ``shard_alive`` is a ``shard -> bool`` callable (the controller
    wires it to the supervisors) gating hint drain to recovered shards.
    """

    def __init__(
        self,
        corpus: Corpus,
        plan: PartitionPlan,
        ring: HashRing,
        clients: list[ShardClient],
        *,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        jitter: RetryJitter | None = None,
        restart_total=None,
        hints: HintQueue | None = None,
        journal: WriteAheadLog | None = None,
        shard_alive=None,
        hint_drain_interval: float = 0.25,
    ) -> None:
        if len(clients) != plan.shards:
            raise ValueError(
                f"plan has {plan.shards} shards but {len(clients)} clients given"
            )
        if hints is not None and journal is None:
            raise ValueError(
                "hints require a journal: every hinted delta carries the "
                "journal's delta_seq so replay stays idempotent and "
                "resizes can re-stream it"
            )
        self.corpus = corpus
        self._topology = Topology(1, ring, plan, tuple(clients))
        self.hints = hints
        self.journal = journal
        self.shard_alive = shard_alive
        self.hint_drain_interval = hint_drain_interval
        self._drain_task: asyncio.Task | None = None
        self._ingest_stalled = False
        self._stall_reason = "resizing"
        # In-flight ingest accounting: stall_ingest_and_drain() waits on
        # the idle event so a resize's catch-up replay never races an
        # admitted ingest's journal append.
        self._ingest_inflight = 0
        self._ingest_idle = asyncio.Event()
        self._ingest_idle.set()
        # Per-product ordering locks (striped): held across sequence
        # assignment, fan-out, hinting, and the journal append so every
        # replica — and the journal — sees same-product deltas in one
        # order.
        self._ingest_stripes = tuple(
            asyncio.Lock() for _ in range(_INGEST_STRIPES)
        )
        # The delta-sequence counter resumes past everything already
        # journalled or hinted, so a gateway restart can never reissue a
        # sequence number (idempotence on the workers depends on that).
        seq = 0
        if journal is not None:
            for _, record in journal.replay(0):
                raw = record.get("delta_seq", 0)
                if isinstance(raw, int):
                    seq = max(seq, raw)
        if hints is not None:
            seq = max(seq, hints.max_delta_seq())
        self._delta_seq = seq
        self.jitter = jitter or NO_JITTER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_pending=256, jitter=self.jitter)
        )
        self.started_at = time.monotonic()
        self._reviews = len(corpus.reviews)
        # target=None resolution is memoised per (max_comparisons,
        # min_reviews): the answer only changes with the corpus, and the
        # cluster's corpus is fixed for the process lifetime (a resize
        # repartitions the same corpus, so the memo stays valid).
        self._default_targets: dict[tuple[int | None, int], str] = {}
        self.metrics.gauge(
            "repro_gateway_queue_depth",
            lambda: self.admission.inflight,
            "requests currently admitted into the gateway",
        )
        self.metrics.gauge(
            "repro_shard_restart_total",
            restart_total if restart_total is not None else (lambda: 0),
            "supervisor restarts summed across shard workers",
        )
        self.metrics.gauge(
            "repro_cluster_shards",
            lambda: self._topology.plan.shards,
            "shard workers behind this gateway",
        )
        self.metrics.gauge(
            "repro_cluster_replicas",
            lambda: self._topology.plan.replicas,
            "replication factor of the current partition plan",
        )
        self.metrics.gauge(
            "repro_ring_generation",
            lambda: self._topology.generation,
            "monotonic topology epoch; bumps on every live resize",
        )
        self.metrics.gauge(
            "repro_hint_queue_depth",
            lambda: self.hints.total() if self.hints is not None else 0,
            "ingest deltas queued for unreachable shards",
        )

    # -- topology ------------------------------------------------------------

    @property
    def plan(self) -> PartitionPlan:
        return self._topology.plan

    @property
    def ring(self) -> HashRing:
        return self._topology.ring

    @property
    def clients(self) -> tuple[ShardClient, ...]:
        return self._topology.clients

    @property
    def generation(self) -> int:
        return self._topology.generation

    def swap_topology(
        self,
        ring: HashRing,
        plan: PartitionPlan,
        clients: list[ShardClient] | tuple[ShardClient, ...],
    ) -> int:
        """Atomically flip to a new routing epoch; returns its generation.

        Must run on the gateway's event loop (the controller uses
        ``run_coroutine_threadsafe``) so the swap is serialised with
        request dispatch.  Requests already in flight keep the snapshot
        they captured; the controller keeps the old workers alive for a
        grace period for exactly that reason.
        """
        if len(clients) != plan.shards:
            raise ValueError(
                f"plan has {plan.shards} shards but {len(clients)} clients given"
            )
        self._topology = Topology(
            self._topology.generation + 1, ring, plan, tuple(clients)
        )
        return self._topology.generation

    def set_ingest_stall(self, stalled: bool, *, reason: str = "resizing") -> None:
        """Pause (or resume) ingest during the resize catch-up window.

        Stalled ingests answer 503 + ``Retry-After`` — one of the
        statuses the resize contract allows — while reads keep flowing;
        the window only needs to cover the final journal catch-up replay
        and the topology flip.
        """
        self._ingest_stalled = stalled
        self._stall_reason = reason

    async def stall_ingest_and_drain(
        self, *, reason: str = "resizing", timeout: float = 150.0
    ) -> None:
        """Stall ingest, then wait until no ingest handler is in flight.

        The stall flag only stops *new* ingests.  A request that passed
        the stall check may still be awaiting its shard acks, and it
        appends to the journal only once the fan-out completes — which
        can be after a bare catch-up replay has finished reading.  The
        client would hold a 200 for a delta the fresh workers never
        see.  So a resize calls this instead of a bare
        :meth:`set_ingest_stall` and only runs its catch-up replay once
        the in-flight count has drained to zero.  Raises
        ``asyncio.TimeoutError`` (aborting the resize) if in-flight
        ingests do not finish within ``timeout``.
        """
        self.set_ingest_stall(True, reason=reason)
        await asyncio.wait_for(self._ingest_idle.wait(), timeout)

    # -- routing helpers -----------------------------------------------------

    def _default_target(self, max_comparisons: int | None, min_reviews: int) -> str:
        """The id :meth:`ItemStore.default_target` would pick.

        Re-implemented over the *full* corpus (no shard sees the whole
        catalogue) with identical semantics: first product in corpus
        order that forms a viable instance.
        """
        key = (max_comparisons, min_reviews)
        cached = self._default_targets.get(key)
        if cached is not None:
            return cached
        for product in self.corpus.products:
            instance = build_instance(
                self.corpus,
                product.product_id,
                max_comparisons=max_comparisons,
                min_reviews=min_reviews,
            )
            if instance is not None:
                self._default_targets[key] = product.product_id
                return product.product_id
        raise UnviableTargetError("no viable target item in the corpus")

    def _shard_timeout(self, deadline_ms: float | None) -> float:
        if deadline_ms is None:
            return DEFAULT_SHARD_TIMEOUT
        return deadline_ms / 1e3 + _SHARD_TIMEOUT_MARGIN

    async def _call_shard(
        self,
        topo: Topology,
        shard: int,
        message: dict,
        timeout: float | None = None,
    ) -> dict:
        self.metrics.counter(
            "repro_shard_requests_total",
            "requests dispatched to shard workers",
            labels={"shard": str(shard)},
        ).inc()
        try:
            return await topo.clients[shard].request(message, timeout)
        except ShardUnavailable:
            self.metrics.counter(
                "repro_shard_unavailable_total",
                "dispatches that found the shard unreachable",
                labels={"shard": str(shard)},
            ).inc()
            raise

    @staticmethod
    def _relay(reply: dict) -> tuple[int, object, None]:
        """A shard's 200 reply as (status, payload, headers); raise its error."""
        status = reply.get("status")
        if not isinstance(status, int):
            raise ShardUnavailable(-1, "malformed shard reply")
        if status != 200:
            raise WireError.from_frame(reply)
        return 200, reply.get("payload"), None

    # -- endpoint handlers ---------------------------------------------------

    async def _handle_query(
        self, endpoint: str, body: dict, deadline_ms: float | None
    ) -> tuple[int, object, dict[str, str] | None]:
        try:
            return await self._route_query(endpoint, body, deadline_ms)
        except Exception as exc:
            return failure(exc, endpoint, self.jitter).reply(self.metrics)

    async def _route_query(
        self, endpoint: str, body: dict, deadline_ms: float | None
    ) -> tuple[int, object, None]:
        # Validated here, as the single-process engine does before it
        # admits a request or resolves its default target.
        request = parse_request(body, endpoint == "narrow").validated()
        cost = request_cost(
            endpoint,
            request.m,
            k=getattr(request, "k", 0),
            stages=len(getattr(request, "stages", ())),
            reviews=self._reviews,
        )
        try:
            slot = self.admission.admit(cost)
        except Overloaded as exc:
            self.metrics.counter(
                "repro_shed_total", "requests refused by admission control",
                labels={"reason": exc.reason},
            ).inc()
            raise
        with slot:
            topo = self._topology
            target = request.target
            if target is None:
                target = self._default_target(
                    request.max_comparisons, request.min_reviews
                )
                body = {**body, "target": target}
            if target not in topo.plan.placement:
                raise UnknownTargetError(f"target {target!r} is not in the corpus")
            preference = topo.plan.preference(target)
            message = {"op": endpoint, "body": body}
            if deadline_ms is not None:
                message["deadline_ms"] = deadline_ms
            # Primary first, then failover down the preference list.
            # Every listed shard holds a byte-identical instance closure
            # for the target, so a replica's answer IS the primary's.
            last_detail = "no replicas tried"
            for position, shard in enumerate(preference):
                try:
                    reply = await self._call_shard(
                        topo, shard, message, self._shard_timeout(deadline_ms)
                    )
                except ShardUnavailable as exc:
                    last_detail = str(exc)
                    continue
                if (
                    reply.get("status") == 503
                    and position + 1 < len(preference)
                ):
                    # The shard answered but cannot serve (draining or
                    # mid-recovery): same failover as an unreachable one.
                    last_detail = str(reply.get("error", "shard answered 503"))
                    continue
                if position:
                    self.metrics.counter(
                        "repro_failover_total",
                        "reads served by a non-primary replica",
                        labels={
                            "primary": str(preference[0]),
                            "served_by": str(shard),
                        },
                    ).inc()
                    reply = _annotate_failover(reply, shard)
                return self._relay(reply)
            raise WireError(
                503, last_detail, retry_after=self.jitter.apply(1.0),
                extra={
                    "reason": "shard_unavailable",
                    "shard": preference[0],
                    "replicas_tried": len(preference),
                },
            )

    @staticmethod
    def _ingest_failure(
        results: list[tuple[int, dict]],
        failures: list[tuple[int, dict]],
    ) -> WireError:
        """Today's partial-failure relay: the most retryable failure wins.

        5xx (client should retry the whole batch; shard-level dedup
        makes the retry safe) over 409 over 400.  Partial application is
        possible and surfaced per shard so operators can reconcile.
        """
        _shard, reply = max(failures, key=lambda item: item[1].get("status", 0))
        return WireError.from_frame(
            reply, shards={str(s): r.get("status") for s, r in results}
        )

    async def _handle_ingest(
        self, body: dict
    ) -> tuple[int, object, dict[str, str] | None]:
        if self._ingest_stalled:
            return WireError(
                503,
                "ingest is paused while the ring resizes; retry shortly",
                retry_after=self.jitter.apply(0.5),
                extra={"reason": self._stall_reason},
            ).reply(self.metrics)
        # Counted before the first await: stall_ingest_and_drain() waits
        # for this to reach zero, so every ingest that beat the stall
        # check finishes its journal append before the resize's catch-up
        # replay reads the journal.
        self._ingest_inflight += 1
        self._ingest_idle.clear()
        try:
            return await self._ingest_admitted(body)
        except Exception as exc:
            return failure(exc, "ingest", self.jitter).reply(self.metrics)
        finally:
            self._ingest_inflight -= 1
            if not self._ingest_inflight:
                self._ingest_idle.set()

    async def _ingest_admitted(
        self, body: dict
    ) -> tuple[int, object, None]:
        reviews = ingest_batch(body)
        try:
            parsed = [review_from_record(record) for record in reviews]
        except ValueError as exc:
            raise DeltaValidationError(str(exc)) from exc
        topo = self._topology
        # The store's own checks over the whole catalogue, so an unknown
        # product or an in-batch duplicate is refused here exactly as
        # the single-process store refuses it.  Conflicts with reviews
        # already held can only be seen by the shards; their 409 is
        # relayed below.
        check_delta(parsed, topo.plan.placement.__contains__, frozenset())
        groups: dict[int, list[dict]] = {}
        for review, record in zip(parsed, reviews):
            for shard in topo.plan.holders(review.product_id):
                groups.setdefault(shard, []).append(record)

        # Review order is order-sensitive for instance construction, so
        # two replicas applying the same pair of same-product deltas in
        # opposite orders diverge byte-wise with no data lost.  The
        # product's stripe lock is held across sequence assignment,
        # fan-out, hinting, and the journal append, so every replica —
        # and the journal's replay stream — observes same-product deltas
        # in ``delta_seq`` order.  Stripes are acquired in index order,
        # so overlapping deltas cannot deadlock.
        stripes = sorted(
            {
                hash(review.product_id) % len(self._ingest_stripes)
                for review in parsed
            }
        )
        held: list[asyncio.Lock] = []
        try:
            for index in stripes:
                lock = self._ingest_stripes[index]
                await lock.acquire()
                held.append(lock)
            return await self._ingest_fanout(topo, parsed, reviews, groups)
        finally:
            for lock in reversed(held):
                lock.release()

    async def _ingest_fanout(
        self,
        topo: Topology,
        parsed: list,
        reviews: list[dict],
        groups: dict[int, list[dict]],
    ) -> tuple[int, object, None]:
        delta_seq: int | None = None
        if self.journal is not None:
            self._delta_seq += 1
            delta_seq = self._delta_seq

        # A shard with undelivered hints must not take this delta live:
        # the queued deltas precede it, and applying the new one first
        # would reorder that replica alone.  Queueing behind the backlog
        # preserves per-shard apply order (the drain delivers in queue
        # order, and the worker's seq ledger no-ops any overlap).
        backlogged: set[int] = set()
        if self.hints is not None:
            backlogged = {
                shard for shard in groups if self.hints.depth(shard)
            }

        async def _one(shard: int, records: list[dict]):
            if shard in backlogged:
                return shard, {
                    "status": 503,
                    "error": (
                        f"shard {shard} has undelivered hints queued "
                        "ahead of this delta"
                    ),
                    "retry_after": self.jitter.apply(1.0),
                    "extra": {"reason": "hint_backlog", "shard": shard},
                    "unreachable": True,
                }
            message: dict[str, object] = {"op": "ingest", "reviews": records}
            if delta_seq is not None:
                message["delta_seq"] = delta_seq
            try:
                return shard, await self._call_shard(topo, shard, message)
            except ShardUnavailable as exc:
                return shard, {
                    "status": 503,
                    "error": str(exc),
                    "retry_after": self.jitter.apply(1.0),
                    "extra": {"reason": "shard_unavailable", "shard": shard},
                    "unreachable": True,
                }

        results = await asyncio.gather(
            *(_one(shard, records) for shard, records in sorted(groups.items()))
        )
        acked = {s for s, r in results if r.get("status") == 200}
        hard = [
            (s, r)
            for s, r in results
            if r.get("status") != 200 and not r.get("unreachable")
        ]
        down = [(s, r) for s, r in results if r.get("unreachable")]
        if hard or (down and self.hints is None):
            # A shard-level rejection (400/409/...) or an unreachable
            # holder with no hint queue configured: relay exactly as the
            # unreplicated gateway did.
            raise self._ingest_failure(results, hard + down)
        hinted: list[int] = []
        if down:
            # Durability rule: every product must have reached at least
            # one *preference* replica live — a hint plus the journal
            # make the delta durable, but a product none of whose
            # authoritative replicas applied it would be unreadable
            # until a drain, so the client should retry instead.
            for review in parsed:
                if not set(topo.plan.preference(review.product_id)) & acked:
                    raise self._ingest_failure(results, down)
            assert delta_seq is not None  # hints imply a journal
            try:
                # All-or-nothing across the down shards: a delta only
                # partially queued before an overflow would later drain
                # to some replicas although the client saw the write
                # fail — guaranteed divergence.
                self.hints.add_all(
                    {shard: groups[shard] for shard, _reply in down},
                    delta_seq,
                )
            except HintOverflow as exc:
                raise WireError(
                    503, str(exc), retry_after=self.jitter.apply(2.0),
                    extra={"reason": "hint_overflow", "shard": exc.shard},
                ) from exc
            for shard, _reply in down:
                self.metrics.counter(
                    "repro_hints_queued_total",
                    "ingest deltas queued as hints for unreachable shards",
                    labels={"shard": str(shard)},
                ).inc()
                hinted.append(shard)
        if self.journal is not None:
            # Journal-then-ack: the journal is the resize replay stream,
            # so only deltas the client saw acknowledged may appear in
            # it — and every acknowledged delta must.
            self.journal.append(
                {"kind": "delta", "reviews": list(reviews),
                 "delta_seq": delta_seq}
            )
        affected: set[str] = set()
        acks: dict[str, object] = {}
        for shard, reply in results:
            if reply.get("unreachable"):
                acks[str(shard)] = {"hinted": True}
                continue
            ack = reply.get("payload") or {}
            acks[str(shard)] = ack
            affected.update(ack.get("affected", ()))
        payload: dict[str, object] = {
            "added": len(parsed),
            "affected": sorted(affected),
            "shards": acks,
        }
        if delta_seq is not None:
            payload["delta_seq"] = delta_seq
        if hinted:
            payload["hinted"] = sorted(hinted)
        return 200, payload, None

    # -- hinted handoff ------------------------------------------------------

    async def drain_hints(self) -> dict[int, int]:
        """One drain pass: replay pending hints to recovered shards.

        Returns ``{shard: hints delivered}``.  A 200 (applied, or the
        worker's idempotent no-op) and a 409 (the review landed through
        another path — the batch-atomic conflict backstop) both count as
        delivered; a retryable refusal (429/503/unreachable) leaves the
        queue intact for the next pass; anything else drops the hint and
        counts ``repro_replica_divergence_total``, because that replica
        can no longer converge through this queue.
        """
        if self.hints is None:
            return {}
        topo = self._topology
        drained: dict[int, int] = {}
        for shard in self.hints.shards_with_hints():
            if shard >= len(topo.clients):
                continue  # left the ring; the controller drops its queue
            if self.shard_alive is not None and not self.shard_alive(shard):
                continue
            delivered = 0
            upto = 0
            for seq, payload in self.hints.pending(shard):
                message: dict[str, object] = {
                    "op": "ingest",
                    "reviews": payload.get("reviews", []),
                    "hinted": True,
                }
                if isinstance(payload.get("delta_seq"), int):
                    message["delta_seq"] = payload["delta_seq"]
                try:
                    reply = await self._call_shard(topo, shard, message)
                except ShardUnavailable:
                    break
                status = reply.get("status")
                if status in (200, 409):
                    upto = seq
                    delivered += 1
                elif status in (429, 503):
                    break
                else:
                    upto = seq
                    self.metrics.counter(
                        "repro_replica_divergence_total", _DIVERGENCE_HELP
                    ).inc()
            if upto:
                self.hints.mark_delivered(shard, upto)
            if delivered:
                drained[shard] = delivered
                self.metrics.counter(
                    "repro_hints_replayed_total",
                    "hinted deltas delivered to recovered shards",
                    labels={"shard": str(shard)},
                ).inc(delivered)
        return drained

    async def replay_journal(
        self,
        plan: PartitionPlan,
        clients,
        targets: set[int],
        after_seq: int = 0,
    ) -> int:
        """Stream journalled deltas into the ``targets`` shards of a new epoch.

        This is the resize's "WAL tail": a fresh worker boots from the
        new plan's sub-corpus (the snapshot) and this replay applies, in
        original ack order, every delta the cluster acknowledged since —
        routed with the *new* ``plan`` and sent only to ``targets`` (the
        shards being built; live shards already hold everything).
        Frames are marked ``hinted`` with their original ``delta_seq``
        so a re-run or an overlap with a hint drain is a no-op.  Returns
        the last journal sequence replayed; a second call with that as
        ``after_seq`` is the catch-up pass under the ingest stall.
        Raises :class:`ShardUnavailable` or ``RuntimeError`` if a target
        cannot apply a delta — the caller aborts the resize and keeps
        the old topology.
        """
        if self.journal is None:
            return after_seq
        last = after_seq
        for seq, record in self.journal.replay(after_seq):
            last = seq
            reviews = record.get("reviews") or []
            delta_seq = record.get("delta_seq")
            groups: dict[int, list[dict]] = {}
            for entry in reviews:
                pid = entry.get("product_id")
                for shard in plan.placement.get(pid, ()):
                    if shard in targets:
                        groups.setdefault(shard, []).append(entry)
            for shard, records in sorted(groups.items()):
                message: dict[str, object] = {
                    "op": "ingest", "reviews": records, "hinted": True,
                }
                if isinstance(delta_seq, int):
                    message["delta_seq"] = delta_seq
                reply = await clients[shard].request(message)
                if reply.get("status") not in (200, 409):
                    raise RuntimeError(
                        f"journal replay of delta_seq={delta_seq} to shard "
                        f"{shard} failed: {reply.get('error', reply)}"
                    )
        return last

    async def _drain_hints_forever(self) -> None:
        while True:
            await asyncio.sleep(self.hint_drain_interval)
            try:
                await self.drain_hints()
            except Exception:  # pragma: no cover - backstop
                pass  # the drain loop must outlive any one bad pass

    async def check_replicas(self, product_id: str) -> dict:
        """Read-repair-style probe: do the replicas agree on a product?

        Asks every shard in the product's preference list for its
        review-id list and compares.  Divergence among the *reachable*
        replicas increments ``repro_replica_divergence_total`` — the
        counter the convergence tests assert stays at zero after a
        kill/drain cycle.
        """
        topo = self._topology
        preference = topo.plan.preference(product_id)
        states: dict[str, object] = {}
        live: list[tuple] = []
        for shard in preference:
            try:
                reply = await self._call_shard(
                    topo,
                    shard,
                    {"op": "product_state", "product_id": product_id},
                    timeout=5.0,
                )
            except ShardUnavailable:
                states[str(shard)] = None
                continue
            if reply.get("status") != 200:
                states[str(shard)] = None
                continue
            ids = (reply.get("payload") or {}).get("review_ids") or []
            states[str(shard)] = ids
            live.append(tuple(ids))
        diverged = len(set(live)) > 1
        if diverged:
            self.metrics.counter(
                "repro_replica_divergence_total", _DIVERGENCE_HELP
            ).inc()
        return {
            "product_id": product_id,
            "replicas": states,
            "diverged": diverged,
        }

    # -- aggregations --------------------------------------------------------

    async def _ask_every_shard(
        self, topo: Topology, message: dict, timeout: float | None = None
    ) -> list[tuple[int, dict]]:
        """``(shard, reply)`` from every shard; an unreachable one is a 503."""

        async def _one(shard: int):
            try:
                return shard, await self._call_shard(topo, shard, message, timeout)
            except ShardUnavailable as exc:
                return shard, {"status": 503, "error": str(exc)}

        return await asyncio.gather(
            *(_one(shard) for shard in range(topo.plan.shards))
        )

    async def _handle_snapshot(self) -> tuple[int, object, dict[str, str] | None]:
        results = await self._ask_every_shard(self._topology, {"op": "snapshot"})
        failures = [(s, r) for s, r in results if r.get("status") != 200]
        if failures:
            shard, reply = failures[0]
            return WireError.from_frame(reply, shard=shard).reply(self.metrics)
        return (
            200,
            {"shards": {str(s): r.get("payload") for s, r in results}},
            None,
        )

    async def _handle_healthz(self) -> tuple[int, object, dict[str, str] | None]:
        topo = self._topology
        shards: dict[str, dict] = {}
        for shard, reply in await self._ask_every_shard(topo, {"op": "healthz"}, 5.0):
            view = reply.get("payload") or {}
            if reply.get("status") != 200 and "status" not in view:
                view = {"status": "down", "error": reply.get("error")}
            shards[str(shard)] = view
        all_ok = all(view.get("status") == "ok" for view in shards.values())
        payload = {
            # The gateway is alive either way; "degraded" names the state
            # where at least one shard is down/draining and its targets
            # answer from replicas (or 503 at replicas=1) while the rest
            # keep serving.
            "status": "ok" if all_ok else "degraded",
            "ring": topo.ring.describe(),
            "generation": topo.generation,
            "replicas": topo.plan.replicas,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "inflight": self.admission.inflight,
            "shards": shards,
        }
        if self.hints is not None:
            payload["hints"] = {
                str(shard): self.hints.depth(shard)
                for shard in self.hints.shards_with_hints()
            }
        return 200, payload, None

    async def _handle_metrics(
        self, prometheus: bool
    ) -> tuple[int, object, dict[str, str] | None]:
        results = await self._ask_every_shard(self._topology, {"op": "metrics"}, 5.0)
        if prometheus:
            blocks = [self.metrics.render_prometheus()]
            for shard, reply in results:
                if reply.get("status") == 200:
                    text = (reply.get("payload") or {}).get("prometheus", "")
                    blocks.append(f"# ---- shard {shard} ----\n{text}")
                else:
                    blocks.append(f"# ---- shard {shard} unavailable ----\n")
            return 200, "".join(blocks).encode(), None
        shard_views: dict[str, object] = {}
        for shard, reply in results:
            if reply.get("status") == 200:
                shard_views[str(shard)] = (reply.get("payload") or {}).get("json")
            else:
                shard_views[str(shard)] = {"error": reply.get("error")}
        return 200, {"gateway": self.metrics.as_dict(), "shards": shard_views}, None

    # -- HTTP plumbing -------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body_bytes: bytes
    ) -> tuple[int, object, dict[str, str] | None, str]:
        """Returns (status, payload, extra headers, content type)."""
        url = urlparse(path)
        try:
            endpoint = route(method, url.path)
            if endpoint == "healthz":
                return (*await self._handle_healthz(), JSON_TYPE)
            if endpoint == "metrics":
                as_text = metrics_as_text(url.query, headers.get("accept", ""))
                status, payload, extra = await self._handle_metrics(as_text)
                return status, payload, extra, (
                    PROMETHEUS_TYPE if as_text else JSON_TYPE
                )
            if endpoint == "reload":
                raise WireError(
                    501,
                    "corpus reload is not supported in cluster mode; restart "
                    "the cluster with the new corpus (the partition depends "
                    "on it)",
                )
            deadline = deadline_ms(headers.get("x-deadline-ms"))
            body = json_body(body_bytes)
        except WireError as error:
            return (*error.reply(self.metrics), JSON_TYPE)
        if endpoint == "ingest":
            status, payload, extra = await self._handle_ingest(body)
        elif endpoint == "snapshot":
            status, payload, extra = await self._handle_snapshot()
        else:
            status, payload, extra = await self._handle_query(
                endpoint, body, deadline
            )
        return status, payload, extra, JSON_TYPE

    async def _respond(self, reader: asyncio.StreamReader):
        """Read and answer one request: the reply plus whether to close.

        ``None`` on a clean EOF between requests.
        """
        try:
            request = await _read_http_request(reader)
        except WireError as error:
            # The request cannot be read whole, so the stream cannot
            # carry another one: answer, then close.
            return (*error.reply(self.metrics), JSON_TYPE, True)
        if request is None:
            return None
        method, path, headers, body, close = request
        try:
            reply = await self._dispatch(method, path, headers, body)
        except Exception as exc:  # pragma: no cover - backstop
            reply = (*failure(exc, None, self.jitter).reply(self.metrics), JSON_TYPE)
        return (*reply, close)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: HTTP/1.1 with keep-alive."""
        try:
            while True:
                answered = await self._respond(reader)
                if answered is None:
                    break
                status, payload, extra, content, close = answered
                body = payload if isinstance(payload, bytes) else encode_json(payload)
                reason = _HTTP_REASONS.get(status, "Unknown")
                head = [
                    f"HTTP/1.1 {status} {reason}",
                    f"Content-Type: {content}",
                    f"Content-Length: {len(body)}",
                    f"Connection: {'close' if close else 'keep-alive'}",
                ]
                for name, value in (extra or {}).items():
                    head.append(f"{name}: {value}")
                writer.write(
                    ("\r\n".join(head) + "\r\n\r\n").encode() + body
                )
                await writer.drain()
                if close:
                    break
        except (OSError, EOFError, ValueError):
            pass  # torn connection or an overlong line: just drop it
        finally:
            writer.close()

    async def start(self, host: str, port: int) -> asyncio.base_events.Server:
        """Bind and start serving; read the bound port off the result."""
        server = await asyncio.start_server(self.handle_connection, host, port)
        if self.hints is not None and self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_hints_forever()
            )
        return server

    async def aclose(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        for client in self._topology.clients:
            await client.aclose()


async def _read_http_request(
    reader: asyncio.StreamReader,
):
    """Parse one request; ``None`` on a clean EOF before a request line.

    Returns ``(method, path, lowercase headers, body bytes, close)``.
    Raises :class:`WireError` when the request cannot be read whole:
    malformed framing, or a body :func:`body_length` refuses.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line: {line!r}")
    method, path, version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise WireError(431, "too many header lines")
    length = body_length(headers.get("content-length"))
    body = await reader.readexactly(length) if length else b""
    close = (
        headers.get("connection", "").lower() == "close"
        or version.upper() == "HTTP/1.0"
    )
    return method, path, headers, body, close
