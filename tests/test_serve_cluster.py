"""End-to-end cluster tests: byte-identity vs single-process, failover.

The acceptance bar for the cluster is behavioural transparency: the
same corpus served with ``--shards 4`` must answer ``/v1/select`` and
``/v1/narrow`` byte-identically to the single-process server (modulo
provenance/timing), fan ingest to every holder, and convert a crashed
shard into 503 + Retry-After for that shard's targets only.
"""

from __future__ import annotations

import asyncio
import errno
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.data.instances import build_instance
from repro.data.io import save_corpus
from repro.data.synthetic import generate_corpus
from repro.serve.admission import AdmissionController
from repro.serve.cluster import (
    ClusterConfig,
    ClusterGateway,
    HashRing,
    HintQueue,
    ServingCluster,
    ShardClient,
    handle_message,
    partition_corpus,
)
from repro.serve.cluster.proto import (
    FrameError,
    read_frame_async,
    write_frame_async,
)
from repro.serve.engine import SelectionEngine, build_durable_engine
from repro.serve.http import make_server
from repro.serve.store import ItemStore
from repro.serve.supervisor import RestartPolicy
from repro.serve.wal import WriteAheadLog
from tests.test_serve_http import RequestEdgeChecks, connect, exchange

SHARDS = 4


def _post(base: str, path: str, body: dict, timeout: float = 120.0):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(base: str, path: str, timeout: float = 60.0, headers: dict | None = None):
    request = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=11)


@pytest.fixture(scope="module")
def corpus_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "corpus.jsonl"
    save_corpus(corpus, path)
    return path


@pytest.fixture(scope="module")
def viable_targets(corpus):
    return [
        p.product_id
        for p in corpus.products
        if build_instance(corpus, p.product_id, 10, min_reviews=3)
    ]


@pytest.fixture(scope="module")
def single_base(corpus):
    """The single-process reference server, in-process."""
    engine = SelectionEngine(ItemStore(corpus), workers=2)
    server = make_server(engine, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    engine.close()


@pytest.fixture(scope="module")
def cluster(corpus_path, tmp_path_factory):
    config = ClusterConfig(
        corpus_path=corpus_path,
        shards=SHARDS,
        state_dir=tmp_path_factory.mktemp("cluster-state"),
        engine_options={"workers": 2, "snapshot_every": 2},
        restart_policy=RestartPolicy(base_delay=0.05, max_restarts=10),
    )
    with ServingCluster(config) as running:
        yield running


class TestByteIdentity:
    def test_select_and_narrow_match_single_process(
        self, cluster, single_base, viable_targets
    ):
        """--shards 4 responses == --shards 1 responses, result-for-result."""
        checked = 0
        for target in viable_targets[:5] + [None]:
            for path, body in (
                ("/v1/select", {"target": target, "mu": 0.15}),
                ("/v1/select", {"target": target, "m": 2, "scheme": "binary"}),
                ("/v1/narrow", {"target": target, "k": 2}),
            ):
                if target is None:
                    body = {k: v for k, v in body.items() if k != "target"}
                single_status, single_body = _post(single_base, path, body)
                cluster_status, cluster_body = _post(
                    cluster.base_url, path, body
                )
                assert single_status == cluster_status == 200, (path, body)
                # Provenance differs (which process solved it, wall
                # times); the result block must be byte-identical.
                assert json.dumps(single_body["result"], sort_keys=True) == (
                    json.dumps(cluster_body["result"], sort_keys=True)
                ), (path, body)
                checked += 1
        assert checked == 18

    def test_error_responses_match_single_process(
        self, cluster, single_base, corpus
    ):
        for path, body in (
            ("/v1/select", {"target": "NOPE"}),
            ("/v1/select", {"bogus": 1}),
            ("/v1/select", {"m": 0}),
            ("/v1/narrow", {"k": 0}),
            ("/v1/ingest", {}),
            ("/v1/ingest", {"reviews": "nope"}),
        ):
            single_status, single_body = _post(single_base, path, body)
            cluster_status, cluster_body = _post(cluster.base_url, path, body)
            assert single_status == cluster_status, (path, body)
            assert single_body["error"] == cluster_body["error"], (path, body)
            assert single_body == cluster_body, (path, body)
        # One request per reachable row of the wire's error table, each
        # front end over one keep-alive connection: the whole body and
        # the Retry-After header must match.
        product = corpus.products[0].product_id
        duplicate = {"review_id": "PARITY-DUP", "product_id": product}
        cases = [
            ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "soon"}),
            ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "nan"}),
            ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "inf"}),
            ("POST", "/v1/select", b"{not json", {}),
            ("POST", "/v1/select", b"\xff\xfe", {}),
            ("POST", "/v1/select", b"[1, 2]", {}),
            ("POST", "/v1/select", b'{"bogus": 1}', {}),
            ("POST", "/v1/select", b'{"m": 0}', {}),
            ("POST", "/v1/select", b'{"max_comparisons": 0}', {}),
            ("POST", "/v1/select", b'{"target": "NOPE"}', {}),
            ("POST", "/v1/narrow", b'{"stages": ["nope"]}', {}),
            ("GET", "/nope", b"", {}),
            ("POST", "/nope", b"{}", {}),
            ("GET", "/v1/select", b"", {}),
            ("POST", "/metrics", b"{}", {}),
            ("PUT", "/v1/select", b"{}", {}),
            (
                "POST", "/v1/ingest",
                json.dumps(
                    {"reviews": [{"review_id": "X", "product_id": "NOPE"}]}
                ).encode(),
                {},
            ),
            (
                "POST", "/v1/ingest",
                json.dumps({"reviews": [duplicate, duplicate]}).encode(),
                {},
            ),
            ("POST", "/v1/ingest", b'{"reviews": [], "extra": 1}', {}),
            # Python's JSON decoder takes NaN and the infinities.
            ("POST", "/v1/select", b'{"lam": NaN}', {}),
            ("POST", "/v1/select", b'{"mu": Infinity}', {}),
            ("POST", "/v1/select", b'{"m": 2, "lam": 1e308}', {}),
            ("POST", "/v1/narrow", b'{"time_limit": NaN}', {}),
            ("POST", "/v1/narrow", b'{"time_limit": Infinity}', {}),
            # Finite, but their squares times a Gram entry overflow.
            ("POST", "/v1/narrow", b'{"lam": 1e154, "k": 2}', {}),
            ("POST", "/v1/narrow", b'{"lam": 1e154, "k": 3}', {}),
            ("POST", "/v1/narrow", b'{"mu": 1e154, "k": 3}', {}),
            ("POST", "/v1/select", b'{"lam": 1e154}', {}),
            ("POST", "/v1/select", b'{"mu": 1e154}', {}),
        ]
        for mention in (
            '{"aspect": "a", "sentiment": 1, "strength": NaN}',
            '{"aspect": "a", "sentiment": Infinity}',
        ):
            body = (
                '{"reviews": [{"review_id": "PARITY-NAN", '
                f'"product_id": "{product}", "mentions": [{mention}]}}]}}'
            )
            cases.append(("POST", "/v1/ingest", body.encode(), {}))
        single_conn, cluster_conn = connect(single_base), connect(cluster.base_url)
        try:
            for case in cases:
                single = exchange(single_conn, *case)
                clustered = exchange(cluster_conn, *case)
                assert single.status == clustered.status, case
                assert 400 <= single.status < 500, case
                assert single.json() == clustered.json(), case
                assert single.retry_after == clustered.retry_after, case
        finally:
            single_conn.close()
            cluster_conn.close()
        # No refusal counted against a solver backend on either side.
        for base in (single_base, cluster.base_url):
            status, raw = _get(base, "/healthz")
            assert status == 200, raw
            assert json.loads(raw)["status"] == "ok", raw


class TestGatewayEndpoints:
    def test_healthz_aggregates_all_shards(self, cluster):
        status, raw = _get(cluster.base_url, "/healthz")
        payload = json.loads(raw)
        assert status == 200
        assert payload["status"] == "ok"
        assert sorted(payload["shards"]) == [str(i) for i in range(SHARDS)]
        assert payload["ring"]["shards"] == SHARDS

    def test_metrics_json_and_prometheus(self, cluster):
        status, raw = _get(cluster.base_url, "/metrics")
        payload = json.loads(raw)
        assert status == 200
        assert set(payload) == {"gateway", "shards"}
        counters = payload["gateway"]["counters"]
        assert any(k.startswith("repro_shard_requests_total") for k in counters)
        assert "repro_shard_restart_total" in payload["gateway"]["gauges"]
        assert "repro_gateway_queue_depth" in payload["gateway"]["gauges"]
        status, raw = _get(cluster.base_url, "/metrics?format=prometheus")
        text = raw.decode()
        assert status == 200
        assert "repro_shard_requests_total" in text
        for shard in range(SHARDS):
            assert f"# ---- shard {shard} ----" in text

    def test_ingest_fans_out_to_every_holder(self, cluster, viable_targets):
        target = viable_targets[0]
        holders = cluster.plan.holders(target)
        record = {
            "review_id": "NEW-E2E-1",
            "product_id": target,
            "rating": 5.0,
            "text": "fantastic value",
            "mentions": [{"aspect": "price", "sentiment": 1}],
        }
        status, ack = _post(cluster.base_url, "/v1/ingest", {"reviews": [record]})
        assert status == 200
        assert ack["added"] == 1
        assert ack["affected"] == [target]
        assert sorted(ack["shards"]) == sorted(str(s) for s in holders)
        status, again = _post(
            cluster.base_url, "/v1/ingest", {"reviews": [record]}
        )
        assert status == 409

    def test_ingest_unknown_product_is_400(self, cluster):
        status, body = _post(
            cluster.base_url,
            "/v1/ingest",
            {"reviews": [{"review_id": "X", "product_id": "NOPE"}]},
        )
        assert status == 400
        assert "unknown product" in body["error"]

    def test_snapshot_fans_out(self, cluster):
        status, body = _post(cluster.base_url, "/v1/snapshot", {})
        assert status == 200
        assert sorted(body["shards"]) == [str(i) for i in range(SHARDS)]

    def test_reload_is_501_in_cluster_mode(self, cluster):
        status, body = _post(cluster.base_url, "/v1/reload", {"path": "x"})
        assert status == 501

    def test_unknown_endpoint_and_method_mismatch(self, cluster):
        status, _ = _get(cluster.base_url, "/nope")
        assert status == 404
        status, _ = _get(cluster.base_url, "/v1/select")
        assert status == 405
        status, _ = _post(cluster.base_url, "/healthz", {})
        assert status == 405

    def test_bad_deadline_header_is_400(self, cluster):
        request = urllib.request.Request(
            cluster.base_url + "/v1/select",
            data=b"{}",
            headers={"X-Deadline-Ms": "soon"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestGatewayRequestEdges(RequestEdgeChecks):
    @pytest.fixture()
    def base(self, cluster):
        return cluster.base_url


class TestShardFailover:
    """SIGKILL one shard: its targets 503, others serve, then it recovers.

    Runs last in the module (classes execute in file order) so the
    restart does not race the byte-identity assertions above.
    """

    def test_kill_one_shard_leaves_others_serving(self, cluster, viable_targets):
        ring = cluster.ring
        by_shard: dict[int, str] = {}
        for target in viable_targets:
            by_shard.setdefault(ring.route(target), target)
        assert len(by_shard) >= 2, "toy corpus must span shards"
        victim_shard, victim_target = next(iter(by_shard.items()))
        other_shard, other_target = next(
            (s, t) for s, t in by_shard.items() if s != victim_shard
        )

        cluster.kill_shard(victim_shard)
        # During the outage: victim targets answer 503 + Retry-After
        # (never a raw 500), other shards keep answering 200.
        saw_unavailable = False
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status, body = _post(
                cluster.base_url, "/v1/select", {"target": victim_target}
            )
            assert status in (200, 503), body
            if status == 503:
                saw_unavailable = True
                assert body["reason"] == "shard_unavailable"
                assert "retry_after" in body
                status, _ = _post(
                    cluster.base_url, "/v1/select", {"target": other_target}
                )
                assert status == 200
            else:
                break
            time.sleep(0.2)
        assert saw_unavailable, "kill was absorbed before any request saw it"

        # Recovery: the supervisor restarts the worker, which reopens
        # its own snapshot+WAL state and serves again.
        deadline = time.monotonic() + 30.0
        status = None
        while time.monotonic() < deadline:
            status, _ = _post(
                cluster.base_url, "/v1/select", {"target": victim_target}
            )
            if status == 200:
                break
            time.sleep(0.2)
        assert status == 200
        assert cluster.restarts()[victim_shard] >= 1
        status, raw = _get(cluster.base_url, "/healthz")
        payload = json.loads(raw)
        recovery = payload["shards"][str(victim_shard)].get("recovery", {})
        assert recovery.get("restarts", 0) >= 1


class TestGatewayUnits:
    """Direct gateway checks that need no running shard processes."""

    @pytest.fixture()
    def parts(self, corpus):
        ring = HashRing(1)
        plan = partition_corpus(corpus, ring)
        client = ShardClient(0, "127.0.0.1", lambda: None)
        return corpus, plan, ring, [client]

    def test_default_target_matches_store(self, parts):
        corpus, plan, ring, clients = parts
        gateway = ClusterGateway(corpus, plan, ring, clients)
        store = ItemStore(corpus)
        assert gateway._default_target(10, 3) == store.default_target(10, 3)
        assert gateway._default_target(10, 3) == store.default_target(10, 3)

    def test_admission_sheds_before_any_dispatch(self, parts):
        corpus, plan, ring, clients = parts
        admission = AdmissionController(max_pending=1)
        gateway = ClusterGateway(corpus, plan, ring, clients, admission=admission)
        with admission.admit(0.0):  # saturate the queue
            status, payload, headers = asyncio.run(
                gateway._handle_query("select", {}, None)
            )
        assert status == 429
        assert payload["reason"] == "queue_full"
        assert headers and "Retry-After" in headers

    def test_unreachable_shard_is_503_not_500(self, parts):
        corpus, plan, ring, clients = parts
        gateway = ClusterGateway(corpus, plan, ring, clients)
        status, payload, headers = asyncio.run(
            gateway._handle_query(
                "select", {"target": corpus.products[0].product_id}, None
            )
        )
        assert status == 503
        assert payload["reason"] == "shard_unavailable"
        assert headers and "Retry-After" in headers

    def test_failed_snapshot_is_the_single_process_503(
        self, parts, corpus_path, tmp_path, monkeypatch
    ):
        """A shard's disk-full snapshot relays with its Retry-After."""
        corpus, plan, ring, _clients = parts
        engine = build_durable_engine(tmp_path, corpus_path=corpus_path)

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine.snapshots, "save", disk_full)
        server = make_server(engine, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = connect(f"http://127.0.0.1:{server.server_address[1]}")
            single = exchange(conn, "POST", "/v1/snapshot")
            conn.close()
            frame = handle_message(engine, {"op": "snapshot"})
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
        gateway = ClusterGateway(corpus, plan, ring, [_RepliesWith(frame)])
        status, payload, headers = asyncio.run(gateway._handle_snapshot())
        assert single.status == status == 503
        assert single.retry_after == headers["Retry-After"] == "2"
        assert payload == {**single.json(), "shard": 0}
        assert payload["error"].startswith("snapshot failed: ")

    def test_hints_without_journal_are_rejected(self, parts, tmp_path):
        """A hint needs the journal's delta_seq to replay idempotently."""
        corpus, plan, ring, clients = parts
        hints = HintQueue(tmp_path)
        with pytest.raises(ValueError, match="journal"):
            ClusterGateway(corpus, plan, ring, clients, hints=hints)
        hints.close()


class _RepliesWith:
    """A :class:`ShardClient` stand-in answering every frame with ``reply``."""

    def __init__(self, reply: dict) -> None:
        self.reply = reply

    async def request(self, message: dict, timeout: float | None = None) -> dict:
        return self.reply

    async def aclose(self) -> None:
        pass


def _review_record(product_id: str, review_id: str) -> dict:
    return {
        "review_id": review_id,
        "product_id": product_id,
        "rating": 4.0,
        "text": "solid value and battery",
        "mentions": [{"aspect": "value", "sentiment": 1}],
    }


async def _fake_shard(events: list, delays: list[float]):
    """An in-loop shard stub: acks ingest frames, recording start/end.

    ``delays`` is consumed one entry per frame (0 once exhausted), so a
    test can make the first delta slow and observe what the gateway
    lets overlap with it.
    """

    async def handler(reader, writer):
        while True:
            try:
                message = await read_frame_async(reader)
            except (FrameError, asyncio.IncompleteReadError, OSError):
                break
            seq = message.get("delta_seq")
            events.append(("start", seq))
            await asyncio.sleep(delays.pop(0) if delays else 0.0)
            events.append(("end", seq))
            reviews = message.get("reviews", [])
            await write_frame_async(
                writer,
                {
                    "status": 200,
                    "payload": {
                        "added": len(reviews),
                        "affected": sorted(
                            {r["product_id"] for r in reviews}
                        ),
                    },
                },
            )
        writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestIngestOrderingAndStall:
    """Replication-ordering gateway checks against fake shard stubs."""

    def test_same_product_ingests_apply_in_delta_seq_order(
        self, corpus, tmp_path
    ):
        """Concurrent same-product deltas reach the shard serially.

        Without per-product serialisation two concurrent ingests can
        reach a shard's replicas over different pooled connections in
        opposite orders, breaking failover byte-identity even though no
        data is lost.
        """

        async def scenario():
            events: list = []
            server, port = await _fake_shard(events, [0.3])
            ring = HashRing(1)
            plan = partition_corpus(corpus, ring)
            journal = WriteAheadLog(tmp_path / "journal.wal")
            gateway = ClusterGateway(
                corpus, plan, ring,
                [ShardClient(0, "127.0.0.1", lambda: port)],
                hints=HintQueue(tmp_path / "hints"),
                journal=journal,
            )
            pid = corpus.products[0].product_id
            first = asyncio.create_task(
                gateway._handle_ingest(
                    {"reviews": [_review_record(pid, "ORD-1")]}
                )
            )
            await asyncio.sleep(0.05)  # first is mid-fan-out on the stub
            second = asyncio.create_task(
                gateway._handle_ingest(
                    {"reviews": [_review_record(pid, "ORD-2")]}
                )
            )
            status_1, _, _ = await first
            status_2, _, _ = await second
            assert status_1 == 200 and status_2 == 200
            journalled = [
                record["delta_seq"] for _, record in journal.replay(0)
            ]
            server.close()
            await server.wait_closed()
            return events, journalled

        events, journalled = asyncio.run(scenario())
        # The second delta's fan-out waited for the first to finish and
        # journal: no interleaving at the shard, and the journal replay
        # stream carries the deltas in delta_seq order.
        assert events == [("start", 1), ("end", 1), ("start", 2), ("end", 2)]
        assert journalled == [1, 2]

    def test_stall_drains_inflight_ingest_before_returning(
        self, corpus, tmp_path
    ):
        """The resize stall must not leave an admitted ingest un-journalled.

        An ingest that passed the stall check appends to the journal
        only after its fan-out completes; the catch-up replay may only
        run once that append has landed, or an acknowledged delta never
        reaches the resize-built workers.
        """

        async def scenario():
            events: list = []
            server, port = await _fake_shard(events, [0.3])
            ring = HashRing(1)
            plan = partition_corpus(corpus, ring)
            journal = WriteAheadLog(tmp_path / "journal.wal")
            gateway = ClusterGateway(
                corpus, plan, ring,
                [ShardClient(0, "127.0.0.1", lambda: port)],
                hints=HintQueue(tmp_path / "hints"),
                journal=journal,
            )
            pid = corpus.products[0].product_id
            inflight = asyncio.create_task(
                gateway._handle_ingest(
                    {"reviews": [_review_record(pid, "STALL-1")]}
                )
            )
            await asyncio.sleep(0.05)  # in flight, past the stall check
            await gateway.stall_ingest_and_drain()
            # The drain waited out the in-flight ingest: its delta is in
            # the journal before any catch-up replay would read it.
            assert [
                record["delta_seq"] for _, record in journal.replay(0)
            ] == [1]
            status, _, _ = await inflight
            assert status == 200
            status, payload, headers = await gateway._handle_ingest(
                {"reviews": [_review_record(pid, "STALL-2")]}
            )
            assert status == 503
            assert payload["reason"] == "resizing"
            assert headers and "Retry-After" in headers
            gateway.set_ingest_stall(False)
            status, _, _ = await gateway._handle_ingest(
                {"reviews": [_review_record(pid, "STALL-2")]}
            )
            assert status == 200
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_backlogged_shard_is_hinted_not_written_live(
        self, corpus, tmp_path
    ):
        """A shard owing hints takes new deltas through its queue.

        Writing live past an undrained backlog would apply the newest
        delta before the queued ones on that replica alone — the same
        divergence the hint queue exists to prevent.
        """

        async def scenario():
            events_0: list = []
            events_1: list = []
            server_0, port_0 = await _fake_shard(events_0, [])
            server_1, port_1 = await _fake_shard(events_1, [])
            ring = HashRing(2)
            plan = partition_corpus(corpus, ring, replicas=2)
            pid = corpus.products[0].product_id
            hints = HintQueue(tmp_path / "hints")
            # Shard 1 is owed an earlier delta it never saw.
            hints.add(1, [_review_record(pid, "BACK-0")], delta_seq=1)
            gateway = ClusterGateway(
                corpus, plan, ring,
                [
                    ShardClient(0, "127.0.0.1", lambda: port_0),
                    ShardClient(1, "127.0.0.1", lambda: port_1),
                ],
                hints=hints,
                journal=WriteAheadLog(tmp_path / "journal.wal"),
            )
            status, payload, _ = await gateway._handle_ingest(
                {"reviews": [_review_record(pid, "BACK-1")]}
            )
            assert status == 200, payload
            assert payload["hinted"] == [1]
            assert payload["delta_seq"] == 2
            # The new delta joined the queue behind the backlog instead
            # of reaching the shard live and out of order.
            assert hints.depth(1) == 2
            assert not events_1
            assert events_0  # the live replica acked the delta
            for server in (server_0, server_1):
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
