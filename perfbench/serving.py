"""``hot_read`` and ``cluster_read``: warm select requests over HTTP.

``hot_read`` drives ``repro-cli serve`` (one process, default flags);
``cluster_read`` sends the same request stream to ``repro-cli serve
--shards 2``.  The working set fits the default result cache and is
warmed at set-up, so every measured request is a cache hit: the front
end, admission, cache and serialisation (plus, in the cluster, the
gateway, ring routing, frame codec and shard sockets) do all the work
and the solver none.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from perfbench import harness, reference
from perfbench.harness import check
from perfbench.tracing import (
    OP_HEADER,
    Tracer,
    handler_seconds,
    load_spans,
    overhead_pct,
    per_layer,
    traced_setup,
)

#: Working set: 8 evenly spaced viable targets (the same for every
#: seed) x 3 budgets = 24 keys, well inside the default 256-entry result
#: cache.  Targets alternate between the two paper algorithms.  Both
#: loops send whole passes over the set, each pass in seeded order.
WORKING_TARGETS = 8
BUDGETS = (3, 5, 10)
ALGORITHMS = ("CompaReSetS+", "CompaReSetS")
#: hot_read: the closed loop gets this share of ``--seconds``, then an
#: open loop over two connections the rest.  cluster_read runs both
#: loops side by side for the whole run, one connection each: a sparse
#: open loop against an otherwise idle cluster times the host waking
#: idle processes (its p90 ranged 2.6-7.2 ms between repeats against
#: one running cluster), while beside the closed loop it ranged
#: 4.6-5.5 ms.
CLOSED_SHARE = 0.4
#: Keyed by ``cluster``.  hot_read sends 17 requests/s over two
#: connections, below the 22.7 requests/s one keep-alive connection
#: reaches today: 144 (six passes) in a 14 s run, 14 beyond p90.  The
#: cluster answers 450-1500 requests/s on one connection; its open loop
#: sends 100 requests/s, 1392 in a 14 s run, 139 beyond p90.
OPEN_RATE = {False: 17.0, True: 100.0}
OPEN_CONNECTIONS = {False: 2, True: 1}
TAIL_PERCENTILE = 90.0


@dataclass
class Server:
    process: harness.ServerProcess
    conn: harness.Connection
    bodies: list[dict]
    encoded: list[bytes]
    warm: list[tuple[int, int, bytes]]

    def close(self) -> None:
        self.conn.close()
        self.process.stop()


def working_set(corpus) -> list[dict]:
    targets = harness.spread(harness.viable_targets(corpus), WORKING_TARGETS)
    return [
        harness.select_body(target, m, ALGORITHMS[position % 2])
        for position, target in enumerate(targets)
        for m in BUDGETS
    ]


class ServingWorkload:
    def __init__(self, args, run_dir, cluster: bool) -> None:
        self.args = args
        self.run_dir = run_dir
        self.cluster = cluster
        self.corpus_path = run_dir / "corpus.jsonl"

    # -- set-up ------------------------------------------------------------

    def start(self, attempt: int, *, launcher: bool = False) -> Server:
        """Generate inputs, start the server, warm the working set."""
        from repro.data.io import save_corpus

        corpus = harness.make_corpus(harness.READ_CORPUS)
        save_corpus(corpus, self.corpus_path)
        bodies = working_set(corpus)
        if launcher:
            program = [str(harness.ROOT / "perfbench" / "launcher.py")]
        else:
            program = ["-m", "repro.cli", "serve"]
        argv = [sys.executable, *program, "--corpus", str(self.corpus_path), "--port", "0"]
        if self.cluster:
            argv += ["--shards", "2", "--state-dir", str(self.run_dir / f"cluster-{attempt}")]
        env = harness.pinned_env()
        env["PERFBENCH_SPANS"] = str(self.run_dir / "spans.json")
        process = harness.ServerProcess(argv, self.run_dir / f"server-{attempt}.log", env)
        encoded = [harness.canonical(body) for body in bodies]
        conns = [harness.Connection(process.host, process.port) for _ in range(2)]
        server = Server(process, conns[0], bodies, encoded, [])
        # Warm over both connections at once: the keys are disjoint, so
        # each is solved once and cached.
        def warm(conn, share):
            call = self._caller(server, conn)
            return [call((index, 0)) for index in share]

        shares = [range(i, len(encoded), len(conns)) for i in range(len(conns))]
        for records in harness.run_parallel(
            [functools.partial(warm, conn, share) for conn, share in zip(conns, shares)]
        ):
            server.warm.extend(records)
        for conn in conns[1:]:
            conn.close()
        return server

    # -- load --------------------------------------------------------------

    @staticmethod
    def _caller(server: Server, conn: harness.Connection, tag: bool = False):
        def call(request):
            index, op = request
            headers = {OP_HEADER: str(op)} if tag else None
            status, body = conn.post("/v1/select", server.encoded[index], headers)
            return index, status, body

        return call

    def _closed(self, server: Server, rng, seconds: float, *, first_op: int = 0,
                tag: bool = False):
        keys = range(len(server.bodies))
        requests = ((index, first_op + op) for op, index in enumerate(harness.passes(rng, keys)))
        return harness.closed_loop(self._caller(server, server.conn, tag), requests, seconds,
                                   multiple=len(keys))

    def _arrivals(self, server: Server, rng, seconds: float):
        """Open-loop send times and keys: whole passes at the fixed rate."""
        keys = range(len(server.bodies))
        offsets = harness.poisson_offsets(
            rng, OPEN_RATE[self.cluster], seconds, multiple=len(keys)
        )
        return offsets, list(itertools.islice(harness.passes(rng, keys), len(offsets)))

    def _open(self, server: Server, offsets, indices, *reuse: harness.Connection):
        """The open loop over ``reuse`` plus new connections, closed after."""
        fresh = [
            harness.Connection(server.process.host, server.process.port)
            for _ in range(OPEN_CONNECTIONS[self.cluster] - len(reuse))
        ]
        try:
            return harness.open_loop(
                [self._caller(server, conn) for conn in [*reuse, *fresh]],
                [(index, 0) for index in indices], offsets,
            )
        finally:
            for conn in fresh:
                conn.close()

    def run(self) -> dict:
        seconds = self.args.seconds
        rng = np.random.default_rng([self.args.seed, 2])
        if self.args.trace:
            return self._traced(rng, seconds)
        server, setup = harness.repeated_setup(
            self.start, Server.close, harness.setup_repeats(self.args)
        )
        try:
            if self.cluster:
                offsets, indices = self._arrivals(server, rng, seconds)
                loop, (open_latencies, lateness, opened) = harness.run_parallel([
                    functools.partial(self._closed, server, rng, seconds),
                    functools.partial(self._open, server, offsets, indices),
                ])
            else:
                loop = self._closed(server, rng, seconds * CLOSED_SHARE)
                offsets, indices = self._arrivals(server, rng, seconds * (1 - CLOSED_SHARE))
                open_latencies, lateness, opened = self._open(
                    server, offsets, indices, server.conn
                )
            rss = harness.peak_rss_mb(server.process.pids())
        finally:
            server.close()
        closed = loop.records
        records = server.warm + closed + opened
        failed = sum(1 for _, status, _ in closed + opened if status != 200)
        self._check(server, records)
        p50 = harness.median(loop.latencies) * 1e3
        return {
            "attempted": len(closed) + len(opened),
            "failed": failed,
            "metrics": harness.end_to_end(
                setup=setup,
                ops_per_s=loop.ops_per_s,
                p50_ms=p50,
                tail_ms=harness.percentile(open_latencies, TAIL_PERCENTILE) * 1e3,
                read_mean_ms=float(np.mean(loop.latencies)) * 1e3,
                rss_mb=rss,
            ),
            "detail": {
                "setup_s": setup,
                "closed": {"requests": len(closed), "seconds": loop.elapsed, "connections": 1},
                "open": harness.open_detail(
                    OPEN_RATE[self.cluster], OPEN_CONNECTIONS[self.cluster], open_latencies,
                    lateness, TAIL_PERCENTILE,
                ),
                "loops": "side by side" if self.cluster else "closed, then open",
                "working_set": len(server.bodies),
            },
        }

    def _traced(self, rng, seconds: float) -> dict:
        """Untraced then traced closed loops; per-layer metrics from the latter.

        hot_read restarts the server through the launcher for the traced
        half.  The cluster forks its shard workers, so its split is taken
        from outside (replies' provenance against client latency) and
        both halves run on the same, unwrapped cluster.
        """
        half = seconds / 2
        tracer = Tracer()
        server = traced_setup(tracer, functools.partial(self.start, 0))
        try:
            base, base_records = self._closed(server, rng, half)[:2]
            if not self.cluster:
                server.close()
                server = self.start(1, launcher=True)
            traced, records = self._closed(
                server, rng, half, first_op=len(base), tag=not self.cluster
            )[:2]
        finally:
            server.close()
        self._check(server, server.warm + base_records + records)
        replies = [json.loads(body) for _, _, body in records]
        walls = [reply["provenance"]["wall_ms"] for reply in replies]
        sources = [reply["provenance"]["cache"] for reply in replies]
        extra = {
            "serve.http.reply_bytes": float(np.mean([len(body) for _, _, body in records])),
            "serve.engine.wall_ms": float(np.mean(walls)),
            "serve.cache.hits": float(sources.count("hit")),
            "serve.cache.misses": float(sources.count("miss")),
            "trace.overhead_pct": overhead_pct(base, traced),
        }
        spans = tracer.spans
        ops = [str(len(base) + op) for op in range(len(records))]
        if self.cluster:
            extra["serve.cluster.hop_ms"] = float(
                np.mean([lat * 1e3 - wall for lat, wall in zip(traced, walls)])
            )
        else:
            server_spans = load_spans(self.run_dir / "spans.json")
            spans = spans + server_spans
            handled = handler_seconds(server_spans)
            extra["serve.http.wire_ms"] = float(np.mean(
                [(lat - handled[op]) * 1e3 for lat, op in zip(traced, ops)]
            ))
        return {
            "attempted": len(base) + len(records),
            "failed": sum(1 for _, status, _ in base_records + records if status != 200),
            "metrics": per_layer(spans, ops, extra=extra),
            "detail": {
                "untraced_requests": len(base),
                "traced_requests": len(records),
                "untraced_p50_ms": harness.median(base) * 1e3,
                "traced_p50_ms": harness.median(traced) * 1e3,
                "split": "outside (provenance)" if self.cluster else "spans",
            },
        }

    # -- checks ------------------------------------------------------------

    def _check(self, server: Server, records) -> None:
        """Every reply 200; each key's result equals the nnls reference and
        every reply for the key is byte-identical to the checked one."""
        from repro.data.io import load_corpus

        seen: dict[int, bytes] = {}
        for index, status, body in records:
            check(status == 200, f"reply {status} for {server.bodies[index]}: {body[:200]!r}")
            result = harness.canonical(json.loads(body)["result"])
            first = seen.setdefault(index, result)
            check(result == first, f"replies differ for {server.bodies[index]}")
        corpus = load_corpus(self.corpus_path)
        for index, result in sorted(seen.items()):
            reference.check_select(corpus, server.bodies[index], json.loads(result))
