"""Smoke test for `repro-cli serve --shards N`: gateway + 2 shard workers.

Boots the single-process server and a 2-shard cluster as real
subprocesses (argv parsing, corpus partitioning, shard supervision, the
asyncio gateway — the full path CI cares about) and asserts the cluster
answers ``/v1/select`` and ``/v1/narrow`` byte-identically to the
single-process reference, modulo provenance.  Both servers then get one
request per reachable row of the error table over one keep-alive
connection each: the status, the body and the presence of
``Retry-After`` must match, and a valid select on the same connection
must still answer 200.  A second leg boots a
3-shard ``--replicas 2`` cluster, SIGKILLs one shard worker, and
asserts reads keep answering 200 throughout the outage (failover to a
replica, never a 503).  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def post(url: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=json.dumps(body).encode())
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_raw(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, response.read()


def products(corpus: str) -> list[str]:
    """Every product id in a corpus jsonl file, in file order."""
    with open(corpus) as handle:
        records = [json.loads(line) for line in handle]
    return [r["product_id"] for r in records if r.get("kind") == "product"]


def error_cases(product: str) -> list[tuple[str, str, bytes, dict]]:
    """One request per reachable row of the error table (repro.serve.wire)."""
    duplicate = {"review_id": "SMOKE-DUP", "product_id": product}
    unknown = {"review_id": "SMOKE-X", "product_id": "NOPE"}
    return [
        ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "soon"}),
        ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "nan"}),
        ("POST", "/v1/select", b'{"m": 2}', {"X-Deadline-Ms": "inf"}),
        ("POST", "/v1/select", b"{not json", {}),
        ("POST", "/v1/select", b"[1, 2]", {}),
        ("POST", "/v1/select", b'{"bogus": 1}', {}),
        ("POST", "/v1/select", b'{"m": 0}', {}),
        ("POST", "/v1/select", b'{"target": "NOPE"}', {}),
        ("GET", "/nope", b"", {}),
        ("GET", "/v1/select", b"", {}),
        ("POST", "/healthz", b"{}", {}),
        ("PUT", "/v1/select", b"{}", {}),
        ("POST", "/v1/ingest", json.dumps({"reviews": [unknown]}).encode(), {}),
        (
            "POST", "/v1/ingest",
            json.dumps({"reviews": [duplicate, duplicate]}).encode(), {},
        ),
    ]


def exchange(
    conn: http.client.HTTPConnection, method: str, path: str,
    body: bytes = b"", headers: dict | None = None,
) -> tuple[int, bool, bytes]:
    """(status, whether Retry-After was sent, body) of one request."""
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return (
        response.status,
        response.getheader("Retry-After") is not None,
        response.read(),
    )


def error_parity(single_base: str, cluster_base: str, product: str) -> int:
    """Both servers answer every error case alike, then still serve."""
    conns = [
        http.client.HTTPConnection(url.hostname, url.port, timeout=120)
        for url in (urlparse(single_base), urlparse(cluster_base))
    ]
    cases = error_cases(product)
    try:
        for case in cases:
            single, clustered = (exchange(conn, *case) for conn in conns)
            assert 400 <= single[0] < 500, (case, single)
            assert single == clustered, (case, single, clustered)
        # The error replies left each keep-alive connection usable.
        for conn in conns:
            status, _, body = exchange(conn, "POST", "/v1/select", b'{"m": 3}')
            assert status == 200 and json.loads(body)["result"], (status, body)
    finally:
        for conn in conns:
            conn.close()
    return len(cases)


def boot(argv: list[str], env: dict) -> tuple[subprocess.Popen, str]:
    """Start a serve subprocess and wait for its address announcement."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    started = time.monotonic()
    for line in process.stdout:
        print("  server:", line.rstrip())
        if line.startswith("serving on "):
            return process, line.split("serving on ", 1)[1].strip()
        if time.monotonic() - started > 120:
            break
    process.terminate()
    raise AssertionError(f"server never announced its address: {argv}")


def worker_pids(server_pid: int) -> list[int]:
    """PIDs of a serve process's shard workers (its direct children)."""
    path = f"/proc/{server_pid}/task/{server_pid}/children"
    try:
        with open(path) as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def replica_failover_leg(corpus: str, tmp: str, env: dict) -> None:
    """Boot --shards 3 --replicas 2, SIGKILL one worker, reads stay 200."""
    import signal

    cluster, base = boot(
        [sys.executable, "-m", "repro.cli", "serve", "--corpus", corpus,
         "--shards", "3", "--replicas", "2", "--gateway-port", "0",
         "--state-dir", os.path.join(tmp, "replica-state")],
        env,
    )
    try:
        # Targets spanning the ring: every product in the corpus.
        targets = products(corpus)
        assert len(targets) >= 3, targets

        # Warm every shard first so the post-kill loop issues fast
        # (cached) reads that actually land inside the outage window.
        for target in targets:
            status, payload = post(f"{base}/v1/select", {"target": target, "m": 2})
            assert status in (200, 422), (target, status, payload)

        children = worker_pids(cluster.pid)
        assert len(children) == 3, f"expected 3 shard workers, got {children}"
        os.kill(children[0], signal.SIGKILL)

        # During the outage + restart window every read must answer
        # 200 (failover to the replica) or 422 (unviable target) —
        # never 503, never a transport error.
        checked = 0
        deadline = time.monotonic() + 4.0
        while time.monotonic() < deadline:
            for target in targets:
                status, payload = post(
                    f"{base}/v1/select", {"target": target, "m": 2}
                )
                assert status in (200, 422), (target, status, payload)
                checked += 1
        assert checked > 0

        # Prove at least one request actually crossed the failover path.
        deadline = time.monotonic() + 30.0
        while True:
            status, raw = get_raw(f"{base}/metrics?format=prometheus")
            assert status == 200
            if "repro_failover_total" in raw.decode():
                break
            assert time.monotonic() < deadline, "no failover was recorded"
            time.sleep(0.2)
        print(f"cluster-smoke OK: {checked} reads served through a "
              "SIGKILLed primary at replicas=2, zero 5xx")
    finally:
        cluster.terminate()
        cluster.wait(timeout=30)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "toy.jsonl")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "generate", "--category",
             "Toy", "--scale", "0.3", "--seed", "3", "--out", corpus],
            check=True, env=env, timeout=120,
        )

        single, single_base = boot(
            [sys.executable, "-m", "repro.cli", "serve", "--corpus", corpus,
             "--port", "0"],
            env,
        )
        cluster, cluster_base = boot(
            [sys.executable, "-m", "repro.cli", "serve", "--corpus", corpus,
             "--shards", "2", "--gateway-port", "0",
             "--state-dir", os.path.join(tmp, "cluster-state")],
            env,
        )
        try:
            mismatches = 0
            checked = 0
            for body, path in (
                ({"m": 3}, "/v1/select"),
                ({"m": 2, "mu": 0.2}, "/v1/select"),
                ({"m": 2, "k": 3}, "/v1/narrow"),
            ):
                s_status, s_payload = post(f"{single_base}{path}", body)
                c_status, c_payload = post(f"{cluster_base}{path}", body)
                assert s_status == c_status == 200, (path, s_status, c_status)
                single_result = json.dumps(s_payload["result"], sort_keys=True)
                cluster_result = json.dumps(c_payload["result"], sort_keys=True)
                checked += 1
                if single_result != cluster_result:
                    mismatches += 1
                    print(f"MISMATCH on {path} {body}")
            assert mismatches == 0, f"{mismatches}/{checked} responses differ"
            errors = error_parity(single_base, cluster_base, products(corpus)[0])

            status, raw = get_raw(f"{cluster_base}/healthz")
            health = json.loads(raw)
            assert status == 200 and health["status"] == "ok", health
            assert sorted(health["shards"]) == ["0", "1"], health

            status, raw = get_raw(f"{cluster_base}/metrics?format=prometheus")
            text = raw.decode()
            assert status == 200
            assert "repro_shard_requests_total" in text, text[:400]
            assert "# ---- shard 1 ----" in text

            print(f"cluster-smoke OK: {checked}/{checked} responses and "
                  f"{errors}/{errors} error replies byte-identical across "
                  "1-shard and 2-shard topologies")
        finally:
            for process in (cluster, single):
                process.terminate()
                process.wait(timeout=30)

        replica_failover_leg(corpus, tmp, env)
        return 0


if __name__ == "__main__":
    sys.exit(main())
