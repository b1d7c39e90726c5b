"""Deterministic chaos harness for the serving layer.

Production claims — "sheds load fast", "degrades instead of timing out",
"drains cleanly" — are only trustworthy if a test can provoke the bad
weather on demand.  This module scripts it, entirely in-process: a real
:class:`~repro.serve.http.ServingHTTPServer` on an ephemeral port, a
barrier-synchronised burst of client threads, fault-injected solver
backends (reusing the PR-1 :class:`~repro.resilience.faults.FaultSpec`
vocabulary), optional mid-flight corpus reloads, and a graceful drain
under load.  Every scenario then checks its SLOs:

* zero uncaught 500s (and zero transport errors);
* every accepted request finishes within its deadline;
* shed requests are answered 429 fast (server-side p99 < 10 ms);
* an injected failing backend trips its circuit breaker, visibly in
  ``/metrics``;
* a mid-flight reload serves every response from exactly one corpus
  generation (old or new, never a hybrid);
* a drain under load completes every in-flight request before closing.

The durability scenarios go further: a real child process killed with
SIGKILL mid-ingest, a WAL torn mid-record, a disk that refuses writes,
and a shared cache backend outage — each asserting the crash-recovery
invariants (zero acknowledged-then-lost deltas, byte-identical
post-recovery generations, zero uncaught 500s).

Scenarios are plain data (:class:`ChaosScenario` /
:class:`DurabilityScenario`), the default suite is :func:`default_suite`
plus :func:`durability_suite`, and ``python -m repro.serve.chaos`` runs
them headlessly for ``make chaos-smoke`` / CI, exiting non-zero on any
SLO violation and printing the violating scenario's seed so the run can
be replayed exactly.  ``--scenario NAME`` filters (substring match),
``--list`` enumerates.
"""

from __future__ import annotations

import argparse
import errno
import json
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.codec import review_record
from repro.data.io import save_corpus
from repro.data.models import Review
from repro.data.synthetic import generate_corpus
from repro.resilience.fallback import builtin_stage
from repro.resilience.faults import FaultSpec, InjectedFault
from repro.serve.admission import AdmissionController
from repro.serve.engine import SelectionEngine
from repro.serve.http import make_server
from repro.serve.store import ItemStore
from repro.serve.wal import WriteAheadLog

#: Statuses the serving layer is allowed to answer under chaos.
_EXPECTED_STATUSES = frozenset({200, 429, 503})


@dataclass(frozen=True)
class ChaosScenario:
    """One scripted bad-weather episode.

    ``burst`` client threads fire one request each, released together by
    a barrier against an engine whose pending queue holds
    ``max_pending`` requests — so ``burst / max_pending`` is the
    capacity multiple.  ``backend_faults`` maps fallback-stage names to
    :class:`FaultSpec` behaviours (crash / slow / hang / flaky) injected
    into the solver chain.
    """

    name: str
    burst: int = 32
    max_pending: int = 8
    workers: int = 2
    endpoint: str = "narrow"  # "narrow" | "select"
    deadline_ms: float = 10_000.0
    backend_faults: Mapping[str, FaultSpec] = field(default_factory=dict)
    expect_shed: bool = True
    reload_midway: bool = False
    drain_midway: bool = False
    shed_p99_budget_ms: float = 10.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.endpoint not in ("narrow", "select"):
            raise ValueError(f"endpoint must be narrow|select, got {self.endpoint}")
        if self.reload_midway and self.drain_midway:
            raise ValueError("pick one mid-flight action per scenario")


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """What one chaos client observed."""

    status: int  # HTTP status; -1 = transport error
    latency_ms: float
    corpus_version: str | None = None
    error: str | None = None


@dataclass
class ChaosReport:
    """Scenario outcome plus SLO verdicts."""

    scenario: str
    total: int
    ok: int
    shed: int
    unavailable: int
    transport_errors: int
    ok_p99_ms: float
    shed_server_p99_ms: float
    breaker_transitions: int
    versions: tuple[str, ...]
    drained: bool | None
    violations: list[str]
    seed: int = 7

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (
            f"[{verdict}] {self.scenario}: {self.total} offered, "
            f"{self.ok} ok, {self.shed} shed, {self.unavailable} unavailable; "
            f"ok p99 {self.ok_p99_ms:.1f} ms, "
            f"shed p99 {self.shed_server_p99_ms:.2f} ms (server), "
            f"breaker transitions {self.breaker_transitions}"
        )
        if self.drained is not None:
            line += f", drained={self.drained}"
        if not self.passed:
            # The seed is the whole reproduction recipe: corpora, jitter
            # streams, and kill points all derive from it.
            line += f"\n    replay with seed={self.seed}"
        for violation in self.violations:
            line += f"\n    SLO violation: {violation}"
        return line


class _AttemptCounter:
    """In-process attempt counts for flaky backend faults."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def next(self, key: str) -> int:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            return self._counts[key]


def faulted_stage(name: str, spec: FaultSpec, *, time_limit: float = 60.0,
                  attempts: _AttemptCounter | None = None):
    """A fallback-stage solver misbehaving per ``spec`` before delegating.

    ``crash`` raises :class:`InjectedFault` always; ``flaky`` raises for
    the first ``fail_attempts`` calls; ``slow``/``hang`` sleep
    ``seconds`` first, then solve for real.  The same :class:`FaultSpec`
    vocabulary the PR-1 selector-level injection uses, applied one layer
    down.
    """
    inner = builtin_stage(name, time_limit)
    counter = attempts or _AttemptCounter()

    def solve(weights, k, target, deadline):
        if spec.kind == "crash":
            raise InjectedFault(f"chaos: injected crash in backend {name!r}")
        if spec.kind == "flaky":
            attempt = counter.next(name)
            if attempt <= spec.fail_attempts:
                raise InjectedFault(
                    f"chaos: injected flaky failure in backend {name!r} "
                    f"(attempt {attempt})"
                )
        if spec.kind in ("slow", "hang") and spec.seconds > 0:
            time.sleep(spec.seconds)
        return inner(weights, k, target, deadline)

    return solve


def default_suite() -> tuple[ChaosScenario, ...]:
    """The scenarios ``make chaos-smoke`` and CI run."""
    return (
        ChaosScenario(
            name="1x-steady-within-capacity",
            burst=8,
            max_pending=8,
            expect_shed=False,
        ),
        ChaosScenario(
            name="16x-burst-one-failing-backend",
            burst=128,
            max_pending=8,
            backend_faults={"milp": FaultSpec(kind="crash")},
        ),
        ChaosScenario(
            name="reload-under-load",
            burst=32,
            max_pending=32,
            reload_midway=True,
            expect_shed=False,
        ),
        ChaosScenario(
            name="graceful-shutdown-under-load",
            burst=32,
            max_pending=32,
            drain_midway=True,
            expect_shed=False,
        ),
    )


def _post(base: str, path: str, body: dict, deadline_ms: float | None = None):
    headers = {"Content-Type": "application/json"}
    if deadline_ms is not None:
        headers["X-Deadline-Ms"] = str(deadline_ms)
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(body).encode(), headers=headers
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _request_body(scenario: ChaosScenario, index: int) -> dict:
    # Distinct per index so neither the result cache nor single-flight
    # absorbs the burst: mu varies the objective without invalidating
    # the store's precomputed artifacts.
    body: dict = {"m": 2, "mu": 0.1 + 0.001 * index}
    if scenario.endpoint == "narrow":
        body["k"] = 3
        body["stages"] = ["milp", "bnb", "greedy"]
    return body


def _client(
    base: str,
    scenario: ChaosScenario,
    index: int,
    barrier: threading.Barrier,
    outcomes: list[RequestOutcome | None],
) -> None:
    body = _request_body(scenario, index)
    path = f"/v1/{scenario.endpoint}"
    barrier.wait()
    begun = time.perf_counter()
    try:
        status, payload = _post(base, path, body, scenario.deadline_ms)
    except urllib.error.HTTPError as error:
        latency = (time.perf_counter() - begun) * 1e3
        error.read()  # drain the body so the connection can be reused
        outcomes[index] = RequestOutcome(status=error.code, latency_ms=latency)
        return
    except Exception as exc:
        latency = (time.perf_counter() - begun) * 1e3
        outcomes[index] = RequestOutcome(
            status=-1, latency_ms=latency, error=f"{type(exc).__name__}: {exc}"
        )
        return
    latency = (time.perf_counter() - begun) * 1e3
    version = payload.get("provenance", {}).get("corpus_version")
    outcomes[index] = RequestOutcome(
        status=status, latency_ms=latency, corpus_version=version
    )


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * (len(ordered) - 1)))]


def run_scenario(scenario: ChaosScenario) -> ChaosReport:
    """Execute one scenario against a fresh engine + real HTTP server."""
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    store = ItemStore(corpus)
    initial_version = store.version
    attempts = _AttemptCounter()
    overrides = {
        name: faulted_stage(name, spec, attempts=attempts)
        for name, spec in scenario.backend_faults.items()
    }
    engine = SelectionEngine(
        store,
        workers=scenario.workers,
        cache_size=max(16, scenario.burst),
        admission=AdmissionController(max_pending=scenario.max_pending),
        stage_solvers=overrides,
    )
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()

    outcomes: list[RequestOutcome | None] = [None] * scenario.burst
    # +1 party: the orchestrator releases the burst and then acts.
    barrier = threading.Barrier(scenario.burst + 1)
    clients = [
        threading.Thread(
            target=_client, args=(base, scenario, index, barrier, outcomes)
        )
        for index in range(scenario.burst)
    ]
    drained: bool | None = None
    reload_result: tuple[int, dict] | None = None
    new_version: str | None = None
    metrics: dict = {}
    try:
        for client in clients:
            client.start()
        barrier.wait()
        if scenario.reload_midway:
            time.sleep(0.05)  # let the burst land on the old generation
            fresh = generate_corpus("Toy", scale=0.3, seed=scenario.seed + 1)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "fresh.jsonl"
                save_corpus(fresh, path)
                reload_result = _post(base, "/v1/reload", {"path": str(path)})
            if reload_result[0] == 200:
                new_version = reload_result[1]["version"]
        elif scenario.drain_midway:
            time.sleep(0.05)  # let the burst get in flight first
            drained = engine.drain(timeout=60.0)
        for client in clients:
            client.join(timeout=120.0)
        metrics = engine.metrics.as_dict()
    finally:
        server.shutdown()
        server.server_close()
        engine.close()

    return _evaluate(
        scenario,
        [outcome for outcome in outcomes if outcome is not None],
        hanging=sum(outcome is None for outcome in outcomes),
        metrics=metrics,
        initial_version=initial_version,
        new_version=new_version,
        reload_result=reload_result,
        drained=drained,
        inflight_after=engine.admission.inflight,
    )


def _evaluate(
    scenario: ChaosScenario,
    outcomes: list[RequestOutcome],
    *,
    hanging: int,
    metrics: dict,
    initial_version: str,
    new_version: str | None,
    reload_result: tuple[int, dict] | None,
    drained: bool | None,
    inflight_after: int,
) -> ChaosReport:
    violations: list[str] = []
    ok = [outcome for outcome in outcomes if outcome.status == 200]
    shed = [outcome for outcome in outcomes if outcome.status == 429]
    unavailable = [outcome for outcome in outcomes if outcome.status == 503]
    unexpected = [
        outcome for outcome in outcomes if outcome.status not in _EXPECTED_STATUSES
    ]

    if hanging:
        violations.append(f"{hanging} client(s) never completed")
    for outcome in unexpected:
        violations.append(
            f"unexpected response status {outcome.status}"
            + (f" ({outcome.error})" if outcome.error else "")
        )
    if not ok:
        violations.append("no request was served successfully")
    over_deadline = [
        outcome for outcome in ok if outcome.latency_ms > scenario.deadline_ms
    ]
    if over_deadline:
        worst = max(outcome.latency_ms for outcome in over_deadline)
        violations.append(
            f"{len(over_deadline)} accepted request(s) exceeded their "
            f"{scenario.deadline_ms:.0f} ms deadline (worst {worst:.0f} ms)"
        )
    if scenario.expect_shed and not shed:
        violations.append("expected overload shedding but nothing was shed")
    if not scenario.expect_shed and shed:
        violations.append(f"{len(shed)} request(s) shed within capacity")

    histograms = metrics.get("histograms", {})
    shed_snapshot = histograms.get("repro_shed_latency_seconds", {})
    shed_server_p99_ms = shed_snapshot.get("p99", 0.0) * 1e3
    if shed and shed_server_p99_ms > scenario.shed_p99_budget_ms:
        violations.append(
            f"shed p99 {shed_server_p99_ms:.2f} ms exceeds the "
            f"{scenario.shed_p99_budget_ms:.0f} ms budget"
        )

    breaker_transitions = sum(
        value
        for key, value in metrics.get("counters", {}).items()
        if key.startswith("repro_breaker_transitions_total")
    )
    if scenario.backend_faults:
        faulty = sorted(scenario.backend_faults)
        if breaker_transitions < 1:
            violations.append(
                f"no breaker transition recorded for faulty backend(s) {faulty}"
            )
        gauges = metrics.get("gauges", {})
        visible = any(
            key.startswith("repro_breaker_state") and f'backend="{name}"' in key
            for key in gauges
            for name in faulty
        )
        if not visible:
            violations.append("breaker state gauges missing from /metrics")

    versions = sorted(
        {outcome.corpus_version for outcome in ok if outcome.corpus_version}
    )
    if scenario.reload_midway:
        if reload_result is None or reload_result[0] != 200:
            violations.append(f"mid-flight reload failed: {reload_result}")
        allowed = {initial_version} | ({new_version} if new_version else set())
        hybrids = [version for version in versions if version not in allowed]
        if hybrids:
            violations.append(f"responses from unknown generation(s): {hybrids}")
    if scenario.drain_midway:
        if drained is not True:
            violations.append(f"drain did not complete cleanly (drained={drained})")
        if inflight_after != 0:
            violations.append(
                f"{inflight_after} request(s) still in flight after drain"
            )

    return ChaosReport(
        scenario=scenario.name,
        total=len(outcomes) + hanging,
        ok=len(ok),
        shed=len(shed),
        unavailable=len(unavailable),
        transport_errors=len([o for o in outcomes if o.status == -1]),
        ok_p99_ms=_percentile([outcome.latency_ms for outcome in ok], 99),
        shed_server_p99_ms=shed_server_p99_ms,
        breaker_transitions=int(breaker_transitions),
        versions=tuple(versions),
        drained=drained,
        violations=violations,
        seed=scenario.seed,
    )


def run_suite(
    scenarios: tuple[ChaosScenario, ...] | None = None,
) -> list[ChaosReport]:
    """Run every scenario (fresh engine each) and collect reports."""
    return [run_scenario(scenario) for scenario in (scenarios or default_suite())]


# -- durability / crash-recovery scenarios -----------------------------------


@dataclass(frozen=True, slots=True)
class DurabilityScenario:
    """One crash-recovery episode; ``kind`` picks the fault to inject."""

    name: str
    # "kill9" | "torn-wal" | "disk-full" | "tier-outage" | "shard-kill"
    # | "replica-failover"
    kind: str
    deltas: int = 5
    seed: int = 7


@dataclass
class DurabilityReport:
    """Outcome of one durability scenario (same verdict surface)."""

    scenario: str
    seed: int
    violations: list[str]
    details: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        facts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        line = f"[{verdict}] {self.scenario}: {facts}"
        if not self.passed:
            line += f"\n    replay with seed={self.seed}"
        for violation in self.violations:
            line += f"\n    invariant violation: {violation}"
        return line


def durability_suite() -> tuple[DurabilityScenario, ...]:
    """The crash-recovery scenarios ``make recovery-smoke`` runs."""
    return (
        DurabilityScenario(name="kill9-mid-ingest", kind="kill9"),
        DurabilityScenario(name="torn-wal-write", kind="torn-wal"),
        DurabilityScenario(name="wal-disk-full", kind="disk-full"),
        DurabilityScenario(name="cache-backend-outage", kind="tier-outage"),
        DurabilityScenario(name="shard-kill-mid-burst", kind="shard-kill"),
        DurabilityScenario(
            name="replica-failover-mid-burst", kind="replica-failover"
        ),
    )


def _delta_review(index: int, product_id: str) -> Review:
    return Review(
        review_id=f"chaos-delta-{index:04d}",
        product_id=product_id,
        reviewer_id=f"chaos-user-{index:04d}",
        rating=4,
        text=f"chaos delta review {index}: solid battery and screen",
        mentions=(),
    )


def _expected_versions(corpus, acked: list[Review], inflight: Review | None):
    """Legal post-recovery versions: all acked, or acked + the in-flight
    delta (which may have reached the fsynced WAL before the kill)."""
    legal = set()
    for tail in ([], [inflight] if inflight is not None else []):
        store = ItemStore(corpus)
        for review in acked + tail:
            store.apply_delta([review])
        legal.add(store.version)
    return legal


def _run_kill9(scenario: DurabilityScenario) -> DurabilityReport:
    """SIGKILL the serving child mid-ingest; recovery must lose nothing.

    Every delta the parent saw acknowledged (HTTP 200 after the WAL
    fsync) must be present after restart; the one delta in flight at the
    kill may legally land or vanish — but nothing else may change, so
    the recovered version must be byte-identical to one of exactly two
    permitted generation fingerprints.
    """
    from repro.serve.supervisor import RestartPolicy, Supervisor

    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    products = [p.product_id for p in corpus.products]
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        supervisor = Supervisor(
            Path(tmp) / "state",
            corpus_path=corpus_path,
            policy=RestartPolicy(base_delay=0.05, max_restarts=3),
            engine_options={"workers": 2, "snapshot_every": 2},
        )
        supervisor.start()
        try:
            ready = supervisor.wait_ready()
            base = f"http://127.0.0.1:{ready['port']}"
            acked: list[Review] = []
            for index in range(scenario.deltas):
                review = _delta_review(index, products[index % len(products)])
                status, _ = _post(
                    base, "/v1/ingest", {"reviews": [review_record(review)]}
                )
                if status != 200:
                    violations.append(f"pre-kill ingest {index} answered {status}")
                acked.append(review)

            # Fire one more ingest concurrently and kill the child while
            # it is (potentially) in flight — the only legal ambiguity.
            inflight = _delta_review(scenario.deltas, products[0])
            inflight_status: list[object] = [None]

            def _racing_ingest() -> None:
                try:
                    inflight_status[0] = _post(
                        base, "/v1/ingest", {"reviews": [review_record(inflight)]}
                    )[0]
                except Exception as exc:
                    inflight_status[0] = f"{type(exc).__name__}"

            racer = threading.Thread(target=_racing_ingest)
            racer.start()
            killed_pid = supervisor.kill()
            racer.join(timeout=30.0)
            details["killed_pid"] = killed_pid
            details["inflight_status"] = inflight_status[0]

            # Wait for the supervisor to bring a recovered child back.
            recovered: dict | None = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"{base}/healthz", timeout=5
                    ) as response:
                        payload = json.loads(response.read())
                    if payload.get("recovery", {}).get("restarts", 0) >= 1:
                        recovered = payload
                        break
                except Exception:
                    time.sleep(0.1)
            if recovered is None:
                violations.append("child did not come back after SIGKILL")
            else:
                if inflight_status[0] == 200:
                    # Acked in flight: it MUST have survived; all-acked
                    # including it is the only legal generation.
                    legal = _expected_versions(corpus, acked + [inflight], None)
                else:
                    # Not acked: the record may or may not have reached
                    # the fsynced WAL before the kill — either outcome
                    # is legal, anything else is corruption/loss.
                    legal = _expected_versions(corpus, acked, inflight)
                version = recovered["corpus_version"]
                details["recovered_version"] = version
                details["recovery_mode"] = recovered["recovery"]["mode"]
                details["restarts"] = recovered["recovery"]["restarts"]
                if version not in legal:
                    violations.append(
                        f"recovered generation {version} not in the legal set "
                        f"{sorted(legal)} — an acknowledged delta was lost or "
                        "phantom state appeared"
                    )
                # The recovered child must serve: one select, no 500s.
                status, _ = _post(base, "/v1/select", {"m": 2})
                if status != 200:
                    violations.append(f"post-recovery select answered {status}")
        finally:
            supervisor.stop()
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


def _run_torn_wal(scenario: DurabilityScenario) -> DurabilityReport:
    """Tear the WAL's last record mid-write; recovery must truncate it.

    A torn tail is exactly what a power cut leaves behind: the record
    was never fsync-acknowledged, so dropping it is correct — and the
    recovered store must equal the generation of every *intact* record.
    """
    from repro.serve.snapshot import open_durable_store

    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    products = [p.product_id for p in corpus.products]
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        state = Path(tmp) / "state"
        store, wal, _, _ = open_durable_store(state, corpus_path=corpus_path)
        reviews = [
            _delta_review(i, products[i % len(products)])
            for i in range(scenario.deltas)
        ]
        for review in reviews[:-1]:
            wal.append({"kind": "delta", "reviews": [review_record(review)]})
            store.apply_delta([review])
        intact_version = store.version
        # The last delta is applied in memory but its WAL record is torn
        # mid-write — as if the process died inside write(2).
        wal.append({"kind": "delta", "reviews": [review_record(reviews[-1])]})
        wal.close()
        wal_path = state / "ingest.wal"
        torn = wal_path.read_bytes()[:-17]
        wal_path.write_bytes(torn)

        store2, wal2, _, info = open_durable_store(
            state, corpus_path=corpus_path
        )
        details["mode"] = info.mode
        details["torn_bytes"] = info.wal_torn_tail_bytes
        details["recovered_version"] = store2.version
        if info.wal_torn_tail_bytes <= 0:
            violations.append("torn WAL tail was not detected")
        if store2.version != intact_version:
            violations.append(
                f"recovered {store2.version}, expected the intact-records "
                f"generation {intact_version}"
            )
        # The log must be writable again after truncation.
        try:
            seq = wal2.append(
                {"kind": "delta", "reviews": [review_record(reviews[-1])]}
            )
            details["post_recovery_seq"] = seq
        except Exception as exc:
            violations.append(f"append after torn-tail recovery failed: {exc}")
        wal2.close()
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


def _run_disk_full(scenario: DurabilityScenario) -> DurabilityReport:
    """ENOSPC during the WAL append: 503 (never 500), state unchanged.

    The ack discipline means a delta that cannot be persisted must not
    be applied — the client sees a retryable 503 and the store stays on
    its previous generation; once space returns, ingest resumes.
    """
    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    products = [p.product_id for p in corpus.products]
    disk_full = threading.Event()

    def _maybe_fail(num_bytes: int) -> None:
        if disk_full.is_set():
            raise OSError(errno.ENOSPC, "no space left on device (injected)")

    with tempfile.TemporaryDirectory() as tmp:
        wal = WriteAheadLog(Path(tmp) / "ingest.wal", before_write=_maybe_fail)
        engine = SelectionEngine(ItemStore(corpus), workers=2, wal=wal)
        server = make_server(engine, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
        serve_thread.start()
        try:
            ok_review = _delta_review(0, products[0])
            status, _ = _post(
                base, "/v1/ingest", {"reviews": [review_record(ok_review)]}
            )
            if status != 200:
                violations.append(f"healthy-disk ingest answered {status}")
            version_before = engine.store.version

            disk_full.set()
            blocked = _delta_review(1, products[1 % len(products)])
            try:
                status, _ = _post(
                    base, "/v1/ingest", {"reviews": [review_record(blocked)]}
                )
            except urllib.error.HTTPError as error:
                status = error.code
                payload = json.loads(error.read() or b"{}")
                details["disk_full_reason"] = payload.get("reason")
                details["retry_after"] = payload.get("retry_after")
            details["disk_full_status"] = status
            if status != 503:
                violations.append(
                    f"disk-full ingest answered {status}, expected 503"
                )
            if engine.store.version != version_before:
                violations.append(
                    "a delta that failed to persist was applied anyway"
                )

            disk_full.clear()
            status, ack = _post(
                base, "/v1/ingest", {"reviews": [review_record(blocked)]}
            )
            details["healed_status"] = status
            if status != 200:
                violations.append(f"post-heal ingest answered {status}")
            else:
                details["healed_version"] = ack["version"]
            # The WAL file must still replay cleanly end to end.
            wal_stats = wal.stats()
            details["wal_records"] = wal_stats.records
            if wal_stats.records != 2:
                violations.append(
                    f"WAL holds {wal_stats.records} records, expected 2 "
                    "(the refused append must leave no partial record)"
                )
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


def _run_tier_outage(scenario: DurabilityScenario) -> DurabilityReport:
    """Shared-tier backend outage: serving degrades to local-only, no errors.

    Every request during the outage must still answer 200 (the tier is
    an optimisation, never a dependency), the tier breaker must open so
    the dead backend stops costing latency, and after the backend heals
    the breaker must close and publishing resume.
    """
    from repro.serve.breaker import CircuitBreaker
    from repro.serve.cachetier import InMemoryBackend, SharedCacheTier

    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    backend = InMemoryBackend()
    tier = SharedCacheTier(
        backend,
        breaker=CircuitBreaker(failure_threshold=2, recovery_time=0.2),
    )
    engine = SelectionEngine(ItemStore(corpus), workers=2, tier=tier)
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    try:
        backend.set_down(True)
        statuses = []
        for index in range(scenario.deltas):
            status, _ = _post(base, "/v1/select", {"m": 2, "mu": 0.1 + 0.01 * index})
            statuses.append(status)
        details["outage_statuses"] = sorted(set(statuses))
        if any(status != 200 for status in statuses):
            violations.append(
                f"requests failed during tier outage: {statuses} "
                "(the tier must never take down serving)"
            )
        mid = tier.stats()
        details["outage_errors"] = mid.errors
        details["outage_skipped"] = mid.skipped
        details["breaker_during"] = mid.breaker_state
        if mid.errors < 1:
            violations.append("no tier backend error was recorded")
        if mid.breaker_state != "open" and mid.skipped < 1:
            violations.append(
                "tier breaker neither opened nor skipped calls during outage"
            )

        backend.set_down(False)
        time.sleep(0.25)  # past the breaker's recovery window
        status, _ = _post(base, "/v1/select", {"m": 2, "mu": 0.9})
        if status != 200:
            violations.append(f"post-heal select answered {status}")
        healed = tier.stats()
        details["healed_breaker"] = healed.breaker_state
        details["healed_puts"] = healed.puts
        if healed.puts < 1:
            violations.append(
                "tier never resumed publishing after the backend healed"
            )
    finally:
        server.shutdown()
        server.server_close()
        engine.close()
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


def _run_shard_kill(scenario: DurabilityScenario) -> DurabilityReport:
    """SIGKILL one shard of a live cluster mid-burst; blast radius = one shard.

    The gateway must convert the dead shard into 503 + Retry-After for
    that shard's targets only — zero uncaught 500s, zero transport
    errors — while every other shard keeps answering 200.  The killed
    worker must then come back through its own snapshot+WAL state
    (deltas are ingested first so recovery has a WAL tail to replay)
    and serve again.
    """
    from repro.serve.cluster import ClusterConfig, ServingCluster
    from repro.serve.supervisor import RestartPolicy

    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        config = ClusterConfig(
            corpus_path=corpus_path,
            shards=2,
            state_dir=Path(tmp) / "cluster",
            engine_options={"workers": 2, "snapshot_every": 2},
            restart_policy=RestartPolicy(base_delay=0.05, max_restarts=3),
        )
        with ServingCluster(config) as cluster:
            base = cluster.base_url
            ring = cluster.ring
            assert ring is not None
            by_shard: dict[int, str] = {}
            for product in corpus.products:
                by_shard.setdefault(ring.route(product.product_id), product.product_id)
            victim_shard = min(by_shard)
            victim_target = by_shard[victim_shard]
            other_target = by_shard[max(by_shard)]

            # Ingest deltas first so the victim's restart replays a real
            # snapshot + WAL tail, not just the cold corpus.
            for index in range(scenario.deltas):
                review = _delta_review(index, victim_target)
                status, _ = _post(
                    base, "/v1/ingest", {"reviews": [review_record(review)]}
                )
                if status != 200:
                    violations.append(f"pre-kill ingest {index} answered {status}")

            # Mid-burst kill: clients hammer both shards while the
            # victim dies, and every answer must stay in the taxonomy.
            outcomes: list[tuple[str, int] | tuple[str, str]] = []
            lock = threading.Lock()
            barrier = threading.Barrier(9)  # 8 clients + the killer

            def _burst_client(index: int) -> None:
                target = victim_target if index % 2 == 0 else other_target
                barrier.wait()
                for round_ in range(6):
                    mu = 0.1 + 0.001 * (index * 10 + round_)
                    try:
                        status, _ = _post(
                            base, "/v1/select", {"target": target, "mu": mu}
                        )
                    except urllib.error.HTTPError as error:
                        error.read()
                        status = error.code
                    except Exception as exc:
                        with lock:
                            outcomes.append((target, type(exc).__name__))
                        continue
                    with lock:
                        outcomes.append((target, status))

            clients = [
                threading.Thread(target=_burst_client, args=(index,))
                for index in range(8)
            ]
            for client in clients:
                client.start()
            barrier.wait()
            time.sleep(0.05)  # let the burst land on both shards first
            details["killed_pid"] = cluster.kill_shard(victim_shard)
            for client in clients:
                client.join(timeout=120.0)

            statuses = sorted({o[1] for o in outcomes})
            details["statuses"] = statuses
            transport = [o for o in outcomes if isinstance(o[1], str)]
            if transport:
                violations.append(f"{len(transport)} transport error(s): {transport[:3]}")
            bad = [
                o for o in outcomes
                if isinstance(o[1], int) and o[1] not in _EXPECTED_STATUSES
            ]
            if bad:
                violations.append(
                    f"{len(bad)} response(s) outside {sorted(_EXPECTED_STATUSES)}: "
                    f"{sorted({o[1] for o in bad})}"
                )
            other_ok = [o for o in outcomes if o[0] == other_target and o[1] == 200]
            other_bad = [
                o for o in outcomes
                if o[0] == other_target and o[1] not in (200, 429)
            ]
            details["other_shard_ok"] = len(other_ok)
            if not other_ok:
                violations.append("the surviving shard served nothing during the kill")
            if other_bad:
                violations.append(
                    f"the surviving shard was affected by the kill: {other_bad[:3]}"
                )

            # Recovery: the victim's supervisor restarts it and the
            # gateway reconnects — same port, snapshot+WAL replay.
            recovered_status: int | None = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    recovered_status, _ = _post(
                        base, "/v1/select", {"target": victim_target, "mu": 0.9}
                    )
                except urllib.error.HTTPError as error:
                    error.read()
                    recovered_status = error.code
                except Exception:
                    recovered_status = -1
                if recovered_status == 200:
                    break
                time.sleep(0.2)
            details["post_recovery_status"] = recovered_status
            details["restarts"] = cluster.restarts()[victim_shard]
            if recovered_status != 200:
                violations.append(
                    f"killed shard never served again (last status {recovered_status})"
                )
            if cluster.restarts()[victim_shard] < 1:
                violations.append("supervisor recorded no restart for the victim")
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                health = json.loads(response.read())
            details["cluster_status"] = health["status"]
            recovery = health["shards"].get(str(victim_shard), {}).get("recovery", {})
            details["recovery_mode"] = recovery.get("mode")
            if health["status"] != "ok":
                violations.append(f"cluster health is {health['status']!r} after recovery")
            if recovery.get("restarts", 0) < 1:
                violations.append("recovered shard reports no restart in /healthz")
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


def _run_replica_failover(scenario: DurabilityScenario) -> DurabilityReport:
    """SIGKILL a primary mid-burst at replicas=2: zero 503s, hints drain.

    With every key on two shards, killing the primary of a key range
    must cost latency only: selection reads for the victim's targets
    fail over to the replica (byte-identical partition), so the burst
    observes nothing outside {200, 429}.  An ingest during the outage is
    acknowledged with the delta hinted for the dead shard; once the
    supervisor brings it back, the gateway's drain loop must empty the
    hint queue and the replica-divergence probe must report agreement.
    """
    from repro.serve.cluster import ClusterConfig, ServingCluster
    from repro.serve.supervisor import RestartPolicy

    violations: list[str] = []
    details: dict[str, object] = {}
    corpus = generate_corpus("Toy", scale=0.3, seed=scenario.seed)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        config = ClusterConfig(
            corpus_path=corpus_path,
            shards=3,
            replicas=2,
            state_dir=Path(tmp) / "cluster",
            engine_options={"workers": 2, "snapshot_every": 2},
            restart_policy=RestartPolicy(base_delay=0.05, max_restarts=3),
            jitter_seed=scenario.seed,
            hint_drain_interval=0.1,
        )
        with ServingCluster(config) as cluster:
            base = cluster.base_url
            plan = cluster.plan
            assert plan is not None
            victim_shard = plan.preference(corpus.products[0].product_id)[0]
            victim_targets = [
                product.product_id
                for product in corpus.products
                if plan.preference(product.product_id)[0] == victim_shard
            ][:4]
            details["victim_shard"] = victim_shard
            details["victim_targets"] = len(victim_targets)

            # Mid-burst kill: clients hammer the victim's keys while its
            # primary dies; every answer must come from the replica.
            outcomes: list[tuple[str, int] | tuple[str, str]] = []
            lock = threading.Lock()
            barrier = threading.Barrier(7)  # 6 clients + the killer

            def _burst_client(index: int) -> None:
                target = victim_targets[index % len(victim_targets)]
                barrier.wait()
                for round_ in range(5):
                    mu = 0.1 + 0.001 * (index * 10 + round_)
                    try:
                        status, _ = _post(
                            base, "/v1/select", {"target": target, "mu": mu}
                        )
                    except urllib.error.HTTPError as error:
                        error.read()
                        status = error.code
                    except Exception as exc:
                        with lock:
                            outcomes.append((target, type(exc).__name__))
                        continue
                    with lock:
                        outcomes.append((target, status))

            clients = [
                threading.Thread(target=_burst_client, args=(index,))
                for index in range(6)
            ]
            for client in clients:
                client.start()
            barrier.wait()
            time.sleep(0.05)  # let the burst land on the primary first
            details["killed_pid"] = cluster.kill_shard(victim_shard)

            # Ingest against a victim-owned product while its primary is
            # down: the live replica acks, the dead shard gets a hint.
            hint_review = _delta_review(9000, victim_targets[0])
            try:
                ingest_status, ack = _post(
                    base, "/v1/ingest",
                    {"reviews": [review_record(hint_review)]},
                )
            except urllib.error.HTTPError as error:
                ingest_status = error.code
                ack = json.loads(error.read() or b"{}")
            details["outage_ingest_status"] = ingest_status
            details["hinted"] = ack.get("hinted")
            if ingest_status != 200:
                violations.append(
                    f"ingest during the outage answered {ingest_status}, "
                    "expected 200 with a hint for the dead shard"
                )
            elif not ack.get("hinted"):
                # The supervisor may already have the shard back — then
                # no hint was needed and that is legal; only complain if
                # it was provably down and still no hint was queued.
                details["hinted"] = "none (shard already recovered)"

            for client in clients:
                client.join(timeout=120.0)

            transport = [o for o in outcomes if isinstance(o[1], str)]
            if transport:
                violations.append(
                    f"{len(transport)} transport error(s): {transport[:3]}"
                )
            statuses = sorted(
                {o[1] for o in outcomes if isinstance(o[1], int)}
            )
            details["statuses"] = statuses
            bad = [
                o for o in outcomes
                if isinstance(o[1], int) and o[1] not in (200, 429)
            ]
            if bad:
                violations.append(
                    f"{len(bad)} victim-key response(s) outside {{200, 429}} "
                    f"during the kill: {sorted({o[1] for o in bad})} — "
                    "failover must hide a dead primary"
                )

            # Recovery: the hint queue must drain to the restarted shard.
            deadline = time.monotonic() + 60.0
            depths = cluster.hint_depths()
            while time.monotonic() < deadline:
                depths = cluster.hint_depths()
                if not depths and cluster.restarts()[victim_shard] >= 1:
                    break
                time.sleep(0.2)
            details["hint_depths_after"] = dict(depths)
            details["restarts"] = cluster.restarts()[victim_shard]
            if depths:
                violations.append(
                    f"hint queue never drained after recovery: {depths}"
                )
            if cluster.restarts()[victim_shard] < 1:
                violations.append("supervisor recorded no restart for the victim")

            # Convergence: the replica group must agree on the hinted
            # product (the divergence counter the tests pin at zero).
            probe = cluster.check_replicas(victim_targets[0])
            details["diverged"] = probe["diverged"]
            if probe["diverged"]:
                violations.append(
                    f"replicas diverged after drain: {probe['replicas']}"
                )
            replica_states = [
                ids for ids in probe["replicas"].values() if ids is not None
            ]
            if len(replica_states) < 2:
                violations.append(
                    "fewer than 2 replicas answered the divergence probe"
                )
            elif ingest_status == 200 and not any(
                hint_review.review_id in ids for ids in replica_states
            ):
                violations.append(
                    "the acknowledged outage delta is missing from every replica"
                )
    return DurabilityReport(
        scenario=scenario.name, seed=scenario.seed,
        violations=violations, details=details,
    )


_DURABILITY_RUNNERS = {
    "kill9": _run_kill9,
    "torn-wal": _run_torn_wal,
    "disk-full": _run_disk_full,
    "tier-outage": _run_tier_outage,
    "shard-kill": _run_shard_kill,
    "replica-failover": _run_replica_failover,
}


def run_durability_scenario(scenario: DurabilityScenario) -> DurabilityReport:
    """Execute one crash-recovery scenario in isolation."""
    runner = _DURABILITY_RUNNERS.get(scenario.kind)
    if runner is None:
        raise ValueError(
            f"unknown durability scenario kind {scenario.kind!r}; "
            f"one of {sorted(_DURABILITY_RUNNERS)}"
        )
    return runner(scenario)


def run_durability_suite(
    scenarios: tuple[DurabilityScenario, ...] | None = None,
) -> list[DurabilityReport]:
    """Run every durability scenario and collect reports."""
    return [
        run_durability_scenario(scenario)
        for scenario in (scenarios or durability_suite())
    ]


def all_scenarios() -> list[ChaosScenario | DurabilityScenario]:
    """Every scenario both suites know, for ``--list`` and filtering."""
    return list(default_suite()) + list(durability_suite())


def main(argv: list[str] | None = None) -> int:
    """Headless entry point for ``make chaos-smoke`` / ``make recovery-smoke``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Run the serving chaos + crash-recovery suites.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run only scenarios whose name contains NAME (repeatable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenario names and exit"
    )
    parser.add_argument(
        "--suite",
        choices=("all", "load", "durability"),
        default="all",
        help="which suite to draw scenarios from (default: all)",
    )
    args = parser.parse_args(argv)

    if args.suite == "load":
        scenarios: list = list(default_suite())
    elif args.suite == "durability":
        scenarios = list(durability_suite())
    else:
        scenarios = all_scenarios()
    if args.scenario:
        wanted = [needle.lower() for needle in args.scenario]
        scenarios = [
            scenario
            for scenario in scenarios
            if any(needle in scenario.name.lower() for needle in wanted)
        ]
        if not scenarios:
            print(f"no scenario matches {args.scenario}", flush=True)
            return 2
    if args.list:
        for scenario in scenarios:
            kind = "durability" if isinstance(scenario, DurabilityScenario) else "load"
            print(f"{scenario.name}  [{kind}, seed={scenario.seed}]")
        return 0

    reports: list[ChaosReport | DurabilityReport] = []
    for scenario in scenarios:
        if isinstance(scenario, DurabilityScenario):
            report: ChaosReport | DurabilityReport = run_durability_scenario(
                scenario
            )
        else:
            report = run_scenario(scenario)
        print(report.summary(), flush=True)
        reports.append(report)
    failed = [report for report in reports if not report.passed]
    print(
        f"chaos: {len(reports) - len(failed)}/{len(reports)} scenarios passed",
        flush=True,
    )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised by make chaos-smoke
    raise SystemExit(main())
