"""Process supervision: crash detection and snapshot+WAL restarts.

Durability is only as good as what happens *after* the crash.  The WAL
and snapshots (:mod:`repro.serve.wal`, :mod:`repro.serve.snapshot`)
guarantee the state survives; :class:`Supervisor` closes the loop by
running the serving engine in a **child process**, watching for its
death, and restarting it through the durable-open recovery path — so a
``kill -9`` mid-ingest becomes a bounded blip, not an outage.

The division of labour:

* the child (:func:`_child_main`, through :func:`serve_child`) opens
  the durable store (snapshot load + WAL replay), builds a
  :class:`~repro.serve.engine.SelectionEngine`, reports its bound port
  and recovery provenance back over a pipe, and serves until killed;
* the parent keeps almost no state — the durable truth lives on disk —
  just the restart count (stamped into each child's recovery provenance,
  surfaced at ``/healthz``) and the first child's bound port, which every
  restart re-binds so clients reconnect to the same address.

Restarts are paced by :class:`RestartPolicy` (exponential backoff with a
cap, optional restart budget) so a persistently crashing child cannot
spin the host.  The chaos harness drives this module directly: it kills
the child with SIGKILL at adversarial moments and asserts the recovered
generation is byte-identical and that no acknowledged delta was lost.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path


class SupervisorError(RuntimeError):
    """The supervised child could not be started or restarted."""


@dataclass(frozen=True, slots=True)
class RestartPolicy:
    """Exponential backoff between restarts, with an optional budget.

    ``delay(attempt)`` for attempt 1, 2, 3... is ``base_delay * 2**(n-1)``
    capped at ``max_delay``.  ``max_restarts=None`` restarts forever —
    the right default for a durable server; chaos tests set a budget so a
    broken recovery path fails the run instead of looping.
    """

    base_delay: float = 0.1
    max_delay: float = 5.0
    max_restarts: int | None = None

    def delay(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))

    def exhausted(self, restarts: int) -> bool:
        return self.max_restarts is not None and restarts >= self.max_restarts


def serve_child(conn, build_engine, make_server) -> None:
    """Run one supervised child: build, report readiness, serve.

    Resets the parent's signal handlers, builds the engine with
    ``build_engine()`` and its server with ``make_server(engine)``, and
    reports ``{"port", "version", "recovery"}`` — or ``{"error"}`` — over
    ``conn``.  Then serves until stopped: SIGTERM drains the engine for
    up to 10 s and shuts the server down.
    """
    # The parent's signal handlers must not leak into the child.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        engine = build_engine()
        server = make_server(engine)
    except Exception as exc:
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            conn.close()
        raise
    recovery = engine.recovery.as_dict() if engine.recovery else None
    conn.send(
        {
            "port": server.server_address[1],
            "version": engine.store.version,
            "recovery": recovery,
        }
    )
    conn.close()

    def _terminate(signum, frame) -> None:
        # Graceful stop for supervisor-initiated shutdown: drain, then
        # let serve_forever unwind.
        threading.Thread(
            target=lambda: (engine.drain(10.0), server.shutdown()),
            name="repro-child-drain",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def _child_main(
    state_dir: str,
    corpus_path: str | None,
    host: str,
    port: int,
    restarts: int,
    options: dict,
    conn,
) -> None:
    """Child entry point: recover, serve, report readiness over ``conn``."""
    from repro.serve.engine import build_durable_engine
    from repro.serve.http import make_server

    serve_child(
        conn,
        lambda: build_durable_engine(
            state_dir, corpus_path=corpus_path, restarts=restarts, **options
        ),
        lambda engine: make_server(engine, host, port),
    )


class Supervisor:
    """Runs the engine in a child process and restarts it on crash.

    The public surface is deliberately small: :meth:`start`,
    :meth:`stop`, :meth:`kill` (chaos: SIGKILL the child),
    :meth:`wait_ready` and :meth:`status`.  The parent never touches the
    WAL or snapshots — recovery correctness is entirely the durable
    open's job, which is what makes killing the child at any instant a
    safe experiment.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        corpus_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: RestartPolicy | None = None,
        ready_timeout: float = 60.0,
        engine_options: dict | None = None,
        child_main=None,
    ) -> None:
        self.state_dir = str(state_dir)
        self.corpus_path = None if corpus_path is None else str(corpus_path)
        self.host = host
        self._requested_port = port
        self.policy = policy or RestartPolicy()
        self.ready_timeout = ready_timeout
        self.engine_options = dict(engine_options or {})
        # The child entry point is injectable so other serving shapes —
        # the cluster's framed-socket shard workers — reuse the crash
        # watcher, backoff policy, and same-port rebind unchanged.  Any
        # replacement must honour the same contract: serve on
        # (host, port), send {"port", "version", "recovery"} or
        # {"error": ...} over the pipe, and exit on SIGTERM.
        self.child_main = child_main if child_main is not None else _child_main
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._process: multiprocessing.Process | None = None
        self._watcher: threading.Thread | None = None
        self._stopping = threading.Event()
        self._ready = threading.Event()
        self._port: int | None = None
        self._restarts = 0
        self._last_ready: dict | None = None
        self._failure: str | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch the child and the crash watcher (idempotent)."""
        with self._lock:
            if self._process is not None and self._process.is_alive():
                return
            self._stopping.clear()
            self._spawn_locked()
            if self._watcher is None or not self._watcher.is_alive():
                self._watcher = threading.Thread(
                    target=self._watch, name="repro-supervisor", daemon=True
                )
                self._watcher.start()

    def _spawn_locked(self) -> None:
        """Start one child; caller holds the lock."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        port = self._port if self._port is not None else self._requested_port
        process = self._ctx.Process(
            target=self.child_main,
            args=(
                self.state_dir,
                self.corpus_path,
                self.host,
                port,
                self._restarts,
                self.engine_options,
                child_conn,
            ),
            name="repro-serve-child",
            daemon=True,
        )
        self._ready.clear()
        self._failure = None
        process.start()
        child_conn.close()
        self._process = process

        def _await_ready() -> None:
            message: dict | None = None
            if parent_conn.poll(self.ready_timeout):
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    message = None
            parent_conn.close()
            if message is None:
                self._failure = "child did not report ready"
            elif "error" in message:
                self._failure = str(message["error"])
            else:
                self._port = int(message["port"])
                self._last_ready = message
            self._ready.set()

        threading.Thread(
            target=_await_ready, name="repro-supervisor-ready", daemon=True
        ).start()

    def wait_ready(self, timeout: float | None = None) -> dict:
        """Block until the current child is serving; returns its report."""
        if not self._ready.wait(
            timeout if timeout is not None else self.ready_timeout + 5.0
        ):
            raise SupervisorError("timed out waiting for the child to start")
        if self._failure is not None:
            raise SupervisorError(self._failure)
        assert self._last_ready is not None
        return dict(self._last_ready)

    def _watch(self) -> None:
        """Restart loop: join the child, back off, respawn."""
        while not self._stopping.is_set():
            with self._lock:
                process = self._process
            if process is None:
                return
            process.join()
            if self._stopping.is_set():
                return
            # The dead child's readiness report is stale the instant it
            # exits; clear it *before* publishing the restart count so a
            # wait_ready() racing the respawn blocks for the new child
            # instead of returning the old report.
            self._ready.clear()
            self._restarts += 1
            if self.policy.exhausted(self._restarts):
                self._failure = (
                    f"restart budget exhausted after {self._restarts} restarts"
                )
                self._ready.set()
                return
            time.sleep(self.policy.delay(self._restarts))
            if self._stopping.is_set():
                return
            with self._lock:
                self._spawn_locked()

    def stop(self, timeout: float = 15.0) -> None:
        """Terminate the child gracefully; escalate to SIGKILL on a hang."""
        self._stopping.set()
        with self._lock:
            process = self._process
            self._process = None
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung drain
                process.kill()
                process.join(5.0)
        watcher = self._watcher
        if watcher is not None and watcher is not threading.current_thread():
            watcher.join(timeout)
        self._watcher = None

    def kill(self) -> int:
        """SIGKILL the child (chaos path); returns the killed pid."""
        with self._lock:
            process = self._process
        if process is None or process.pid is None or not process.is_alive():
            raise SupervisorError("no live child to kill")
        os.kill(process.pid, signal.SIGKILL)
        return process.pid

    # -- introspection -------------------------------------------------------

    @property
    def port(self) -> int | None:
        return self._port

    @property
    def restarts(self) -> int:
        return self._restarts

    def is_alive(self) -> bool:
        with self._lock:
            process = self._process
        return process is not None and process.is_alive()

    def status(self) -> dict:
        with self._lock:
            process = self._process
        return {
            "running": process is not None and process.is_alive(),
            "pid": process.pid if process is not None else None,
            "port": self._port,
            "restarts": self._restarts,
            "last_ready": dict(self._last_ready) if self._last_ready else None,
            "failure": self._failure,
        }

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
