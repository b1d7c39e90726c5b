"""Plumbing shared by the workloads: environment, inputs, load loops, output.

Every workload runs in a fresh process started by ``run.py``.  It sets
itself up several times (reporting the median set-up time), measures a
closed loop with one caller and an open loop on a fixed arrival
schedule, checks the program's outputs outside every timed window, and
prints one JSON result line.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import platform
import resource
import signal
import subprocess
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from perfbench import PINNED_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of every run (corpus files, durable state, span dumps);
#: each run works in its own subdirectory and removes it on exit.
WORK = ROOT / ".perfbench"

#: Corpora (category, scale, generator seed), fixed across benchmark
#: seeds so that every seed poses the same amount of work; the benchmark
#: seed draws the request streams and deltas.
READ_CORPUS = ("Cellphone", 0.5, 7)
SOLVE_CORPUS = ("Clothing", 0.5, 7)
INGEST_CORPUS = ("Cellphone", 1.0, 7)
MAX_COMPARISONS = 10
MIN_REVIEWS = 3
LAM = 1.0
MU = 0.1
SCHEME = "binary"

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def setup_repeats(args) -> int:
    """Set-ups per run: several for a steady median, one in short runs."""
    return 1 if args.short else SETUP_REPEATS


class CheckFailed(AssertionError):
    """A correctness check on the program's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def pinned_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def canonical(payload: object) -> bytes:
    """Canonical JSON (sorted keys, no whitespace), as the server encodes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# -- environment --------------------------------------------------------------


def effective_cpus() -> float:
    """CPUs this process may use: the cgroup quota when set, else the count."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if quota != "max":
            return float(quota) / float(period)
    except (OSError, ValueError):
        pass
    return float(len(os.sched_getaffinity(0)))


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy without mode="dicts"
        return "unknown"


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's sources: its identity when git is absent."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, kind = mount, fields[2]
    except (OSError, IndexError):
        pass
    return kind


def environment() -> dict[str, object]:
    return {
        "effective_cpus": effective_cpus(),
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "state_filesystem": _filesystem(WORK),
    }


# -- inputs ---------------------------------------------------------------------


def make_corpus(spec: tuple[str, float, int]):
    """Generate a corpus (through the module, so spans see it)."""
    from repro.data import synthetic

    category, scale, seed = spec
    return synthetic.generate_corpus(category, scale=scale, seed=seed)


def viable_targets(corpus) -> list[str]:
    """Product ids that anchor a servable instance, in corpus order."""
    from repro.data import instances

    return [
        product.product_id
        for product in corpus.products
        if instances.build_instance(
            corpus, product.product_id,
            max_comparisons=MAX_COMPARISONS, min_reviews=MIN_REVIEWS,
        )
        is not None
    ]


def select_body(target: str, m: int, algorithm: str) -> dict[str, object]:
    """A select request with every field explicit, so checks can replay it."""
    return {
        "target": target,
        "m": m,
        "lam": LAM,
        "mu": MU,
        "scheme": SCHEME,
        "algorithm": algorithm,
        "max_comparisons": MAX_COMPARISONS,
        "min_reviews": MIN_REVIEWS,
    }


def spread(items: Sequence, count: int) -> list:
    """``count`` evenly spaced members of ``items``, in order (fixed across seeds)."""
    size = len(items)
    count = min(count, size)
    return [items[(2 * i + 1) * size // (2 * count)] for i in range(count)]


def passes(rng: np.random.Generator, items: Sequence) -> Iterator:
    """Endless seeded passes over ``items``, each pass a fresh permutation.

    Any whole number of passes holds every item equally often, so runs
    that measure whole passes pose the same work whatever the seed.
    """
    while True:
        for index in rng.permutation(len(items)).tolist():
            yield items[index]


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float,
                    multiple: int = 1) -> np.ndarray:
    """Send times of a Poisson process at ``rate`` for about ``seconds``.

    The arrival count is ``rate * seconds`` rounded to a whole multiple
    of ``multiple`` (at least one multiple), so an open loop serves
    whole passes of its workload's mix and the number of samples beyond
    the tail percentile is fixed.  Conditioned on its count, a Poisson
    process on [0, T) places its arrivals as sorted uniform draws; T is
    the count over the rate, which keeps the rate exact.
    """
    count = max(1, int(round(rate * seconds / multiple))) * multiple
    return np.sort(rng.uniform(0.0, count / rate, size=count))


# -- statistics -------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, read from /proc."""
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        found.append(current)
        try:
            tasks = Path(f"/proc/{current}/task").iterdir()
            for task in tasks:
                text = (task / "children").read_text().split()
                frontier.extend(int(child) for child in text)
        except OSError:
            continue
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


# -- set-up ---------------------------------------------------------------------------


def repeated_setup(build: Callable[[int], object], teardown: Callable[[object], None],
                   repeats: int) -> tuple[object, list[float]]:
    """Run ``build`` ``repeats`` times, keeping only the last result.

    Each earlier result is torn down before the next build starts, so
    set-ups never overlap and peak memory reflects one of them.
    """
    durations: list[float] = []
    kept = None
    for attempt in range(repeats):
        if kept is not None:
            teardown(kept)
            kept = None
            gc.collect()
        began = time.perf_counter()
        kept = build(attempt)
        durations.append(time.perf_counter() - began)
    return kept, durations


# -- load loops ---------------------------------------------------------------------


class Closed(NamedTuple):
    """What a closed loop measured."""

    latencies: list[float]
    records: list[object]
    elapsed: float

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / self.elapsed


def closed_loop(call: Callable[[object], object], requests: Iterator[object],
                seconds: float, *, on_op: Callable[[int | None], None] | None = None,
                multiple: int = 1) -> Closed:
    """One caller: send the next request only after the previous reply.

    Runs for ``seconds``, then on to a whole multiple of ``multiple``
    requests (a round), so the loop serves whole rounds of its mix.
    Returns per-request latencies (s), the records ``call`` returned and
    the elapsed time.  ``on_op`` is told the index of each request before
    it is sent and ``None`` after its reply (the traced runs tag spans
    with it).
    """
    latencies: list[float] = []
    records: list[object] = []
    began = time.perf_counter()
    stop = began + seconds
    for index, request in enumerate(requests):
        if on_op is not None:
            on_op(index)
        sent = time.perf_counter()
        record = call(request)
        done = time.perf_counter()
        if on_op is not None:
            on_op(None)
        latencies.append(done - sent)
        records.append(record)
        if done >= stop and len(records) % multiple == 0:
            break
    return Closed(latencies, records, time.perf_counter() - began)


def open_loop(callers: Sequence[Callable[[object], object]], requests: Sequence[object],
              offsets: Sequence[float], *, spin: bool = False
              ) -> tuple[list[float], list[float], list[object]]:
    """Send ``requests[i]`` at ``offsets[i]`` seconds, whatever the replies do.

    Each caller (one connection, or one in-process caller thread) takes
    the next due request when it is free, so a request waits while every
    caller is busy.  Latency counts from the intended send time, which
    charges a stall to every request it delays; lateness is how far
    behind schedule each request was actually sent.  ``spin`` (one
    caller only) busy-waits for each send time instead of sleeping, so
    the CPU never idles between requests and a request does not also
    time the host waking an idle CPU.
    """
    if spin and len(callers) != 1:
        raise ValueError("spin needs exactly one caller")
    count = len(offsets)
    latencies = [0.0] * count
    lateness = [0.0] * count
    records: list[object] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.05

    def drive(call: Callable[[object], object]) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count or errors:
                    return
                cursor[0] += 1
            due = start + offsets[index]
            if spin:
                while time.perf_counter() < due:
                    pass
            else:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            try:
                records[index] = call(requests[index])
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return
            latencies[index] = time.perf_counter() - due
            lateness[index] = sent - due

    threads = [
        threading.Thread(target=drive, args=(call,), name=f"perfbench-caller-{i}")
        for i, call in enumerate(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return latencies, lateness, records


def run_parallel(jobs: Sequence[Callable[[], object]]) -> list[object]:
    """Run each job on its own thread; return their results in order."""
    results: list[object] = [None] * len(jobs)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            results[index] = jobs[index]()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def summary_ms(seconds: Sequence[float]) -> dict[str, float]:
    """Median, p90, p99 and maximum of a latency sample, in ms."""
    return {
        name: round(value * 1e3, 3)
        for name, value in (
            ("p50", median(seconds)),
            ("p90", percentile(seconds, 90.0)),
            ("p99", percentile(seconds, 99.0)),
            ("max", max(seconds)),
        )
    }


def open_detail(rate: float, callers: int, latencies: Sequence[float],
                lateness: Sequence[float], tail: float) -> dict[str, object]:
    """What the detail line records about an open-loop phase."""
    return {
        "rate_per_s": rate,
        "callers": callers,
        "requests": len(latencies),
        "tail_percentile": tail,
        "latency_ms": summary_ms(latencies),
        "generator_late_ms": summary_ms(lateness),
    }


# -- HTTP --------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def post(self, path: str, body: bytes, headers: dict[str, str] | None = None
             ) -> tuple[int, bytes]:
        sent_headers = {"Content-Type": "application/json"}
        sent_headers.update(headers or {})
        self._conn.request("POST", path, body=body, headers=sent_headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


class ServerProcess:
    """A serving process started for the run, stopped with everything it forked."""

    def __init__(self, argv: Sequence[str], log_path: Path,
                 env: dict[str, str] | None = None) -> None:
        self.log_path = log_path
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            list(argv), stdout=self._log, stderr=subprocess.STDOUT,
            env=env or pinned_env(), cwd=str(ROOT), start_new_session=True,
        )
        self.host, self.port = self._wait_ready()

    def _wait_ready(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    host, port = line[len("serving on http://"):].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        log = self.log_path.read_text(errors="replace")[-2000:]
        self.stop()
        raise RuntimeError(f"server did not start: {log}")

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, wait, then SIGKILL the process group and any stragglers."""
        tree = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_group(self.proc.pid)
                self.proc.wait(timeout)
        deadline = time.monotonic() + timeout
        for pid in tree[1:]:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                    deadline = time.monotonic() + timeout
                time.sleep(0.01)
        self._log.close()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper has ended)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("State:"):
                return "Z" not in line.split()[1]
    except OSError:
        return False
    return False


# -- output ----------------------------------------------------------------------------


def emit(*, correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]], detail: dict[str, object]) -> None:
    """Print the detail line, then the result line the driver parses."""
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def end_to_end(*, setup: Sequence[float], ops_per_s: float, p50_ms: float, tail_ms: float,
               read_mean_ms: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every untraced run reports, with units."""
    return {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "p50_ms": (p50_ms, "ms"),
        "tail_ms": (tail_ms, "ms"),
        "read_mean_ms": (read_mean_ms, "ms"),
        "rss_mb": (rss_mb, "MiB"),
    }
