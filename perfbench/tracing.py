"""Spans around the calls into each layer's public functions.

Traced runs only.  :meth:`Tracer.install` replaces each listed function
or method with a wrapper that records a span (name, start, end, parent,
operation id) while an operation is tagged; :meth:`Tracer.uninstall`
puts the originals back.  The program's own code is not modified.  The load
generators keep one operation in flight while tracing, so a span's
parent is the innermost open span on the tracer's one stack, even when
the child runs on the engine's worker pool thread.

A layer's self time is its span minus the time covered by its child
spans; :func:`layer_totals` sums self times by layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path

#: (module, attribute path, layer): every public entry point timed.
#: Functions imported by name into another module are patched there too.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.admission", "AdmissionController.admit", "serve.admission.admit"),
    ("repro.serve.cache", "ResultCache.get_or_compute", "serve.cache.lookup"),
    ("repro.serve.store", "ItemStore.artifacts", "serve.store.artifacts"),
    ("repro.serve.store", "ItemStore.apply_delta", "serve.store.apply_delta"),
    ("repro.serve.wal", "WriteAheadLog.append", "serve.wal.append"),
    ("repro.serve.snapshot", "SnapshotManager.save", "serve.snapshot.save"),
    ("repro.serve.snapshot", "open_durable_store", "serve.snapshot.recover"),
    ("repro.data.corpus", "Corpus.with_appended_reviews", "data.corpus.append"),
    ("repro.core.compare_sets", "CompareSetsSelector.select", "core.compare_sets.select"),
    ("repro.core.compare_sets_plus", "CompareSetsPlusSelector.select",
     "core.compare_sets_plus.select"),
    ("repro.core.baselines", "RandomSelector.select", "core.baselines.select"),
    ("repro.core.baselines", "CrsSelector.select", "core.baselines.select"),
    ("repro.core.baselines", "GreedySelector.select", "core.baselines.select"),
    ("repro.graph.similarity", "build_item_graph", "graph.similarity.build"),
    ("repro.serve.engine", "build_item_graph", "graph.similarity.build"),
    ("repro.resilience.fallback", "FallbackChain.solve", "resilience.fallback.solve"),
    ("repro.eval.alignment", "AlignmentScorer.score_both", "eval.alignment.score"),
    ("repro.eval.alignment", "rouge_pair_grid", "text.rouge_kernel.grid"),
    ("repro.data.synthetic", "generate_corpus", "data.synthetic.generate"),
    ("repro.eval.runner", "generate_corpus", "data.synthetic.generate"),
    ("repro.data.instances", "build_instance", "data.instances.build"),
    ("repro.serve.store", "build_instance", "data.instances.build"),
)

#: Selector layers: their results carry the kernel's per-stage timings.
SELECT_LAYERS = frozenset(
    {"core.compare_sets.select", "core.compare_sets_plus.select", "core.baselines.select"}
)

HANDLER_LAYER = "serve.http.handler"
OP_HEADER = "X-Bench-Op"


class Tracer:
    """In-memory span store; spans are recorded only while an op is tagged."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # [name, start, end, parent index, op id, data]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op: object = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int | None:
        op = self.op
        if op is None:
            return None
        with self._lock:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, op, None])
            self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int, data: object = None) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span[2] = end
            span[5] = data
            for position in range(len(self._stack) - 1, -1, -1):
                if self._stack[position] == index:
                    del self._stack[position]
                    break

    def wrap(self, fn: Callable, name: str) -> Callable:
        keep_timings = name in SELECT_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            if index is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                timings = getattr(result, "timings", None) if keep_timings else None
                self._close(index, dict(timings) if timings else None)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name))

    def install(self) -> None:
        for module_name, path, name in SPANS:
            owner: object = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.patch(owner, attribute, name)

    def install_handler(self) -> None:
        """Time ``ServeHandler.do_POST``, tagged with the client's op id."""
        from repro.serve.http import ServeHandler

        original = ServeHandler.do_POST
        traced = self.wrap(original, HANDLER_LAYER)
        tracer = self

        @functools.wraps(original)
        def do_post(handler) -> None:
            op = handler.headers.get(OP_HEADER)
            if op is None:
                return original(handler)
            tracer.op = op
            try:
                return traced(handler)
            finally:
                tracer.op = None

        self._undo.append((ServeHandler, "do_POST", original))
        ServeHandler.do_POST = do_post

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans once, at the end of the run."""
        with self._lock:
            spans = list(self.spans)
        Path(path).write_text(json.dumps(spans))


def load_spans(path: Path) -> list[list]:
    return json.loads(Path(path).read_text())


def layer_totals(spans: list[list], ops: Iterable[object]) -> tuple[dict, dict, list[dict]]:
    """Self seconds and call counts per layer over the spans of ``ops``.

    Also returns the kernel stage timings of every outermost selector
    span (a CompaReSetS+ solve runs a nested CompaReSetS one whose
    timings are already inside the outer result's).
    """
    wanted = set(ops)
    covered = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    self_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    stage_timings: list[dict] = []
    for index, (name, start, end, parent, op, data) in enumerate(spans):
        if op not in wanted:
            continue
        self_seconds[name] += max(0.0, (end - start) - covered[index])
        calls[name] += 1
        if data and (parent < 0 or spans[parent][0] not in SELECT_LAYERS):
            stage_timings.append(data)
    return dict(self_seconds), dict(calls), stage_timings


def handler_seconds(spans: list[list]) -> dict[str, float]:
    """Inclusive ``do_POST`` time per op id (server-side time of a request)."""
    return {
        span[4]: span[2] - span[1] for span in spans if span[0] == HANDLER_LAYER
    }


#: Every per-layer metric of a traced run: (name, unit, better).  Times
#: are self times per measured operation, except the set-up ones (per
#: set-up); counts are totals over the traced phase unless the README
#: marks them per delta.  Layers a workload does not exercise read 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("serve.http.handler_ms", "ms", "lower"),
    ("serve.http.wire_ms", "ms", "lower"),
    ("serve.http.reply_bytes", "bytes", "lower"),
    ("serve.cluster.hop_ms", "ms", "lower"),
    ("serve.engine.wall_ms", "ms", "lower"),
    ("serve.admission.admit_us", "us", "lower"),
    ("serve.cache.lookup_us", "us", "lower"),
    ("serve.cache.hits", "count", "higher"),
    ("serve.cache.misses", "count", "lower"),
    ("serve.cache.evicted", "count", "lower"),
    ("serve.store.artifacts_us", "us", "lower"),
    ("serve.store.apply_delta_ms", "ms", "lower"),
    ("serve.store.patch_ms", "ms", "lower"),
    ("serve.store.patched", "count", "higher"),
    ("serve.store.rebuilt", "count", "lower"),
    ("serve.wal.append_ms", "ms", "lower"),
    ("serve.snapshot.save_ms", "ms", "lower"),
    ("serve.snapshot.saves", "count", "lower"),
    ("serve.snapshot.recover_s", "s", "lower"),
    ("data.corpus.append_ms", "ms", "lower"),
    ("core.omp_kernel.dedup_ms", "ms", "lower"),
    ("core.omp_kernel.gram_ms", "ms", "lower"),
    ("core.omp_kernel.screen_ms", "ms", "lower"),
    ("core.omp_kernel.pursuit_ms", "ms", "lower"),
    ("core.omp_kernel.round_ms", "ms", "lower"),
    ("core.omp_kernel.evaluate_ms", "ms", "lower"),
    ("core.compare_sets.select_ms", "ms", "lower"),
    ("core.compare_sets_plus.select_ms", "ms", "lower"),
    ("core.baselines.select_ms", "ms", "lower"),
    ("graph.similarity.build_ms", "ms", "lower"),
    ("resilience.fallback.solve_ms", "ms", "lower"),
    ("eval.alignment.score_ms", "ms", "lower"),
    ("text.rouge_kernel.grid_ms", "ms", "lower"),
    ("data.synthetic.generate_s", "s", "lower"),
    ("data.instances.build_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Span layer -> (metric, scale from seconds), per measured operation.
_OP_SPANS = {
    HANDLER_LAYER: ("serve.http.handler_ms", 1e3),
    "serve.admission.admit": ("serve.admission.admit_us", 1e6),
    "serve.cache.lookup": ("serve.cache.lookup_us", 1e6),
    "serve.store.artifacts": ("serve.store.artifacts_us", 1e6),
    "serve.store.apply_delta": ("serve.store.apply_delta_ms", 1e3),
    "serve.wal.append": ("serve.wal.append_ms", 1e3),
    "serve.snapshot.save": ("serve.snapshot.save_ms", 1e3),
    "data.corpus.append": ("data.corpus.append_ms", 1e3),
    "core.compare_sets.select": ("core.compare_sets.select_ms", 1e3),
    "core.compare_sets_plus.select": ("core.compare_sets_plus.select_ms", 1e3),
    "core.baselines.select": ("core.baselines.select_ms", 1e3),
    "graph.similarity.build": ("graph.similarity.build_ms", 1e3),
    "resilience.fallback.solve": ("resilience.fallback.solve_ms", 1e3),
    "eval.alignment.score": ("eval.alignment.score_ms", 1e3),
    "text.rouge_kernel.grid": ("text.rouge_kernel.grid_ms", 1e3),
}

#: Span layer -> metric, in seconds per set-up.
_SETUP_SPANS = {
    "serve.snapshot.recover": "serve.snapshot.recover_s",
    "data.synthetic.generate": "data.synthetic.generate_s",
    "data.instances.build": "data.instances.build_s",
}

STAGES = ("dedup", "gram", "screen", "pursuit", "round", "evaluate")


def per_layer(spans: list[list], ops: Iterable[object], *, operations: int | None = None,
              extra: dict[str, float] | None = None) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans of ``ops`` plus ``extra``.

    Times are divided by ``operations`` (default: one per op id).
    ``extra`` carries what the workload takes from the program's replies
    (provenance, ingest acks, cache counters) and the tracing overhead.
    Traced runs set up once, so set-up spans are reported as they are.
    """
    ops = list(ops)
    count = max(1, operations if operations is not None else len(ops))
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    self_seconds, calls, stage_timings = layer_totals(spans, ops)
    for layer, seconds in self_seconds.items():
        if layer in _OP_SPANS:
            metric, scale = _OP_SPANS[layer]
            values[metric] = seconds * scale / count
    values["serve.snapshot.saves"] = float(calls.get("serve.snapshot.save", 0))
    for timings in stage_timings:
        for stage in STAGES:
            values[f"core.omp_kernel.{stage}_ms"] += timings.get(stage, 0.0) / count
    setup_seconds, _, _ = layer_totals(spans, ["setup"])
    for layer, metric in _SETUP_SPANS.items():
        values[metric] = setup_seconds.get(layer, 0.0)
    values.update(extra or {})
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Median latency added by the wrappers, as a share of the untraced one."""
    import statistics

    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base * 100.0


def traced_setup(tracer: Tracer, build: Callable[[], object]) -> object:
    """Run one set-up with spans tagged ``"setup"``, then unwrap again."""
    tracer.install()
    tracer.op = "setup"
    try:
        return build()
    finally:
        tracer.op = None
        tracer.uninstall()


def ab_phases(tracer: Tracer, closed: Callable, seconds: float):
    """An untraced closed loop, then a traced one of equal length.

    ``closed(seconds, on_op)`` runs a closed loop and returns its
    :class:`~perfbench.harness.Closed`.  Returns both halves' latencies,
    the traced half's records and its operation ids.
    """
    base = closed(seconds / 2, None).latencies
    offset = len(base)

    def tag(index: int | None) -> None:
        tracer.op = None if index is None else offset + index

    tracer.install()
    try:
        traced, records = closed(seconds / 2, tag)[:2]
    finally:
        tracer.op = None
        tracer.uninstall()
    return base, traced, records, [offset + index for index in range(len(records))]
