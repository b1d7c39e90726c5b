"""``miss_solve``: in-process select and narrow requests that all miss.

An in-process :class:`~repro.serve.engine.SelectionEngine` (default
settings) serves a store whose artifacts -- instances, dedup groups,
Gram blocks and the CompaReSetS+ sync blocks for the request ``mu`` --
are built at set-up.  The requests mix CompaReSetS and CompaReSetS+ at
m = 3/5/10 over a fixed sample of viable targets, plus one ``narrow``
(k = 3) per target.  They come in rounds: each round asks every
(target, kind) once, and starts from an emptied result cache and cold
solve memos, so every request misses and solves from the warm
artifacts: the kernel does most of the work, the front end and the
cache almost none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perfbench import harness, reference
from perfbench.harness import check
from perfbench.tracing import Tracer, ab_phases, overhead_pct, per_layer, traced_setup

BUDGETS = (3, 5, 10)
ALGORITHMS = ("CompaReSetS", "CompaReSetS+")
NARROW_M = 3
NARROW_K = 3
#: Evenly spaced viable targets, the same for every seed: a round is
#: 10 x 7 = 70 requests, so every run serves whole rounds of one mix.
TARGETS = 10
#: Share of ``--seconds`` for the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.4
#: Open loop: 14 requests/s from one caller, against 55-150 requests/s
#: closed-loop capacity today; two rounds (140 arrivals, 14 beyond p90)
#: in a 14 s run.
OPEN_RATE = 14.0
TAIL_PERCENTILE = 90.0
#: Select replies compared with the nnls reference, and narrow replies
#: whose optimality is re-proved by enumeration, per run.
SELECT_SAMPLE = 8
NARROW_SAMPLE = 8


@dataclass
class Served:
    engine: object
    targets: list[str]


#: The seven request kinds, in the order each target is asked them:
#: (endpoint, algorithm, budget).
KINDS = tuple(
    ("select", algorithm, m) for algorithm in ALGORITHMS for m in BUDGETS
) + (("narrow", "CompaReSetS+", NARROW_M),)


def request_stream(targets: list[str], rng: np.random.Generator):
    """Endless rounds of ``(first, endpoint, body)``; ``first`` opens a round.

    A round walks the targets in seeded order and asks each target every
    kind once, in the order of :data:`KINDS`, before moving on, as a
    client comparing the two algorithms would (the kernel's solve memo
    then shares the CompaReSetS solve of one target and budget with
    CompaReSetS+).  Every round is the same multiset of requests, so
    whole rounds pose the same work whatever the seed.
    """
    while True:
        for number, target in enumerate(rng.permutation(targets).tolist()):
            for position, (endpoint, algorithm, m) in enumerate(KINDS):
                body = harness.select_body(target, m, algorithm)
                if endpoint == "narrow":
                    body["k"] = NARROW_K
                yield number == 0 and position == 0, endpoint, body


def cold_start(engine) -> None:
    """Empty the result cache and every solve memo; keep the artifacts."""
    engine.cache.clear()
    for _, artifacts in engine.store.export_artifacts():
        for solver in artifacts.solver:
            solver.clear_solve_cache()


class MissSolveWorkload:
    def __init__(self, args, run_dir) -> None:
        self.args = args

    def build(self, attempt: int = 0) -> Served:
        """Generate the corpus and build the sampled targets' artifacts."""
        from repro.core.problem import SelectionConfig
        from repro.core.vectors import OpinionScheme
        from repro.serve.engine import SelectionEngine
        from repro.serve.store import ItemStore

        corpus = harness.make_corpus(harness.SOLVE_CORPUS)
        store = ItemStore(corpus)
        targets = harness.spread(harness.viable_targets(corpus), TARGETS)
        config = SelectionConfig(
            lam=harness.LAM, mu=harness.MU, scheme=OpinionScheme(harness.SCHEME)
        )
        for target in targets:
            artifacts = store.artifacts(
                target, config,
                max_comparisons=harness.MAX_COMPARISONS, min_reviews=harness.MIN_REVIEWS,
            )
            for solver in artifacts.solver:
                for block in (solver.base_block(), solver.plus_block(harness.MU)):
                    block.gram_op
                    block.gram_asp
        return Served(SelectionEngine(store), targets)

    @staticmethod
    def close(served: Served) -> None:
        served.engine.close()

    @staticmethod
    def _caller(engine):
        """Send one request; the first of a round empties the caches first."""
        from repro.serve.engine import NarrowRequest, SelectRequest

        def call(request):
            first, kind, body = request
            if first:
                cold_start(engine)
            if kind == "select":
                return kind, body, engine.select(SelectRequest(**body))
            return kind, body, engine.narrow(NarrowRequest(**body))

        return call

    def run(self) -> dict:
        seconds = self.args.seconds
        rng = np.random.default_rng([self.args.seed, 3])
        if self.args.trace:
            return self._traced(rng, seconds)
        served, setup = harness.repeated_setup(
            self.build, self.close, harness.setup_repeats(self.args)
        )
        size = len(served.targets) * len(KINDS)
        try:
            stream = request_stream(served.targets, rng)
            call = self._caller(served.engine)
            closed_s = seconds * CLOSED_SHARE
            loop = harness.closed_loop(call, stream, closed_s, multiple=size)
            offsets = harness.poisson_offsets(rng, OPEN_RATE, seconds - closed_s, multiple=size)
            requests = [next(stream) for _ in offsets]
            open_latencies, lateness, opened = harness.open_loop(
                [call], requests, offsets, spin=True
            )
            rss = harness.own_peak_rss_mb()
            closed = loop.records
            self._check(served, closed + opened)
        finally:
            self.close(served)
        reads = [lat for lat, (kind, _, _) in zip(loop.latencies, closed) if kind == "select"]
        return {
            "attempted": len(closed) + len(opened),
            "failed": 0,
            "metrics": harness.end_to_end(
                setup=setup,
                ops_per_s=loop.ops_per_s,
                p50_ms=harness.median(loop.latencies) * 1e3,
                tail_ms=harness.percentile(open_latencies, TAIL_PERCENTILE) * 1e3,
                read_mean_ms=float(np.mean(reads)) * 1e3,
                rss_mb=rss,
            ),
            "detail": {
                "setup_s": setup,
                "targets": len(served.targets),
                "closed": {"requests": len(closed), "seconds": loop.elapsed, "callers": 1},
                "open": harness.open_detail(
                    OPEN_RATE, 1, open_latencies, lateness, TAIL_PERCENTILE
                ),
            },
        }

    def _traced(self, rng, seconds: float) -> dict:
        tracer = Tracer()
        served = traced_setup(tracer, self.build)
        try:
            stream = request_stream(served.targets, rng)
            call = self._caller(served.engine)
            cache = served.engine.cache
            records_seen: list = []
            counts: dict[str, int] = {}

            def closed(span, on_op):
                before = cache.stats()
                loop = harness.closed_loop(
                    call, stream, span, on_op=on_op,
                    multiple=len(served.targets) * len(KINDS),
                )
                after = cache.stats()
                counts["hits"] = after.hits - before.hits
                counts["misses"] = after.misses - before.misses
                records_seen.extend(loop.records)
                return loop

            base, traced, records, ops = ab_phases(tracer, closed, seconds)
            self._check(served, records_seen)
        finally:
            self.close(served)
        extra = {
            "serve.engine.wall_ms": float(np.mean(
                [response.provenance.wall_ms for _, _, response in records]
            )),
            "serve.cache.hits": float(counts["hits"]),
            "serve.cache.misses": float(counts["misses"]),
            "trace.overhead_pct": overhead_pct(base, traced),
        }
        return {
            "attempted": len(base) + len(records),
            "failed": 0,
            "metrics": per_layer(tracer.spans, ops, extra=extra),
            "detail": {
                "untraced_requests": len(base),
                "traced_requests": len(records),
                "untraced_p50_ms": harness.median(base) * 1e3,
                "traced_p50_ms": harness.median(traced) * 1e3,
            },
        }

    @staticmethod
    def _check(served: Served, records) -> None:
        """Every reply missed the cache; a fixed sample of select replies
        equals the nnls reference; narrow replies are well formed, and
        proven-optimal ones are optimal by enumeration."""
        corpus = served.engine.store.corpus
        for kind, body, response in records:
            check(response.provenance.cache == "miss",
                  f"{kind} {body} answered from the cache ({response.provenance.cache})")
        selects = [(body, response) for kind, body, response in records if kind == "select"]
        narrows = [(body, response) for kind, body, response in records if kind == "narrow"]
        for body, response in selects[:: max(1, len(selects) // SELECT_SAMPLE)][:SELECT_SAMPLE]:
            reference.check_select(corpus, body, response.result)
        for position, (body, response) in enumerate(narrows):
            proven = bool(response.provenance.proven_optimal) and position < NARROW_SAMPLE
            reference.check_narrow(corpus, body, response.result, proven)
