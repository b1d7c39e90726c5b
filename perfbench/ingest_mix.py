"""``ingest_mix``: durable review deltas beside the reads they invalidate.

An in-process engine from :func:`~repro.serve.engine.build_durable_engine`
(WAL fsync on, the default snapshot cadence of one per 32 deltas) serves
a warm set of read targets.  Each cycle ingests a few reviews for one
product, then reads targets whose instance holds that product.  The new
reviews copy that product's existing mention patterns, so the cached
artifacts take the bordered-Gram patch path, and the reads miss the
cache and re-solve on the patched artifacts.  A round is one cycle per
product of a fixed pool of 32, in a fixed order, so each round holds
exactly one inline snapshot and every round poses the same work; the
seed draws the reviews each delta copies and the open loop's arrivals.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import harness
from perfbench.harness import check
from perfbench.tracing import Tracer, ab_phases, overhead_pct, per_layer, traced_setup

#: Every fourth viable target, fixed across seeds.
READ_STRIDE = 4
READ_M = 5
READ_ALGORITHM = "CompaReSetS+"
DELTA_REVIEWS = 2
READS_PER_CYCLE = 2
#: Share of ``--seconds`` for the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.5
#: The engine's default snapshot cadence, and the size of the product
#: pool: both loops run whole rounds of one cycle per pool product, so
#: each round holds exactly one inline snapshot.  The pool and its order
#: are fixed across seeds (evenly spaced over the products the read
#: targets' instances hold).  A read re-solves only the items whose
#: products changed since that target's last read, so the order sets the
#: work per read: with a seeded order per round, the median read moved
#: by a fifth between seeds.
SNAPSHOT_EVERY = 32
#: Open loop, run first so it always starts from the set-up state: acks
#: alone at 12 deltas/s from one caller, three rounds (96 acks) in a
#: 14 s run.  A snapshot written inside an ack stalls the ack path for
#: 75-300 ms, depending on the host's speed, and delays the acks due
#: meanwhile: at most (1 + 12 x 0.3) of every 32, 14%.  p75 sits
#: clearly below that boundary, with 24 samples beyond it (p80 caught
#: the acks queued behind a snapshot in some runs and not in others).
OPEN_RATE = 12.0
TAIL_PERCENTILE = 75.0


@dataclass
class Durable:
    engine: object
    state_dir: Path
    corpus_path: Path
    corpus: object
    bodies: dict[str, dict]
    holders: dict[str, list[str]]
    pool: list[str]
    acked: list[list[dict]] = field(default_factory=list)
    acks: list[dict] = field(default_factory=list)
    touched: set[str] = field(default_factory=set)


class IngestMixWorkload:
    def __init__(self, args, run_dir: Path) -> None:
        self.args = args
        self.run_dir = run_dir

    # -- set-up ------------------------------------------------------------

    def build(self, attempt: int = 0) -> Durable:
        """Generate the corpus, open the durable state, warm the read set."""
        from repro.data.io import save_corpus
        from repro.serve.engine import SelectRequest, build_durable_engine

        corpus = harness.make_corpus(harness.INGEST_CORPUS)
        home = self.run_dir / f"ingest-{attempt}"
        home.mkdir()
        corpus_path = home / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        engine = build_durable_engine(home / "state", corpus_path=corpus_path)
        bodies = {
            target: harness.select_body(target, READ_M, READ_ALGORITHM)
            for target in harness.viable_targets(corpus)[::READ_STRIDE]
        }
        holders: dict[str, list[str]] = {}
        for target, body in bodies.items():
            response = engine.select(SelectRequest(**body))
            for item in response.result["items"]:
                holders.setdefault(item["product_id"], []).append(target)
        return Durable(engine, home / "state", corpus_path, corpus, bodies, holders,
                       harness.spread(sorted(holders), SNAPSHOT_EVERY))

    @staticmethod
    def close(durable: Durable) -> None:
        durable.engine.close()

    # -- load --------------------------------------------------------------

    def cycles(self, durable: Durable, rng: np.random.Generator):
        """Endless seeded cycles: (delta records, read targets).

        The products come in rounds, one pass over the pool each, in
        pool order.  Each cycle copies seeded picks of the product's
        reviews and reads the product's first holders.
        """
        from repro.serve.wal import review_record

        for number, product in enumerate(itertools.cycle(durable.pool)):
            sources = durable.corpus.reviews_of(product)
            records = []
            for j in range(DELTA_REVIEWS):
                source = sources[int(rng.integers(len(sources)))]
                record = review_record(source)
                record["review_id"] = f"perfbench-{number}-{j}"
                records.append(record)
            yield records, durable.holders[product][:READS_PER_CYCLE]

    @staticmethod
    def _ingest(durable: Durable, records: list[dict]) -> dict:
        ack = durable.engine.ingest_reviews(records)
        durable.acked.append(records)
        durable.acks.append(ack)
        return ack

    def _cycle_caller(self, durable: Durable, read_latencies: list[float]):
        """Ingest, then read; the op's latency is the ack's."""
        from repro.serve.engine import SelectRequest

        def call(cycle):
            records, readers = cycle
            began = time.perf_counter()
            ack = self._ingest(durable, records)
            ack_latency = time.perf_counter() - began
            reads = []
            for target in readers:
                started = time.perf_counter()
                reads.append(durable.engine.select(SelectRequest(**durable.bodies[target])))
                read_latencies.append(time.perf_counter() - started)
                durable.touched.add(target)
            return ack_latency, ack, reads

        return call

    def run(self) -> dict:
        seconds = self.args.seconds
        rng = np.random.default_rng([self.args.seed, 5])
        if self.args.trace:
            return self._traced(rng, seconds)
        durable, setup = harness.repeated_setup(
            self.build, self.close, harness.setup_repeats(self.args)
        )
        stream = self.cycles(durable, rng)
        reads: list[float] = []
        closed_s = seconds * CLOSED_SHARE
        offsets = harness.poisson_offsets(
            rng, OPEN_RATE, seconds - closed_s, multiple=SNAPSHOT_EVERY
        )
        deltas = [next(stream)[0] for _ in offsets]
        open_latencies, lateness, opened = harness.open_loop(
            [lambda records: self._ingest(durable, records)], deltas, offsets, spin=True
        )
        # One untimed round of cycles after the open loop's unread deltas,
        # so the timed reads start where every later round is: each read
        # re-solves what one round of deltas changed.
        warm = self._cycle_caller(durable, [])
        for _ in range(SNAPSHOT_EVERY):
            warm(next(stream))
        loop = harness.closed_loop(
            self._cycle_caller(durable, reads), stream, closed_s, multiple=SNAPSHOT_EVERY
        )
        closed = loop.records
        rss = harness.own_peak_rss_mb()
        self._check(durable)
        ack_latencies = [latency for latency, _, _ in closed]
        return {
            "attempted": len(closed) + len(opened),
            "failed": 0,
            "metrics": harness.end_to_end(
                setup=setup,
                ops_per_s=loop.ops_per_s,
                p50_ms=harness.median(ack_latencies) * 1e3,
                tail_ms=harness.percentile(open_latencies, TAIL_PERCENTILE) * 1e3,
                read_mean_ms=float(np.mean(reads)) * 1e3,
                rss_mb=rss,
            ),
            "detail": {
                "setup_s": setup,
                "closed": {"cycles": len(closed), "reads": len(reads), "seconds": loop.elapsed},
                "open": harness.open_detail(
                    OPEN_RATE, 1, open_latencies, lateness, TAIL_PERCENTILE
                ),
                "deltas": len(durable.acks),
            },
        }

    def _traced(self, rng, seconds: float) -> dict:
        tracer = Tracer()
        durable = traced_setup(tracer, self.build)
        stream = self.cycles(durable, rng)
        reads: list[float] = []
        call = self._cycle_caller(durable, reads)

        def closed(span, on_op):
            return harness.closed_loop(call, stream, span, on_op=on_op,
                                       multiple=SNAPSHOT_EVERY)

        base, traced, records, ops = ab_phases(tracer, closed, seconds)
        self._check(durable)
        acks = [ack for _, ack, _ in records]
        replies = [reply for _, _, cycle_reads in records for reply in cycle_reads]
        extra = {
            "serve.engine.wall_ms": float(np.mean([r.provenance.wall_ms for r in replies])),
            "serve.cache.hits": float(sum(r.provenance.cache == "hit" for r in replies)),
            "serve.cache.misses": float(sum(r.provenance.cache == "miss" for r in replies)),
            "serve.cache.evicted": float(np.mean([a["cache_evicted"] for a in acks])),
            "serve.store.patch_ms": float(np.mean(
                [a["stage_ms"]["artifact_patch"] for a in acks]
            )),
            "serve.store.patched": float(np.mean([a["artifacts"]["patched"] for a in acks])),
            "serve.store.rebuilt": float(np.mean([a["artifacts"]["rebuilt"] for a in acks])),
            "trace.overhead_pct": overhead_pct(base, traced),
        }
        return {
            "attempted": len(base) + len(records),
            "failed": 0,
            "metrics": per_layer(tracer.spans, ops, extra=extra),
            "detail": {
                "untraced_cycles": len(base),
                "traced_cycles": len(records),
                "untraced_p50_ms": harness.median(base) * 1e3,
                "traced_p50_ms": harness.median(traced) * 1e3,
            },
        }

    # -- checks ------------------------------------------------------------

    def _check(self, durable: Durable) -> None:
        """Patched, never rebuilt; a cold store over the initial corpus plus
        every acked delta answers like the live engine; reopening the state
        recovers the live version."""
        from repro.data.corpus import Corpus
        from repro.serve.engine import SelectionEngine, SelectRequest
        from repro.serve.snapshot import open_durable_store
        from repro.serve.store import ItemStore
        from repro.serve.wal import review_from_record

        for ack in durable.acks:
            check(ack["artifacts"]["rebuilt"] == 0, f"delta rebuilt artifacts: {ack}")
            check(ack["artifacts"]["verify_failures"] == 0, f"patch verify failed: {ack}")
        added = [review_from_record(r) for records in durable.acked for r in records]
        initial = durable.corpus
        cold = SelectionEngine(ItemStore(
            Corpus(initial.name, initial.products, [*initial.reviews, *added])
        ))
        try:
            for target in sorted(durable.touched):
                request = SelectRequest(**durable.bodies[target])
                live = harness.canonical(durable.engine.select(request).result)
                fresh = harness.canonical(cold.select(request).result)
                check(live == fresh, f"{target}: live engine differs from a cold rebuild")
        finally:
            cold.close()
        version = durable.engine.store.version
        durable.engine.close()
        store, wal, _, info = open_durable_store(
            durable.state_dir, corpus_path=durable.corpus_path
        )
        wal.close()
        check(store.version == version,
              f"recovered {store.version} ({info.mode}), live was {version}")

