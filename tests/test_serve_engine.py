"""Tests for the in-process SelectionEngine."""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.problem import SelectionConfig
from repro.core.selection import make_selector
from repro.data.instances import build_instance
from repro.data.synthetic import generate_corpus
from repro.graph import similarity
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.serve import engine as engine_module
from repro.serve.engine import (
    EngineClosed,
    InvalidRequest,
    NarrowRequest,
    SelectionEngine,
    SelectRequest,
    selection_payload,
)
from repro.serve.store import ItemStore, UnknownTargetError


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus("Toy", scale=0.3, seed=3)


@pytest.fixture(scope="module")
def store(corpus):
    return ItemStore(corpus)


@pytest.fixture()
def engine(store):
    engine = SelectionEngine(store, workers=2)
    yield engine
    engine.close()


class TestValidation:
    def test_bad_m(self):
        with pytest.raises(InvalidRequest):
            SelectRequest(m=0).validated()

    def test_bad_scheme(self):
        with pytest.raises(InvalidRequest, match="unknown scheme"):
            SelectRequest(scheme="quaternary").validated()

    def test_bad_algorithm(self):
        with pytest.raises(InvalidRequest, match="unknown algorithm"):
            SelectRequest(algorithm="Oracle").validated()

    def test_brute_force_algorithm_is_not_served(self):
        with pytest.raises(InvalidRequest, match="unservable algorithm") as caught:
            SelectRequest(algorithm="CompaReSetS_Exhaustive").validated()
        assert "'CompaReSetS'" in str(caught.value)
        assert "CompaReSetS_Exhaustive'; one of" in str(caught.value)
        with pytest.raises(InvalidRequest, match="unservable algorithm"):
            NarrowRequest(algorithm="CompaReSetS_Exhaustive").validated()

    def test_engine_refuses_brute_force_before_solving(self, engine):
        with pytest.raises(InvalidRequest, match="unservable algorithm"):
            engine.select(algorithm="CompaReSetS_Exhaustive", m=10)

    def test_bad_k(self):
        with pytest.raises(InvalidRequest):
            NarrowRequest(k=0).validated()

    def test_unknown_target(self, engine):
        with pytest.raises(UnknownTargetError):
            engine.select(target="GHOST")


class TestSelect:
    def test_matches_offline_selector(self, engine, corpus):
        """The engine result equals the offline CompareSetsSelector's."""
        response = engine.select(m=3, algorithm="CompaReSetS")
        instance = build_instance(
            corpus, response.result["target"], max_comparisons=10, min_reviews=3
        )
        offline = make_selector("CompaReSetS").select(
            instance, SelectionConfig(max_reviews=3, lam=1.0, mu=0.1)
        )
        assert response.result == selection_payload(offline)

    def test_cache_hit_on_repeat(self, engine):
        first = engine.select(m=2)
        second = engine.select(m=2)
        assert first.provenance.cache in ("miss", "hit")  # module-shared store
        assert second.provenance.cache == "hit"
        assert second.result == first.result
        assert second.provenance.backend == "CompaReSetS+"
        assert second.provenance.corpus_version == engine.store.version

    def test_warm_hit_is_fast(self, engine):
        engine.select(m=2)
        response = engine.select(m=2)
        assert response.provenance.cache == "hit"
        assert response.provenance.wall_ms < 10.0

    def test_distinct_params_are_distinct_entries(self, engine):
        a = engine.select(m=2, algorithm="Random")
        b = engine.select(m=3, algorithm="Random")
        assert a.provenance.cache == "miss" or b.provenance.cache == "miss"
        assert engine.select(m=2, algorithm="Random").provenance.cache == "hit"
        assert engine.select(m=3, algorithm="Random").provenance.cache == "hit"

    def test_select_plus_pins_algorithm(self, engine):
        response = engine.select_plus(m=2, algorithm="Random")
        assert response.result["algorithm"] == "CompaReSetS+"
        assert response.provenance.backend == "CompaReSetS+"

    def test_request_object_and_kwargs_are_exclusive(self, engine):
        with pytest.raises(TypeError):
            engine.select(SelectRequest(), m=2)

    def test_explicit_target(self, engine, store):
        target = store.default_target(10, 3)
        response = engine.select(target=target, m=2)
        assert response.result["target"] == target


class TestNarrow:
    def test_narrow_provenance(self, engine):
        response = engine.narrow(m=2, k=3)
        assert response.provenance.backend == "bnb"
        assert response.provenance.proven_optimal is True
        assert response.provenance.fallback_depth == 0
        assert response.result["k"] <= 3
        assert len(response.result["core_product_ids"]) == response.result["k"]
        assert response.result["selection"]["target"] == response.result["core_product_ids"][0]

    def test_narrow_fallback_provenance(self, engine):
        """A failing first stage shows up as depth 1 + degraded."""

        def broken(weights, k, target, deadline):
            raise RuntimeError("no solver here")

        response = engine.narrow(
            NarrowRequest(m=2, k=3, stages=(("broken", broken), "greedy"))
        )
        assert response.provenance.backend == "greedy"
        assert response.provenance.fallback_depth == 1
        assert response.provenance.degraded is True
        assert response.result["attempts"][0]["status"] == "error"

    def test_narrow_cached(self, engine):
        first = engine.narrow(m=2, k=2)
        second = engine.narrow(m=2, k=2)
        assert second.provenance.cache == "hit"
        assert second.result == first.result

    @pytest.mark.parametrize("k", [2, 4])
    def test_reply_does_not_depend_on_the_exact_stage(self, engine, k):
        bnb = engine.narrow(NarrowRequest(m=2, k=k, stages=("bnb", "greedy")))
        milp = engine.narrow(NarrowRequest(m=2, k=k, stages=("milp", "greedy")))
        assert (bnb.provenance.backend, milp.provenance.backend) == ("bnb", "milp")
        assert bnb.provenance.proven_optimal and milp.provenance.proven_optimal
        for field in ("core_product_ids", "selection"):
            assert bnb.result[field] == milp.result[field]
        assert bnb.result["weight"].hex() == milp.result["weight"].hex()

    def test_non_finite_graph_is_refused_before_the_chain(
        self, engine, monkeypatch
    ):
        def poisoned(result, config, space=None):
            graph = similarity.build_item_graph(result, config, space=space)
            graph.weights[0, 1] = graph.weights[1, 0] = np.nan
            return graph

        monkeypatch.setattr(engine_module, "build_item_graph", poisoned)
        # More refusals than any breaker's failure threshold.
        for attempt in range(5):
            with pytest.raises(InvalidRequest, match="non-finite"):
                engine.narrow(m=2, k=3, mu=0.37 + 0.01 * attempt)
        assert engine.breakers.open_backends() == ()
        assert engine.health.state() == "healthy"


class _FinishedFirst:
    """A worker pool whose every solve is done before the caller waits."""

    def __init__(self) -> None:
        self.solves = 0

    def submit(self, fn, *args) -> Future:
        self.solves += 1
        future: Future = Future()
        future.set_result(fn(*args))
        return future


class TestDeadlines:
    def test_expired_deadline_maps_to_deadline_exceeded(self, store):
        engine = SelectionEngine(store, cache_size=4, workers=1)
        try:
            with pytest.raises(DeadlineExceeded):
                engine.select(
                    SelectRequest(m=6, algorithm="CompaReSetS+"),
                    deadline=Deadline.after(0.0),
                )
        finally:
            engine.close()

    def test_ambient_deadline_scope_is_honoured(self, store):
        engine = SelectionEngine(store, cache_size=4, workers=1)
        try:
            with deadline_scope(0.0):
                with pytest.raises(DeadlineExceeded):
                    engine.select(SelectRequest(m=5, algorithm="CompaReSetS"))
        finally:
            engine.close()

    def test_expired_deadline_never_starts_a_solve(self, store):
        """A solve that would finish before the 0 s wait must not start."""
        engine = SelectionEngine(store, cache_size=4, workers=1)
        pool, engine._pool = engine._pool, _FinishedFirst()
        try:
            engine.select(SelectRequest(m=3))  # a warm store: one solve
            for i in range(50):
                # A new mu each time: a cache miss, never a cached hit.
                with deadline_scope(0.0):
                    with pytest.raises(DeadlineExceeded):
                        engine.select(SelectRequest(m=3, mu=0.2 + i / 1000))
            assert engine._pool.solves == 1
        finally:
            engine._pool = pool
            engine.close()

    def test_expired_deadline_never_joins_a_batch(self, store):
        engine = SelectionEngine(
            store, cache_size=4, workers=1, batch_window=0.002
        )
        try:
            engine.select(SelectRequest(m=3))
            for i in range(50):
                with deadline_scope(0.0):
                    with pytest.raises(DeadlineExceeded):
                        engine.select(SelectRequest(m=3, mu=0.2 + i / 1000))
            assert engine.batcher.stats().submitted == 1
        finally:
            engine.close()

    def test_cached_after_deadline_miss_still_unsolved(self, store):
        """A timed-out request does not poison the cache."""
        engine = SelectionEngine(store, cache_size=4, workers=1)
        try:
            with pytest.raises(DeadlineExceeded):
                engine.select(SelectRequest(m=4), deadline=Deadline.after(0.0))
            response = engine.select(SelectRequest(m=4))
            assert response.result["selections"]
        finally:
            engine.close()


class TestConcurrency:
    def test_identical_concurrent_requests_solve_once(self, store):
        engine = SelectionEngine(store, cache_size=16, workers=4)
        try:
            responses = []
            lock = threading.Lock()

            def worker():
                response = engine.select(m=5, algorithm="CompaReSetS+")
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

            assert len(responses) == 6
            payloads = {tuple(map(tuple, r.result["selections"])) for r in responses}
            assert len(payloads) == 1
            stats = engine.cache.stats()
            assert stats.misses == 1, "single-flight must collapse to one solve"
            assert stats.hits + stats.coalesced == 5
        finally:
            engine.close()


class TestBatching:
    def test_same_target_requests_batch(self, store):
        engine = SelectionEngine(
            store, cache_size=16, workers=4, batch_window=0.1, batch_max=4
        )
        try:
            barrier = threading.Barrier(3, timeout=10.0)
            responses = {}

            def worker(m):
                barrier.wait()
                responses[m] = engine.select(m=m, algorithm="CompaReSetS")

            threads = [
                threading.Thread(target=worker, args=(m,)) for m in (1, 2, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

            assert set(responses) == {1, 2, 3}
            for m, response in responses.items():
                assert all(
                    len(s) <= m for s in response.result["selections"]
                )
            stats = engine.batcher.stats()
            assert stats.submitted == 3
            assert stats.batches < 3, "same-target requests must share a batch"
        finally:
            engine.close()

    def test_cross_request_batching_provenance_and_gauges(self, store):
        """Distinct-target requests (different m, mixed batchable
        algorithms) of one generation coalesce into a GEMM-stacked group
        and say so in their provenance and the /metrics gauges."""
        engine = SelectionEngine(
            store, cache_size=16, workers=4, batch_window=0.5, batch_max=4
        )
        solo = SelectionEngine(store, cache_size=16, workers=1)
        jobs = [(1, "CompaReSetS"), (3, "CompaReSetS"), (2, "CompaReSetS+")]
        try:
            barrier = threading.Barrier(len(jobs), timeout=10.0)
            responses = {}

            def worker(m, algorithm):
                barrier.wait()
                responses[(m, algorithm)] = engine.select(m=m, algorithm=algorithm)

            threads = [
                threading.Thread(target=worker, args=job) for job in jobs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

            assert set(responses) == set(jobs)
            stats = engine.batcher.stats()
            assert stats.submitted == len(jobs)
            assert stats.batches < len(jobs), "requests must share a batch"

            # Batched solves are byte-identical to solo solves.
            for (m, algorithm), response in responses.items():
                reference = solo.select(m=m, algorithm=algorithm)
                assert response.result["selections"] == reference.result["selections"]

            batched = [
                response
                for response in responses.values()
                if response.provenance.batch_size is not None
                and response.provenance.batch_size >= 2
            ]
            assert batched, "no response recorded GEMM-stacked provenance"
            for response in batched:
                provenance = response.provenance
                assert provenance.batched_with == provenance.batch_size - 1
                payload = provenance.as_dict()
                assert payload["batch_size"] == provenance.batch_size
                assert payload["batched_with"] == provenance.batched_with

            gauges = engine.metrics.as_dict()["gauges"]
            assert gauges["repro_batch_submitted"] == len(jobs)
            assert gauges["repro_batch_batches"] == stats.batches
            assert gauges["repro_batch_batched_requests"] == stats.batched_requests
            assert gauges["repro_batch_largest"] >= 2
            assert gauges["repro_batch_amortisation"] > 1.0
        finally:
            engine.close()
            solo.close()


class TestLifecycle:
    def test_closed_engine_rejects_requests(self, store):
        engine = SelectionEngine(store, workers=1)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.select(m=2)

    def test_metrics_populated(self, store):
        engine = SelectionEngine(store, workers=1)
        try:
            engine.select(m=2)
            engine.select(m=2)
            payload = engine.metrics.as_dict()
            assert payload["counters"]['repro_requests_total{endpoint="select"}'] == 2
            assert payload["gauges"]["repro_cache_hit_ratio"] > 0
            latency = payload["histograms"][
                'repro_request_latency_seconds{endpoint="select"}'
            ]
            assert latency["count"] == 2
        finally:
            engine.close()
