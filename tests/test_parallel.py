"""Tests for the parallel instance runner."""

import multiprocessing

import pytest

from repro.core.selection import make_selector
from repro.eval import parallel
from repro.eval.parallel import select_parallel


class TestSelectParallel:
    def test_matches_sequential_for_deterministic_selector(self, instances, config):
        sequential = [
            make_selector("CompaReSetS").select(inst, config) for inst in instances[:4]
        ]
        parallel = select_parallel(
            "CompaReSetS", instances[:4], config, max_workers=2
        )
        assert [r.selections for r in parallel] == [r.selections for r in sequential]

    def test_order_preserved(self, instances, config):
        results = select_parallel("Random", instances[:4], config, max_workers=2)
        for result, instance in zip(results, instances[:4]):
            assert result.instance.target.product_id == instance.target.product_id

    def test_reproducible_across_worker_counts(self, instances, config):
        one = select_parallel("Random", instances[:4], config, max_workers=1, seed=3)
        two = select_parallel("Random", instances[:4], config, max_workers=2, seed=3)
        assert [r.selections for r in one] == [r.selections for r in two]

    def test_selector_kwargs_forwarded(self, instances, config):
        results = select_parallel(
            "CompaReSetS+",
            instances[:2],
            config,
            max_workers=1,
            selector_kwargs={"variant": "weighted"},
        )
        assert len(results) == 2

    def test_single_instance_runs_inline(self, instances, config):
        results = select_parallel("CRS", instances[:1], config)
        assert len(results) == 1

    def test_unknown_selector_raises(self, instances, config):
        with pytest.raises(ValueError, match="unknown selector"):
            select_parallel("Oracle", instances[:1], config)


class TestSharedWorkerStore:
    """The corpus crosses the process boundary once, not once per task."""

    def test_save_results_identical_pool_vs_inline(
        self, instances, config, tmp_path
    ):
        from repro.eval.runner import EvaluationSettings
        from repro.experiments.persist import save_results

        settings = EvaluationSettings(max_instances=4)
        inline = select_parallel(
            "CompaReSetS", instances[:4], config, max_workers=1, seed=3
        )
        pooled = select_parallel(
            "CompaReSetS", instances[:4], config, max_workers=2, seed=3
        )
        inline_path = tmp_path / "inline.json"
        pooled_path = tmp_path / "pooled.json"
        save_results(
            "parallel-equivalence",
            [r.selections for r in inline],
            settings,
            inline_path,
        )
        save_results(
            "parallel-equivalence",
            [r.selections for r in pooled],
            settings,
            pooled_path,
        )
        assert inline_path.read_bytes() == pooled_path.read_bytes()

    def test_pool_results_carry_parent_instances(self, instances, config):
        results = select_parallel(
            "CompaReSetS", instances[:3], config, max_workers=2
        )
        for result, instance in zip(results, instances[:3]):
            assert result.instance is instance

    def test_store_cleaned_up_after_run(self, instances, config):
        select_parallel("CompaReSetS", instances[:3], config, max_workers=2)
        assert parallel._WORKER_STORE == {}

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="zero-pickling guarantee requires the fork start method",
    )
    def test_no_per_task_corpus_pickling(self, instances, config, monkeypatch):
        """Instances must never be pickled: poison __reduce__ and still run.

        Under fork, workers inherit the parent's store at fork time, tasks
        carry only (fingerprint, index), and workers return light records —
        so a ComparisonInstance that explodes on pickling must not matter.
        """
        from repro.data.instances import ComparisonInstance

        def explode(self):
            raise AssertionError("ComparisonInstance was pickled")

        monkeypatch.setattr(ComparisonInstance, "__reduce__", explode)
        results = select_parallel(
            "CompaReSetS", instances[:3], config, max_workers=2
        )
        assert len(results) == 3
