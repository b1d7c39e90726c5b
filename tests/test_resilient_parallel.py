"""Fault-injection tests for the resilient parallel runner.

These prove the ISSUE-1 acceptance behaviours: a crashing worker loses
only its own instance under ``on_error="skip"``, a hung solve is cut off
by the runner's timeout, degraded substitutes are flagged, and retries
recover transient failures without breaking reproducibility.
"""

import time

import pytest

from repro.eval.parallel import run_parallel, select_parallel
from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.faults import InjectedFault
from repro.resilience.retry import RetryPolicy


@pytest.fixture()
def crash_id(instances) -> str:
    return instances[2].target.product_id


class TestCrashIsolation:
    def test_skip_loses_only_the_crashed_instance(self, instances, config, crash_id):
        run = run_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            selector_kwargs={"inner": "CompaReSetS_Greedy", "crash_ids": (crash_id,)},
            on_error="skip",
        )
        statuses = [o.status for o in run.outcomes]
        assert statuses == ["ok", "ok", "skipped", "ok", "ok"]
        assert run.num_skipped == 1
        assert "InjectedFault" in run.errors[crash_id]
        # The four surviving results match a fault-free run exactly.
        clean = select_parallel(
            "CompaReSetS_Greedy", instances[:5], config, max_workers=2
        )
        expected = [r.selections for i, r in enumerate(clean) if i != 2]
        assert [r.selections for r in run.results] == expected

    def test_raise_policy_propagates_original_exception(
        self, instances, config, crash_id
    ):
        with pytest.raises(InjectedFault, match="injected crash"):
            run_parallel(
                "FaultInjecting",
                instances[:5],
                config,
                max_workers=2,
                selector_kwargs={
                    "inner": "CompaReSetS_Greedy",
                    "crash_ids": (crash_id,),
                },
                on_error="raise",
            )

    def test_degrade_substitutes_flagged_baseline(self, instances, config, crash_id):
        run = run_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            selector_kwargs={"inner": "CompaReSetS", "crash_ids": (crash_id,)},
            on_error="degrade",
            degrade_selector="CompaReSetS_Greedy",
        )
        assert [o.status for o in run.outcomes] == [
            "ok", "ok", "degraded", "ok", "ok",
        ]
        substitute = run.outcomes[2].result
        assert substitute is not None
        assert substitute.degraded
        assert substitute.algorithm == "CompaReSetS_Greedy"
        assert all(not o.result.degraded for o in run.outcomes if o.status == "ok")
        # Order and count are preserved: every instance has an outcome.
        assert [o.index for o in run.outcomes] == list(range(5))

    def test_invalid_policy_rejected(self, instances, config):
        with pytest.raises(ValueError, match="on_error"):
            run_parallel(
                "CompaReSetS_Greedy", instances[:2], config, on_error="ignore"
            )


class TestRetries:
    def test_transient_failure_recovered_with_retries(
        self, instances, config, crash_id, tmp_path
    ):
        run = run_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            selector_kwargs={
                "inner": "CompaReSetS_Greedy",
                "flaky_ids": (crash_id,),
                "flaky_attempts": 1,
                "scratch_dir": str(tmp_path),
            },
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01),
            on_error="raise",
        )
        assert all(o.status == "ok" for o in run.outcomes)
        flaky_outcome = next(o for o in run.outcomes if o.target_id == crash_id)
        assert flaky_outcome.attempts == 2
        assert all(
            o.attempts == 1 for o in run.outcomes if o.target_id != crash_id
        )

    def test_retry_reseeds_deterministically(
        self, instances, config, crash_id, tmp_path
    ):
        """A retried Random selection equals the never-failed one."""
        clean = select_parallel("Random", instances[:5], config, max_workers=2, seed=9)
        retried = select_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            seed=9,
            selector_kwargs={
                "inner": "Random",
                "flaky_ids": (crash_id,),
                "flaky_attempts": 1,
                "scratch_dir": str(tmp_path),
            },
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
        )
        assert [r.selections for r in retried] == [r.selections for r in clean]

    def test_exhausted_retries_fall_to_policy(self, instances, config, crash_id):
        run = run_parallel(
            "FaultInjecting",
            instances[:4],
            config,
            max_workers=2,
            selector_kwargs={"inner": "CompaReSetS_Greedy", "crash_ids": (crash_id,)},
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
            on_error="skip",
        )
        crashed = next(o for o in run.outcomes if o.target_id == crash_id)
        assert crashed.status == "skipped"
        assert crashed.attempts == 2


class TestTimeouts:
    def test_hung_solve_is_cut_off(self, instances, config, crash_id):
        start = time.monotonic()
        run = run_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            selector_kwargs={
                "inner": "CompaReSetS_Greedy",
                "hang": {crash_id: 5.0},
            },
            timeout=0.4,
            on_error="skip",
        )
        wall = time.monotonic() - start
        hung = next(o for o in run.outcomes if o.target_id == crash_id)
        assert hung.status == "skipped"
        assert "timed out" in hung.error
        assert sum(1 for o in run.outcomes if o.status == "ok") == 4
        # The runner must return at the timeout, not after the 5 s hang.
        assert wall < 4.0

    def test_overall_deadline_settles_unfinished(self, instances, config):
        # The two workers take instances in submission order: the first
        # two run unslowed and finish far inside the deadline, the last
        # three sleep far past it, so the split does not hang on how fast
        # the host forks and solves.
        slow = {i.target.product_id: 4.0 for i in instances[2:5]}
        run = run_parallel(
            "FaultInjecting",
            instances[:5],
            config,
            max_workers=2,
            selector_kwargs={"inner": "CompaReSetS_Greedy", "slow": slow},
            deadline=2.0,
            on_error="degrade",
        )
        assert len(run.outcomes) == 5
        assert run.num_degraded >= 1
        assert run.num_ok >= 1
        for outcome in run.outcomes:
            if outcome.status == "degraded":
                assert outcome.result.degraded

    def test_overall_deadline_raises_under_raise_policy(self, instances, config):
        slow = {i.target.product_id: 0.5 for i in instances[:4]}
        with pytest.raises(DeadlineExceeded, match="unfinished"):
            run_parallel(
                "FaultInjecting",
                instances[:4],
                config,
                max_workers=2,
                selector_kwargs={"inner": "CompaReSetS_Greedy", "slow": slow},
                deadline=0.6,
                on_error="raise",
            )


class TestInlinePath:
    """max_workers=1 runs in-process but honours the same policies."""

    def test_inline_skip(self, instances, config, crash_id):
        run = run_parallel(
            "FaultInjecting",
            instances[:4],
            config,
            max_workers=1,
            selector_kwargs={"inner": "CompaReSetS_Greedy", "crash_ids": (crash_id,)},
            on_error="skip",
        )
        assert [o.status for o in run.outcomes] == ["ok", "ok", "skipped", "ok"]

    def test_inline_retry(self, instances, config, crash_id, tmp_path):
        run = run_parallel(
            "FaultInjecting",
            instances[:4],
            config,
            max_workers=1,
            selector_kwargs={
                "inner": "CompaReSetS_Greedy",
                "flaky_ids": (crash_id,),
                "flaky_attempts": 1,
                "scratch_dir": str(tmp_path),
            },
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
        )
        assert all(o.status == "ok" for o in run.outcomes)

    def test_inline_degrade(self, instances, config, crash_id):
        run = run_parallel(
            "FaultInjecting",
            instances[:4],
            config,
            max_workers=1,
            selector_kwargs={"inner": "CompaReSetS", "crash_ids": (crash_id,)},
            on_error="degrade",
        )
        degraded = next(o for o in run.outcomes if o.status == "degraded")
        assert degraded.result.degraded


class TestFacade:
    def test_select_parallel_unchanged_for_clean_runs(self, instances, config):
        results = select_parallel("CompaReSetS_Greedy", instances[:3], config)
        assert len(results) == 3
        assert all(not r.degraded for r in results)

    def test_empty_instances(self, config):
        assert select_parallel("CompaReSetS_Greedy", [], config) == []
