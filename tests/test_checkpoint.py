"""Tests for atomic result persistence and checkpoint/resume journals."""

import json
import os

import pytest

from repro.eval.runner import EvaluationSettings, run_selector
from repro.experiments.persist import (
    ResultJournal,
    active_journal,
    checkpointing,
    load_results,
    result_from_record,
    result_record,
    run_key,
    save_results,
    _jsonable,
)
from repro.resilience.faults import FaultInjectingSelector, InjectedFault
from repro.serve.wal import WALCorruptError, WriteAheadLog


@pytest.fixture()
def greedy_result(instance, config):
    from repro.core.selection import make_selector

    return make_selector("CompaReSetS_Greedy").select(instance, config)


class TestResultRoundTrip:
    def test_record_round_trips_selection_result(self, greedy_result):
        record = result_record(greedy_result)
        # The record must survive JSON serialisation (journal lines).
        restored = result_from_record(json.loads(json.dumps(record)))
        assert restored == greedy_result

    def test_degraded_flag_round_trips(self, greedy_result):
        from dataclasses import replace

        flagged = replace(greedy_result, degraded=True)
        restored = result_from_record(result_record(flagged))
        assert restored.degraded


class TestAtomicSave:
    def test_save_and_load(self, tmp_path, greedy_result):
        path = tmp_path / "out.json"
        settings = EvaluationSettings()
        save_results("demo", {"objective": 1.5}, settings, path)
        envelope = load_results(path)
        assert envelope["experiment"] == "demo"
        assert envelope["results"] == {"objective": 1.5}

    def test_failed_write_preserves_existing_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.json"
        settings = EvaluationSettings()
        save_results("demo", {"run": 1}, settings, path)
        before = path.read_bytes()

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk full"):
            save_results("demo", {"run": 2}, settings, path)
        assert path.read_bytes() == before
        # No orphaned temp files either.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestRunKey:
    def test_key_components_distinguish_runs(self, instances, config):
        base = run_key("Random", config, 5, instances)
        assert base.startswith("Random|seed=5|")
        assert run_key("Greedy", config, 5, instances) != base
        assert run_key("Random", config, 6, instances) != base
        assert run_key("Random", config, 5, instances[:-1]) != base
        from dataclasses import replace

        other_config = replace(config, max_reviews=config.max_reviews + 1)
        assert run_key("Random", other_config, 5, instances) != base

    def test_key_is_stable(self, instances, config):
        assert run_key("Random", config, 5, instances) == run_key(
            "Random", config, 5, instances
        )


def _tear_last_record(path) -> None:
    """Chop the journal's last record in half, as a crash mid-append would."""
    raw = path.read_bytes()
    last = raw.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(raw[: last + (len(raw) - last) // 2])


class TestResultJournal:
    def test_append_then_reload(self, tmp_path, greedy_result):
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.25)
            journal.append("run-a", 1, greedy_result, 0.5)
        reloaded = ResultJournal(path)
        assert len(reloaded) == 2
        assert ("run-a", 0) in reloaded
        assert ("run-a", 2) not in reloaded
        assert reloaded.entries_for("run-a") == 2
        entry = reloaded.get("run-a", 1)
        assert entry.result == greedy_result
        assert entry.seconds == 0.5
        assert reloaded.get("run-b", 0) is None

    def test_rng_state_round_trips(self, tmp_path, greedy_result):
        import numpy as np

        rng = np.random.default_rng(3)
        rng.random(7)
        state = rng.bit_generator.state
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.1, rng_state=state)
        entry = ResultJournal(path).get("run-a", 0)
        replayed = np.random.default_rng(0)
        replayed.bit_generator.state = entry.rng_state
        assert float(replayed.random()) == float(rng.random())

    def test_torn_final_line_is_tolerated(self, tmp_path, greedy_result):
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.1)
            journal.append("run-a", 1, greedy_result, 0.1)
        # Simulate a crash mid-append: chop the last line in half.
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        survivor = ResultJournal(path)
        assert len(survivor) == 1
        assert ("run-a", 0) in survivor

    def test_appends_after_a_torn_tail_all_reopen(self, tmp_path, greedy_result):
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.1)
            journal.append("run-a", 1, greedy_result, 0.1)
        _tear_last_record(path)
        with ResultJournal(path) as resumed:
            assert len(resumed) == 1
            resumed.append("run-a", 1, greedy_result, 0.2)
            resumed.append("run-a", 2, greedy_result, 0.3)
        reopened = ResultJournal(path)
        assert len(reopened) == 3
        for index, seconds in enumerate((0.1, 0.2, 0.3)):
            entry = reopened.get("run-a", index)
            assert entry.result == greedy_result
            assert entry.seconds == seconds

    def test_corrupt_interior_line_raises(self, tmp_path, greedy_result):
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.1)
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the header record: damage followed by data.
        raw[raw.index(b"header")] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptError, match="not a torn tail"):
            ResultJournal(path)
        assert path.read_bytes() == bytes(raw)

    def test_bare_jsonl_journal_is_refused_untouched(self, tmp_path, greedy_result):
        # The unframed layout journals used to have: one JSON object a line.
        path = tmp_path / "journal.jsonl"
        entry = {
            "kind": "entry", "key": "run-a", "index": 0, "seconds": 0.1,
            "rng_state": None, "result": result_record(greedy_result),
        }
        path.write_text(
            '{"kind":"header","version":1}\n' + json.dumps(entry) + "\n",
            encoding="utf-8",
        )
        before = path.read_bytes()
        with pytest.raises(WALCorruptError):
            ResultJournal(path)
        assert path.read_bytes() == before

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with WriteAheadLog(path) as log:
            log.append({"kind": "header", "version": 99})
        with pytest.raises(ValueError, match="unsupported journal version"):
            ResultJournal(path)

    def test_append_resumes_without_duplicate_header(
        self, tmp_path, greedy_result
    ):
        path = tmp_path / "journal.jsonl"
        with ResultJournal(path) as journal:
            journal.append("run-a", 0, greedy_result, 0.1)
        with ResultJournal(path) as journal:
            journal.append("run-a", 1, greedy_result, 0.1)
        kinds = [record["kind"] for _, record in WriteAheadLog(path).replay()]
        assert kinds == ["header", "entry", "entry"]


class TestCheckpointResume:
    def test_active_journal_scoping(self, tmp_path):
        assert active_journal() is None
        with checkpointing(tmp_path / "j.jsonl") as journal:
            assert active_journal() is journal
        assert active_journal() is None

    def test_interrupted_run_resumes_byte_identical(
        self, tmp_path, instances, config
    ):
        """The ISSUE-1 acceptance check: kill a run partway, resume from
        the journal, and the final results match an uninterrupted run
        exactly — including the RNG stream of a stochastic selector."""
        subset = instances[:5]
        baseline = run_selector("Random", subset, config, seed=5)

        # First attempt dies on instance 3 after journaling 0..2.
        faulty = FaultInjectingSelector(
            inner="Random",
            flaky_ids=(subset[3].target.product_id,),
            flaky_attempts=1,
            scratch_dir=str(tmp_path / "scratch"),
        )
        faulty.name = "Random"  # same run identity as the clean selector
        journal_path = tmp_path / "journal.jsonl"
        with checkpointing(journal_path):
            with pytest.raises(InjectedFault):
                run_selector(faulty, subset, config, seed=5)

        with checkpointing(journal_path) as journal:
            assert len(journal) == 3  # instances 0..2 survived the crash
            resumed = run_selector("Random", subset, config, seed=5)

        # Byte-identical selections (timings are wall-clock and excluded).
        assert json.dumps(_jsonable(resumed.results), sort_keys=True) == json.dumps(
            _jsonable(baseline.results), sort_keys=True
        )
        assert resumed.algorithm == baseline.algorithm

    def test_run_resumed_after_a_torn_tail_is_byte_identical(
        self, tmp_path, instances, config
    ):
        subset = instances[:5]
        baseline = run_selector("Random", subset, config, seed=5)
        faulty = FaultInjectingSelector(
            inner="Random",
            flaky_ids=(subset[3].target.product_id,),
            flaky_attempts=1,
            scratch_dir=str(tmp_path / "scratch"),
        )
        faulty.name = "Random"
        journal_path = tmp_path / "journal.jsonl"
        with checkpointing(journal_path):
            with pytest.raises(InjectedFault):
                run_selector(faulty, subset, config, seed=5)
        # Say the crash hit while instance 2 was being appended.
        _tear_last_record(journal_path)
        with checkpointing(journal_path) as journal:
            assert len(journal) == 2
            resumed = run_selector("Random", subset, config, seed=5)
        assert json.dumps(_jsonable(resumed.results), sort_keys=True) == json.dumps(
            _jsonable(baseline.results), sort_keys=True
        )
        assert len(ResultJournal(journal_path)) == 5

    def test_replay_does_not_recompute(self, tmp_path, instances, config):
        subset = instances[:4]
        journal_path = tmp_path / "journal.jsonl"
        with checkpointing(journal_path):
            first = run_selector("CompaReSetS_Greedy", subset, config, seed=1)

        # A selector that crashes on *every* instance proves that a fully
        # journaled run never calls select() again.
        crasher = FaultInjectingSelector(
            inner="CompaReSetS_Greedy",
            crash_ids=tuple(i.target.product_id for i in subset),
        )
        crasher.name = "CompaReSetS_Greedy"
        with checkpointing(journal_path):
            replayed = run_selector(crasher, subset, config, seed=1)
        assert replayed.results == first.results
        assert replayed.seconds_per_instance == first.seconds_per_instance

    def test_different_seed_does_not_reuse_journal(
        self, tmp_path, instances, config
    ):
        subset = instances[:3]
        journal_path = tmp_path / "journal.jsonl"
        with checkpointing(journal_path) as journal:
            run_selector("Random", subset, config, seed=1)
            assert len(journal) == 3
            run_selector("Random", subset, config, seed=2)
            assert len(journal) == 6  # separate run key, separate entries

    def test_explicit_journal_argument(self, tmp_path, instances, config):
        subset = instances[:3]
        with ResultJournal(tmp_path / "j.jsonl") as journal:
            run_selector("CompaReSetS_Greedy", subset, config, seed=0, journal=journal)
            assert len(journal) == 3
