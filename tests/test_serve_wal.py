"""Tests for the write-ahead log: durability, torn tails, compaction."""

from __future__ import annotations

import errno

import pytest

from repro.serve.wal import WALCorruptError, WriteAheadLog, _encode_record


def _delta(n: int) -> dict:
    return {"kind": "delta", "reviews": [{"review_id": f"r{n}"}]}


class TestAppendReplay:
    def test_append_assigns_monotonic_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        assert wal.append(_delta(1)) == 1
        assert wal.append(_delta(2)) == 2
        assert wal.last_seq == 2
        assert len(wal) == 2

    def test_replay_survives_reopen(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_delta(1))
            wal.append(_delta(2))
        reopened = WriteAheadLog(path)
        records = list(reopened.replay())
        assert [seq for seq, _ in records] == [1, 2]
        assert records[0][1]["reviews"] == [{"review_id": "r1"}]
        assert reopened.stats().torn_tail_bytes == 0

    def test_replay_after_seq_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        for n in range(1, 5):
            wal.append(_delta(n))
        assert [seq for seq, _ in wal.replay(after_seq=2)] == [3, 4]

    def test_missing_file_starts_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "missing.wal")
        assert wal.last_seq == 0
        assert list(wal.replay()) == []


class TestTornTail:
    def test_torn_final_record_is_truncated(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_delta(1))
            wal.append(_delta(2))
        intact = path.read_bytes()
        # Tear the tail mid-record, as a kill -9 during the write would.
        path.write_bytes(intact[:-10])

        recovered = WriteAheadLog(path)
        assert recovered.stats().torn_tail_bytes > 0
        assert [seq for seq, _ in recovered.replay()] == [1]
        # The file itself was healed back to the last good byte.
        assert path.read_bytes() == intact[: len(path.read_bytes())]
        # Appends continue with the torn record's seq reused.
        assert recovered.append(_delta(2)) == 2

    def test_garbage_tail_is_truncated(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_delta(1))
        with path.open("ab") as handle:
            handle.write(b"\x00\xffgarbage")
        recovered = WriteAheadLog(path)
        assert [seq for seq, _ in recovered.replay()] == [1]

    @pytest.mark.parametrize("seq", ["x", None, [1], 1.5, True])
    def test_record_whose_seq_is_no_int_is_damage(self, tmp_path, seq):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_delta(1))
        intact = path.read_bytes()
        # Well framed, checksummed and JSON, yet no log wrote it.
        bad = _encode_record({"kind": "delta", "seq": seq})
        path.write_bytes(intact + bad)
        recovered = WriteAheadLog(path)
        assert [s for s, _ in recovered.replay()] == [1]
        assert recovered.stats().torn_tail_bytes == len(bad)
        assert path.read_bytes() == intact
        path.write_bytes(bad + intact)
        with pytest.raises(WALCorruptError):
            WriteAheadLog(path)

    def test_midfile_damage_is_not_silently_healed(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(_delta(1))
            wal.append(_delta(2))
        raw = bytearray(path.read_bytes())
        # Flip a byte inside the *first* record: damage followed by data.
        raw[10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(path)


class TestDiskFull:
    def test_failed_append_rolls_back_and_propagates(self, tmp_path):
        path = tmp_path / "ingest.wal"
        full = {"on": False}

        def before_write(num_bytes: int) -> None:
            if full["on"]:
                raise OSError(errno.ENOSPC, "no space left on device")

        wal = WriteAheadLog(path, before_write=before_write)
        wal.append(_delta(1))
        size_before = path.stat().st_size
        full["on"] = True
        with pytest.raises(OSError):
            wal.append(_delta(2))
        # Nothing half-written survives; seq did not advance.
        assert path.stat().st_size == size_before
        assert wal.last_seq == 1
        full["on"] = False
        assert wal.append(_delta(2)) == 2
        assert [seq for seq, _ in WriteAheadLog(path).replay()] == [1, 2]


class TestCompaction:
    def test_compact_drops_covered_records(self, tmp_path):
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for n in range(1, 5):
            wal.append(_delta(n))
        assert wal.compact(upto_seq=2) == 2
        assert [seq for seq, _ in wal.replay()] == [3, 4]
        # On-disk file shrank to just the kept tail.
        assert [seq for seq, _ in WriteAheadLog(path).replay()] == [3, 4]

    def test_seq_keeps_counting_after_full_compaction(self, tmp_path):
        """Compacting the whole log must not reset sequence numbering —
        a snapshot watermark of 3 followed by seq restarting at 1 would
        make recovery skip genuinely new deltas."""
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for n in range(1, 4):
            wal.append(_delta(n))
        wal.compact(upto_seq=3)
        assert wal.last_seq == 3
        assert wal.append(_delta(4)) == 4

    def test_reopened_empty_log_counts_on_from_raised_floor(self, tmp_path):
        """The floor is not persisted: a log emptied by compaction reopens
        at 0 until recovery raises it to the snapshot's watermark."""
        path = tmp_path / "ingest.wal"
        wal = WriteAheadLog(path)
        for n in range(1, 4):
            wal.append(_delta(n))
        wal.compact(upto_seq=3)
        wal.close()
        reopened = WriteAheadLog(path)
        assert len(reopened) == 0 and reopened.last_seq == 0
        reopened.raise_floor(3)
        assert reopened.last_seq == 3
        assert reopened.append(_delta(4)) == 4
        assert [seq for seq, _ in WriteAheadLog(path).replay()] == [4]

    def test_compact_noop_when_nothing_covered(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ingest.wal")
        wal.append(_delta(1))
        assert wal.compact(upto_seq=0) == 0
        assert len(wal) == 1
