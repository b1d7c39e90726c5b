"""Write-ahead log for durable delta ingest.

The contract behind ``POST /v1/ingest`` is *WAL-before-ack*: a delta is
appended to the log and fsynced **before** the engine applies it to the
in-memory :class:`~repro.serve.store.ItemStore` or acknowledges the
client.  The crash windows then sort themselves out:

* crash **before** the fsync completes — the client never got an ack;
  the tail record may be torn and is truncated on replay.  Nothing
  acknowledged is lost.
* crash **after** the fsync, before the in-memory apply or the ack — the
  record is durable; replay re-applies it.  The client retries and gets
  a duplicate-review rejection, which is the correct signal that the
  first attempt actually landed.

Record format — length-prefixed, checksummed JSONL::

    <payload-byte-length>|<crc32-hex>|<payload-json>\\n

The length prefix makes a short (torn) final record detectable without
parsing; the CRC32 catches bit rot and the torn-write case where the
kernel wrote a full-length run of garbage.  A bad record at the *tail*
is the signature of a crash mid-append: replay truncates the file back
to the last good byte and continues.  A bad record *followed by more
data* means something other than a crash mangled the log, and that is
never silently healed — :class:`WALCorruptError`.

Every append funnels through one physical-write path with an injectable
``before_write`` hook, so the chaos suite can script disk-full (ENOSPC)
at exact append boundaries.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

# Delta payloads hold reviews as corpus records; the codec is importable
# from here as well as from its home.
from repro.data.codec import review_from_record as review_from_record
from repro.data.codec import review_record as review_record
from repro.resilience.atomicio import atomic_write_bytes, checksum

_SEPARATOR = b"|"


class WALError(RuntimeError):
    """Base class for write-ahead-log failures."""


class WALCorruptError(WALError):
    """A damaged record was found *before* the tail (not crash-shaped)."""


@dataclass(frozen=True, slots=True)
class WALStats:
    """Introspection for ``/metrics`` and the recovery report."""

    last_seq: int
    records: int
    bytes: int
    appended: int
    torn_tail_bytes: int


def _encode_record(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return b"%d|%08x|%s\n" % (len(body), checksum(body), body)


class WriteAheadLog:
    """Append-only, fsynced, checksummed JSONL log with torn-tail healing.

    ``before_write(num_bytes)`` is called immediately before every
    physical append — tests and the chaos harness raise ``OSError``
    from it to simulate a full disk at a precise record boundary.  A
    failed append restores the file to its pre-append length, so the
    log never retains a half-written record from a *surviving* process
    (a killed process leaves the torn tail for replay to truncate).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = True,
        before_write: Callable[[int], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.before_write = before_write
        self._lock = threading.Lock()
        self._handle = None
        self._appended = 0
        self._records: list[tuple[int, dict]] = []
        self._torn_tail_bytes = 0
        self._valid_bytes = 0
        self._seq_floor = 0  # highest seq dropped by compaction
        self._recover()

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Scan the log, truncating a torn tail; raise on mid-file damage."""
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        offset = 0
        while offset < len(raw):
            parsed = self._parse_one(raw, offset)
            if parsed is None:  # damaged record starting at `offset`
                if raw[offset:].count(b"\n") > 1 or self._has_data_after(
                    raw, offset
                ):
                    raise WALCorruptError(
                        f"{self.path}: corrupt record at byte {offset} "
                        "followed by more data (not a torn tail)"
                    )
                self._torn_tail_bytes = len(raw) - offset
                break
            seq, payload, next_offset = parsed
            self._records.append((seq, payload))
            offset = next_offset
        self._valid_bytes = offset
        if self._torn_tail_bytes:
            with self.path.open("rb+") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())

    @staticmethod
    def _has_data_after(raw: bytes, offset: int) -> bool:
        """Whether non-empty content exists after the first newline past
        ``offset`` — the discriminator between a torn tail and mid-file
        corruption."""
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return False
        return bool(raw[newline + 1 :].strip())

    @staticmethod
    def _parse_one(raw: bytes, offset: int) -> tuple[int, dict, int] | None:
        """Parse one record at ``offset``; None when damaged/incomplete."""
        sep1 = raw.find(_SEPARATOR, offset)
        if sep1 < 0 or sep1 - offset > 20:
            return None
        try:
            length = int(raw[offset:sep1])
        except ValueError:
            return None
        sep2 = raw.find(_SEPARATOR, sep1 + 1)
        if sep2 != sep1 + 9:  # crc is always 8 hex chars
            return None
        try:
            crc = int(raw[sep1 + 1 : sep2], 16)
        except ValueError:
            return None
        body_start = sep2 + 1
        body_end = body_start + length
        if body_end + 1 > len(raw) or raw[body_end : body_end + 1] != b"\n":
            return None
        body = raw[body_start:body_end]
        if checksum(body) != crc:
            return None
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):  # not JSON or UTF-8, or too deep
            return None
        # A seq that is no int (a float, a bool, a string, null) is damage.
        if not isinstance(payload, dict) or type(payload.get("seq")) is not int:
            return None
        return payload["seq"], payload, body_end + 1

    # -- append path ---------------------------------------------------------

    def _open_for_append(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("ab")
        return self._handle

    def append(self, payload: dict) -> int:
        """Durably append one record; returns its sequence number.

        The record is on disk (fsynced) when this returns — that is the
        acknowledgment barrier.  On failure (e.g. ``ENOSPC``) the file
        is restored to its previous length and the error propagates, so
        the caller must *not* apply or acknowledge the delta.
        """
        with self._lock:
            seq = self.last_seq + 1
            record = dict(payload)
            record["seq"] = seq
            data = _encode_record(record)
            handle = self._open_for_append()
            if self.before_write is not None:
                self.before_write(len(data))
            try:
                handle.write(data)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            except OSError:
                # Roll the file back so a *surviving* process never
                # carries a half-written record into later appends.
                try:
                    handle.truncate(self._valid_bytes)
                    handle.flush()
                except OSError:  # pragma: no cover - double fault
                    pass
                raise
            self._valid_bytes += len(data)
            self._records.append((seq, record))
            self._appended += 1
            return seq

    # -- read path -----------------------------------------------------------

    @property
    def last_seq(self) -> int:
        last = self._records[-1][0] if self._records else 0
        return max(last, self._seq_floor)

    def raise_floor(self, seq: int) -> None:
        """Number the next append after ``seq`` at least (the floor is not
        persisted, so an emptied log reopens at 0)."""
        with self._lock:
            self._seq_floor = max(self._seq_floor, int(seq))

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, dict]]:
        """Yield ``(seq, payload)`` for every record with ``seq > after_seq``."""
        for seq, payload in list(self._records):
            if seq > after_seq:
                yield seq, payload

    def __len__(self) -> int:
        return len(self._records)

    def stats(self) -> WALStats:
        with self._lock:
            return WALStats(
                last_seq=self.last_seq,
                records=len(self._records),
                bytes=self._valid_bytes,
                appended=self._appended,
                torn_tail_bytes=self._torn_tail_bytes,
            )

    # -- compaction ----------------------------------------------------------

    def compact(self, upto_seq: int) -> int:
        """Drop records with ``seq <= upto_seq`` (now covered by a snapshot).

        Rewrites the log atomically (temp file + replace + dir fsync);
        sequence numbers keep counting from where they were.  Returns
        the number of records dropped.
        """
        with self._lock:
            keep = [(s, p) for s, p in self._records if s > upto_seq]
            dropped = len(self._records) - len(keep)
            if dropped == 0:
                return 0
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            data = b"".join(_encode_record(p) for _, p in keep)
            atomic_write_bytes(self.path, data)
            # Sequence numbering continues past the snapshot watermark
            # even when the log empties out entirely.
            self._seq_floor = max(
                self._seq_floor, max(s for s, _ in self._records if s <= upto_seq)
            )
            self._records = keep
            self._valid_bytes = len(data)
            return dropped

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
