"""JSON persistence for experiment results, plus checkpoint journals.

Benchmark runs archive rendered text tables; this module additionally
serialises the *structured* results (the dataclasses each ``run_*``
returns) so downstream analysis — plotting, cross-run comparison,
regression tracking — can consume them without re-parsing text.

The format is a tagged envelope::

    {"experiment": "table3", "settings": {...}, "results": [...]}

where each result is the ``dataclasses.asdict`` of one row/point/cell,
with enums and numpy scalars coerced to plain JSON types.  Writes are
atomic (temp file + ``os.replace``), so a crash mid-write never leaves a
truncated envelope behind.

Checkpoint/resume
-----------------
:class:`ResultJournal` is an append-only, checksummed journal of completed
per-instance :class:`~repro.core.selection.SelectionResult`\\ s.  The
experiment runner (:func:`repro.eval.runner.run_selector`) streams every
finished instance to the active journal — together with the
post-instance RNG state, so stochastic selectors resume mid-stream with
byte-identical results — and, on a re-run, replays journal entries
instead of recomputing them.  Install a journal for a block of
experiment code with :func:`checkpointing` (that is what
``repro-cli experiment --checkpoint`` does); an interrupted run resumes
from the last journaled instance instead of restarting from zero.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any
from collections.abc import Iterator

import numpy as np

from repro.core.selection import SelectionResult
from repro.resilience.atomicio import atomic_write_text
from repro.data.codec import product_from_record, product_record
from repro.data.codec import review_from_record, review_record
from repro.data.instances import ComparisonInstance

if TYPE_CHECKING:  # runner imports this module lazily; avoid the cycle
    from repro.eval.runner import EvaluationSettings

_FORMAT_VERSION = 1
_JOURNAL_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively coerce dataclasses/enums/numpy values to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None  # JSON has no NaN/Inf; null marks "undefined"
    return value


def save_results(
    experiment: str,
    results: Any,
    settings: EvaluationSettings,
    path: str | Path,
) -> None:
    """Write one experiment's structured results to ``path`` as JSON.

    The write is atomic: a crash mid-write never corrupts an existing
    result file at ``path``.
    """
    envelope = {
        "version": _FORMAT_VERSION,
        "experiment": experiment,
        "settings": _jsonable(settings),
        "results": _jsonable(results),
    }
    atomic_write_text(Path(path), json.dumps(envelope, indent=2) + "\n")


def load_results(path: str | Path) -> dict:
    """Load a result envelope written by :func:`save_results`.

    Returns the raw envelope dict; validation errors raise ValueError.
    """
    try:
        envelope = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "experiment" not in envelope:
        raise ValueError(f"{path}: not an experiment result envelope")
    version = envelope.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported result format version {version!r}")
    return envelope


# --------------------------------------------------------------------------
# SelectionResult round-trip (for checkpoint journals)
# --------------------------------------------------------------------------


def result_record(result: SelectionResult) -> dict:
    """A JSON-ready record that fully round-trips a SelectionResult."""
    instance = result.instance
    return {
        "algorithm": result.algorithm,
        "degraded": result.degraded,
        "selections": [list(s) for s in result.selections],
        "products": [product_record(p) for p in instance.products],
        "reviews": [
            [review_record(r) for r in review_set] for review_set in instance.reviews
        ],
    }


def result_from_record(record: dict) -> SelectionResult:
    """Rebuild a SelectionResult written by :func:`result_record`."""
    products = tuple(product_from_record(p) for p in record["products"])
    reviews = tuple(
        tuple(review_from_record(r) for r in review_set)
        for review_set in record["reviews"]
    )
    return SelectionResult(
        instance=ComparisonInstance(products=products, reviews=reviews),
        selections=tuple(tuple(int(i) for i in s) for s in record["selections"]),
        algorithm=record["algorithm"],
        degraded=bool(record.get("degraded", False)),
    )


# --------------------------------------------------------------------------
# Checkpoint journal
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class CheckpointEntry:
    """One journaled per-instance result."""

    key: str
    index: int
    result: SelectionResult
    seconds: float
    rng_state: dict | None = None


def run_key(
    algorithm: str,
    config: Any,
    seed: int,
    instances: Any,
) -> str:
    """A stable identity for one selector run inside a journal.

    Two runs share journal entries only when the algorithm, the
    selection config, the seed, and the exact instance sequence (by
    target product id) all match — otherwise replaying a checkpoint
    would silently mix workloads.
    """
    fingerprint = json.dumps(
        {
            "config": _jsonable(config),
            "targets": [inst.target.product_id for inst in instances],
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]
    return f"{algorithm}|seed={seed}|{digest}"


class ResultJournal:
    """Append-only journal of completed per-instance results.

    A client of the serving write-ahead log, so each record is length-
    and CRC32-framed, and ``append`` returns once it is fsynced.  Opening
    truncates a torn final record (the signature of a crash mid-append;
    the run redoes that one instance) and raises
    :class:`~repro.serve.wal.WALCorruptError` on damage before the tail,
    leaving the file as it was.  So does a non-empty file whose first
    byte cannot begin a frame (frames begin with their decimal length,
    journals from before the framing with ``{``), whatever its length.
    The first record is a header that carries the journal version.
    """

    def __init__(self, path: str | Path) -> None:
        # Imported here: run_selector imports this module in processes
        # that never open a journal, and repro.serve is costly to load.
        from repro.serve.wal import WALCorruptError, WriteAheadLog

        self.path = Path(path)
        if self.path.is_file():
            # The log would take a one-line unframed file for a torn record.
            with self.path.open("rb") as handle:
                first = handle.read(1)
            if first and not first.isdigit():
                raise WALCorruptError(f"{self.path}: not a framed journal")
        self._log = WriteAheadLog(self.path)
        self._entries: dict[tuple[str, int], dict] = {}
        for seq, record in self._log.replay():
            kind = record.get("kind")
            if kind == "header":
                version = record.get("version")
                if version != _JOURNAL_VERSION:
                    raise ValueError(
                        f"{self.path}: unsupported journal version {version!r}"
                    )
            elif kind == "entry":
                self._entries[(record["key"], int(record["index"]))] = record
            else:
                raise ValueError(
                    f"{self.path}: unknown journal record kind {kind!r} "
                    f"at seq {seq}"
                )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key_index: tuple[str, int]) -> bool:
        return key_index in self._entries

    def entries_for(self, key: str) -> int:
        """How many instances of run ``key`` are already journaled."""
        return sum(1 for k, _ in self._entries if k == key)

    def get(self, key: str, index: int) -> CheckpointEntry | None:
        record = self._entries.get((key, index))
        if record is None:
            return None
        return CheckpointEntry(
            key=key,
            index=index,
            result=result_from_record(record["result"]),
            seconds=float(record.get("seconds", 0.0)),
            rng_state=record.get("rng_state"),
        )

    def append(
        self,
        key: str,
        index: int,
        result: SelectionResult,
        seconds: float,
        rng_state: dict | None = None,
    ) -> None:
        """Journal one completed instance (flushed + fsynced immediately)."""
        record = {
            "kind": "entry",
            "key": key,
            "index": index,
            "seconds": seconds,
            "rng_state": _jsonable(rng_state),
            "result": result_record(result),
        }
        if not len(self._log):
            self._log.append({"kind": "header", "version": _JOURNAL_VERSION})
        self._log.append(record)
        self._entries[(key, index)] = record

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_ACTIVE_JOURNAL: contextvars.ContextVar[ResultJournal | None] = (
    contextvars.ContextVar("repro_active_journal", default=None)
)


def active_journal() -> ResultJournal | None:
    """The journal installed by :func:`checkpointing`, if any."""
    return _ACTIVE_JOURNAL.get()


@contextlib.contextmanager
def checkpointing(path: str | Path) -> Iterator[ResultJournal]:
    """Stream per-instance results to a journal for the enclosed block.

    Every :func:`repro.eval.runner.run_selector` call inside the block
    journals completed instances to ``path`` and replays already-
    journaled ones.  Re-running an interrupted block with the same
    journal resumes from the last checkpoint and produces the same final
    results as an uninterrupted run (RNG state is journaled alongside
    each instance).
    """
    journal = ResultJournal(path)
    token = _ACTIVE_JOURNAL.set(journal)
    try:
        yield journal
    finally:
        _ACTIVE_JOURNAL.reset(token)
        journal.close()
