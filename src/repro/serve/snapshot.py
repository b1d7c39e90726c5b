"""Atomic generation snapshots: restart = snapshot-load + WAL-replay.

A snapshot captures one :class:`~repro.serve.store.ItemStore` generation
completely enough that a restarted process reproduces it *byte-identically*
— same ``g{N}-{fingerprint}`` version string, same chain epochs — without
re-walking the corpus:

* ``MANIFEST.json`` — version, generation counter, lineage, per-product
  delta epochs, the WAL sequence number the snapshot covers, and a CRC32
  per payload file;
* ``corpus.pkl`` — the pickled ``(name, products, reviews)`` triple
  (same-process-family restore; orders of magnitude faster than
  re-parsing JSONL);
* ``artifact-NNN.npz`` — one file per memoised
  :class:`~repro.serve.store.InstanceArtifacts`: per item i, the
  incidence matrices ``op_i``/``asp_i`` and base Gram blocks
  ``gop_i``/``gasp_i``, injected on restore into
  :class:`~repro.core.omp_kernel.SolverArtifacts`, skipping the
  tokenised-corpus walks and Gram matmuls that dominate cold ingest.

This is format 2.  The reader also accepts format 1, which stored
``gamma``/``tau_i``/``col_i`` arrays besides, that no solve reads.

Write protocol: everything is staged into a hidden temp directory in the
snapshot root, every file fsynced, then the directory is atomically
``os.replace``d to its final ``snap-NNNNNNNN`` name and the root fsynced.
A crash mid-save leaves a ``.tmp-*`` orphan (swept on the next save) and
the previous snapshots untouched.  The newest ``keep`` snapshots are
kept, all of one lineage (a reload is not a WAL record, so no fallback
may cross one), and the engine compacts the WAL only up to the oldest's
watermark: load walks snapshots newest-first, and falling back on a
checksum/parse failure costs a longer replay, not deltas.

:func:`open_durable_store` is the recovery entry point the supervisor and
CLI use: snapshot-load, WAL-replay, and provenance in one call.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.codec import review_from_record
from repro.data.corpus import Corpus
from repro.data.io import load_corpus
from repro.core.vectors import OpinionScheme
from repro.resilience.atomicio import checksum, fsync_directory
from repro.serve.store import ItemStore
from repro.serve.wal import WriteAheadLog

_MANIFEST = "MANIFEST.json"
_CORPUS = "corpus.pkl"
_FORMAT = 2
_READABLE_FORMATS = (1, 2)


class SnapshotError(RuntimeError):
    """Base class for snapshot failures."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot failed its checksum or structural validation."""


@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Identity of one on-disk snapshot."""

    path: Path
    version: str
    loads: int
    wal_seq: int
    artifacts: int


@dataclass(slots=True)
class RecoveryInfo:
    """Provenance of one durable-store open, for /healthz and metrics.

    ``mode`` is ``cold`` (no usable snapshot; full corpus ingest),
    ``cold+wal`` (cold ingest plus replayed deltas), ``snapshot``
    (snapshot only, empty WAL tail), or ``snapshot+wal`` (snapshot plus
    replayed deltas).
    """

    mode: str
    version: str
    replayed_deltas: int = 0
    replayed_reviews: int = 0
    snapshot_version: str | None = None
    snapshots_skipped: int = 0
    restored_artifacts: int = 0
    wal_torn_tail_bytes: int = 0
    restarts: int = 0
    errors: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "version": self.version,
            "replayed_deltas": self.replayed_deltas,
            "replayed_reviews": self.replayed_reviews,
            "snapshot_version": self.snapshot_version,
            "snapshots_skipped": self.snapshots_skipped,
            "restored_artifacts": self.restored_artifacts,
            "wal_torn_tail_bytes": self.wal_torn_tail_bytes,
            "restarts": self.restarts,
            "errors": list(self.errors),
        }


def _manifest_value(path: Path, key: str):
    """``key`` of a snapshot's manifest, or None when it does not read."""
    try:
        return json.loads((path / _MANIFEST).read_text()).get(key)
    except (OSError, ValueError, AttributeError):
        return None


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


class SnapshotManager:
    """Writes, prunes, and restores atomic generation snapshots."""

    def __init__(self, root: str | Path, *, keep: int = 2) -> None:
        self.root = Path(root)
        self.keep = max(1, int(keep))

    # -- enumeration ---------------------------------------------------------

    def list_snapshots(self) -> list[Path]:
        """Snapshot directories, oldest first."""
        if not self.root.exists():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("snap-")
        )

    # -- save ----------------------------------------------------------------

    def save(self, store: ItemStore, *, wal_seq: int) -> SnapshotInfo:
        """Persist the store's current generation; returns its identity.

        Atomic at directory granularity: a crash anywhere during the
        save leaves prior snapshots untouched and at worst a temp orphan
        that the next save sweeps.  ``wal_seq`` is the highest WAL
        sequence number whose delta is *included* in this generation —
        recovery replays strictly newer records on top.
        """
        loads, lineage, epochs = store.chain_state()
        corpus = store.corpus
        version = store.version
        exported = store.export_artifacts()

        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_orphans()
        staging = Path(
            tempfile.mkdtemp(dir=self.root, prefix=".tmp-snap-")
        )
        try:
            files: dict[str, int] = {}
            corpus_blob = pickle.dumps(
                (corpus.name, tuple(corpus.products), tuple(corpus.reviews)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            files[_CORPUS] = self._write(staging / _CORPUS, corpus_blob)

            artifact_entries = []
            for index, (key, artifacts) in enumerate(exported):
                name = f"artifact-{index:03d}.npz"
                arrays: dict[str, np.ndarray] = {}
                for item, solver in enumerate(artifacts.solver):
                    arrays[f"op_{item}"] = solver._opinion
                    arrays[f"asp_{item}"] = solver._aspect
                    base = solver.base_block()
                    arrays[f"gop_{item}"] = base.gram_op
                    arrays[f"gasp_{item}"] = base.gram_asp
                files[name] = self._write(staging / name, _npz_bytes(arrays))
                target, max_comparisons, min_reviews, scheme, lam = key
                artifact_entries.append(
                    {
                        "file": name,
                        "target": target,
                        "max_comparisons": max_comparisons,
                        "min_reviews": min_reviews,
                        "scheme": scheme,
                        "lam": lam,
                        "items": len(artifacts.solver),
                    }
                )

            manifest = {
                "format": _FORMAT,
                "version": version,
                "loads": loads,
                "lineage": lineage,
                "epochs": epochs,
                "wal_seq": int(wal_seq),
                "checksums": files,
                "artifacts": artifact_entries,
                "products": len(corpus.products),
                "reviews": len(corpus.reviews),
            }
            self._write(
                staging / _MANIFEST,
                json.dumps(manifest, indent=2, sort_keys=True).encode(),
            )
            fsync_directory(staging)
            final = self.root / f"snap-{loads:08d}"
            if final.exists():  # re-snapshot of the same generation
                shutil.rmtree(final)
            os.replace(staging, final)
            fsync_directory(self.root)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._prune(lineage)
        return SnapshotInfo(
            path=final,
            version=version,
            loads=loads,
            wal_seq=int(wal_seq),
            artifacts=len(exported),
        )

    @staticmethod
    def _write(path: Path, data: bytes) -> int:
        with path.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return checksum(data)

    def _sweep_orphans(self) -> None:
        for orphan in self.root.glob(".tmp-snap-*"):
            shutil.rmtree(orphan, ignore_errors=True)

    def _prune(self, lineage: str) -> None:
        """Keep the newest ``keep`` snapshots, all of ``lineage``: a reload
        is not a WAL record, so no fallback may cross one."""
        *older, _newest = self.list_snapshots()
        for rank, path in enumerate(reversed(older), start=2):
            if rank > self.keep or _manifest_value(path, "lineage") != lineage:
                shutil.rmtree(path, ignore_errors=True)

    def oldest_watermark(self) -> int:
        """The oldest kept snapshot's WAL watermark (0 if unreadable):
        compacting no further keeps every kept snapshot's replay tail."""
        snapshots = self.list_snapshots()
        seq = _manifest_value(snapshots[0], "wal_seq") if snapshots else 0
        return seq if type(seq) is int else 0

    # -- load ----------------------------------------------------------------

    def _read_verified(self, path: Path, expected_crc: int) -> bytes:
        data = path.read_bytes()
        if checksum(data) != expected_crc:
            raise SnapshotCorruptError(f"{path}: checksum mismatch")
        return data

    def load_snapshot(self, path: Path) -> tuple[ItemStore, dict]:
        """Restore one snapshot directory into a fresh ItemStore.

        Raises :class:`SnapshotCorruptError` on any checksum, structure,
        or version-identity failure — the caller falls back to an older
        snapshot rather than serving questionable state.
        """
        manifest_path = path / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotCorruptError(f"{manifest_path}: {exc}") from exc
        if manifest.get("format") not in _READABLE_FORMATS:
            raise SnapshotCorruptError(
                f"{path}: unsupported snapshot format {manifest.get('format')!r}"
            )
        checksums = manifest.get("checksums", {})
        try:
            corpus_blob = self._read_verified(
                path / _CORPUS, int(checksums[_CORPUS])
            )
            name, products, reviews = pickle.loads(corpus_blob)
            corpus = Corpus(name, products, reviews)
            store = ItemStore.restore(
                corpus,
                loads=int(manifest["loads"]),
                lineage=str(manifest["lineage"]),
                epochs=manifest.get("epochs", {}),
                expected_version=str(manifest["version"]),
            )
        except SnapshotCorruptError:
            raise
        except Exception as exc:
            raise SnapshotCorruptError(f"{path}: {exc}") from exc

        restored = 0
        for entry in manifest.get("artifacts", ()):
            try:
                blob = self._read_verified(
                    path / entry["file"], int(checksums[entry["file"]])
                )
                with np.load(io.BytesIO(blob)) as arrays:
                    items = int(entry["items"])
                    store.restore_artifacts(
                        entry["target"],
                        entry["max_comparisons"],
                        int(entry["min_reviews"]),
                        OpinionScheme(entry["scheme"]),
                        float(entry["lam"]),
                        incidence=[
                            (arrays[f"op_{i}"], arrays[f"asp_{i}"])
                            for i in range(items)
                        ],
                        base_grams=[
                            (arrays[f"gop_{i}"], arrays[f"gasp_{i}"])
                            for i in range(items)
                        ],
                    )
                restored += 1
            except SnapshotCorruptError:
                raise
            except Exception as exc:
                raise SnapshotCorruptError(
                    f"{path}/{entry.get('file')}: {exc}"
                ) from exc
        manifest["_restored_artifacts"] = restored
        return store, manifest


def open_durable_store(
    state_dir: str | Path,
    *,
    corpus_path: str | Path | None = None,
    keep_snapshots: int = 2,
    wal_fsync: bool = True,
) -> tuple[ItemStore, WriteAheadLog, SnapshotManager, RecoveryInfo]:
    """Open (or recover) the durable serving state under ``state_dir``.

    Recovery order: newest intact snapshot, then WAL records newer than
    the snapshot's watermark, replayed in sequence order.  With no
    snapshot at all, the corpus is cold-loaded from ``corpus_path`` and
    the *entire* WAL replays on top.  Corrupt snapshots are skipped
    (recorded in the provenance) — never trusted, never deleted here.
    :class:`SnapshotError` refuses, touching no file, a cold start when
    every snapshot is corrupt, and a WAL that begins past the watermark
    + 1 (seq 1 for a cold start): either may hide acked deltas, or a
    reload, that recovery cannot rebuild.

    A delta that was fsynced but never acknowledged (crash inside the
    ack window) legally reappears after recovery; nothing acknowledged
    is ever lost.  Duplicate replay against a snapshot that already
    contains a delta cannot happen because the watermark is recorded at
    save time, but replay still tolerates it defensively.
    """
    from repro.serve.store import DeltaValidationError

    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    wal = WriteAheadLog(state_dir / "ingest.wal", fsync=wal_fsync)
    manager = SnapshotManager(state_dir / "snapshots", keep=keep_snapshots)

    store: ItemStore | None = None
    info = RecoveryInfo(mode="cold", version="")
    wal_seq = 0
    for snapshot_path in reversed(manager.list_snapshots()):
        try:
            store, manifest = manager.load_snapshot(snapshot_path)
        except SnapshotCorruptError as exc:
            info.snapshots_skipped += 1
            info.errors.append(str(exc))
            continue
        info.mode = "snapshot"
        info.snapshot_version = manifest["version"]
        info.restored_artifacts = manifest.get("_restored_artifacts", 0)
        wal_seq = int(manifest.get("wal_seq", 0))
        break

    if store is None and info.snapshots_skipped:
        # A snapshot may hold a reload, or deltas the WAL no longer has.
        raise SnapshotError(
            f"{manager.root}: no snapshot is readable ({info.errors[0]})"
        )
    # Sequence numbers are contiguous: a log that begins past the next
    # expected record has lost acked deltas.
    first_seq = next(wal.replay(), (wal_seq + 1,))[0]
    if first_seq > wal_seq + 1:
        raise SnapshotError(
            f"{wal.path}: begins at seq {first_seq}, not {wal_seq + 1}: "
            "acked deltas are missing"
        )
    wal.raise_floor(wal_seq)  # compaction may have emptied the log

    if store is None:
        if corpus_path is None:
            raise SnapshotError(
                f"{state_dir}: no usable snapshot and no corpus_path to "
                "cold-load from"
            )
        store = ItemStore(load_corpus(corpus_path))

    for seq, payload in wal.replay(after_seq=wal_seq):
        if payload.get("kind") != "delta":
            continue
        try:
            reviews = [review_from_record(r) for r in payload.get("reviews", ())]
            outcome = store.apply_delta(reviews)
        except (DeltaValidationError, ValueError) as exc:
            # Defensive: a record the live path acknowledged can never be
            # invalid against the state it was validated on; surviving a
            # duplicate here beats refusing to start.
            info.errors.append(f"wal seq {seq}: {exc}")
            continue
        info.replayed_deltas += 1
        info.replayed_reviews += outcome.added
        if info.mode == "snapshot":
            info.mode = "snapshot+wal"
        elif info.mode == "cold":
            info.mode = "cold+wal"

    info.version = store.version
    info.wal_torn_tail_bytes = wal.stats().torn_tail_bytes
    return store, wal, manager, info
