"""Precomputed per-instance artifact store for online serving.

The batch CLI rebuilds everything per invocation: parse the corpus,
resolve the comparison instance, derive the vector space and each item's
incidence matrices and Gram blocks, then solve.  Online, only the *solve*
should be per-request work — the rest is a pure function of the corpus
and a handful of shaping parameters, so :class:`ItemStore` ingests the
corpus once and memoises those artifacts behind versioned keys.

Versioning: every (re)load bumps a monotonic generation counter and
recomputes a content fingerprint; :attr:`ItemStore.version` concatenates
the two.  Cache keys that embed the version (the engine's result cache
does) can therefore never serve artifacts from a previous corpus, and
:meth:`ItemStore.reload` explicitly drops every memoised artifact.

Artifacts are immutable from the caller's perspective: the store hands
out the same :class:`InstanceArtifacts` object for repeated lookups, and
callers must not mutate the contained arrays (the memoised
:class:`~repro.core.vectors.VectorSpace` incidences are shared).
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.omp_kernel import SolverArtifacts
from repro.core.problem import SelectionConfig
from repro.core.vectors import OpinionScheme, VectorSpace
from repro.data.corpus import Corpus
from repro.data.instances import ComparisonInstance, build_instance
from repro.data.io import load_corpus
from repro.data.models import Review

logger = logging.getLogger(__name__)


class UnknownTargetError(LookupError):
    """The requested target product is not in the corpus."""


class UnviableTargetError(LookupError):
    """The target exists but yields no comparison instance (too few
    reviews or no usable comparative items)."""


class CorpusValidationError(ValueError):
    """A candidate corpus failed pre-swap validation (HTTP 409).

    Raised by :meth:`ItemStore.safe_reload` *before* any swap happens,
    so the store keeps serving the previous generation unchanged — the
    rollback is that no roll-forward ever occurred.
    """


class ReloadInProgress(RuntimeError):
    """Another validated reload is still running (HTTP 409)."""


class DeltaValidationError(ValueError):
    """A review delta failed validation (HTTP 400/409).

    Raised by :meth:`ItemStore.apply_delta` *before* any state changes,
    so a rejected delta leaves the served generation untouched.  The
    ``conflict`` flag distinguishes malformed input (400) from input
    that is well-formed but clashes with current state — a duplicate
    review id, typically a retry of an already-applied delta (409).
    """

    def __init__(self, message: str, *, conflict: bool = False) -> None:
        super().__init__(message)
        self.conflict = conflict


def check_delta(
    reviews: Sequence[Review],
    has_product: Callable[[str], bool],
    known: frozenset[str],
) -> set[str]:
    """Refuse a delta batch at its first offending review.

    ``has_product`` says whether the catalogue holds a product id, and
    ``known`` holds the review ids already stored.  Returns the batch's
    review ids; raises :class:`DeltaValidationError` (``conflict=True``
    for a duplicate review id).  The cluster gateway runs the same
    checks over its whole catalogue before it fans a delta out.
    """
    if not reviews:
        raise DeltaValidationError("delta contains no reviews")
    batch_ids: set[str] = set()
    for review in reviews:
        if not isinstance(review, Review):
            raise DeltaValidationError(
                f"delta entries must be reviews; got {type(review).__name__}"
            )
        if not has_product(review.product_id):
            raise DeltaValidationError(
                f"review {review.review_id!r} references unknown "
                f"product {review.product_id!r}"
            )
        if review.review_id in known or review.review_id in batch_ids:
            raise DeltaValidationError(
                f"duplicate review id {review.review_id!r}",
                conflict=True,
            )
        batch_ids.add(review.review_id)
    return batch_ids


@dataclass(frozen=True, slots=True)
class DeltaOutcome:
    """Result of one applied review delta.

    ``patched`` / ``rebuilt`` count memoised artifacts whose candidate
    set touched an affected product: patched ones were extended in place
    via the bordered-Gram path, rebuilt ones were dropped for a lazy cold
    rebuild (candidate-set or vocabulary change, or a patch-verify
    mismatch — the latter also counted in ``verify_failures``).
    ``patch_ms`` is the wall time of the whole carry-over pass.
    """

    version: str
    affected: tuple[str, ...]
    added: int
    patched: int = 0
    rebuilt: int = 0
    verify_failures: int = 0
    patch_ms: float = 0.0


@dataclass(frozen=True)
class InstanceArtifacts:
    """Everything precomputable for one (instance, scheme, lambda) triple.

    ``space`` carries the per-review incidence memoisation, so a solve
    computes tau_i and Gamma from it without walking the tokenised corpus.
    ``solver[i]`` is item i's Batch-OMP
    :class:`~repro.core.omp_kernel.SolverArtifacts`: the incidence
    matrices of its Eq.-4 matrix [O; lambda*A], their dedup groups and
    Gram blocks, so warm requests skip dedup + Gram entirely, and the
    CompaReSetS+ per-``mu`` sync blocks memoise inside it on first use.
    ``chain`` is the generation chain (see :attr:`chain_token`).  Like
    everything here, it is versioned with the store generation and dropped
    wholesale on reload.
    """

    version: str
    instance: ComparisonInstance
    space: VectorSpace
    solver: tuple[SolverArtifacts, ...]
    chain: tuple

    @property
    def comparative_ids(self) -> tuple[str, ...]:
        """Product ids of the comparative items p_2..p_n."""
        return tuple(p.product_id for p in self.instance.comparatives)

    @property
    def chain_token(self) -> str:
        """The generation chain as a flat string, for cross-process keys.

        ``chain`` is ``(lineage, ((product_id, epoch), ...))``: the
        lineage names the full corpus load this generation descends
        from, and each ``(product_id, epoch)`` pair counts how many
        deltas have touched that product since.  A cache entry keyed on
        this token stays valid across deltas to *other* products and
        across restarts (deterministic WAL replay reproduces the same
        lineage and epochs), but can never be served after a delta to
        any product in its instance.
        """
        lineage, epochs = self.chain
        pairs = ",".join(f"{pid}:{epoch}" for pid, epoch in epochs)
        return f"{lineage}|{pairs}"


@dataclass(frozen=True, slots=True)
class _InstanceKey:
    target: str
    max_comparisons: int | None
    min_reviews: int


@dataclass(frozen=True, slots=True)
class _ArtifactKey:
    instance_key: _InstanceKey
    scheme: OpinionScheme
    lam: float


@dataclass
class _Generation:
    """One loaded corpus plus its memoised artifacts (dropped on reload).

    ``lineage`` is the version string of the *full corpus load* this
    generation descends from; review deltas produce new generations that
    keep the lineage and bump per-product ``epochs`` instead.  The pair
    feeds :attr:`InstanceArtifacts.chain`, which is what the engine's
    result cache keys on — so a delta invalidates only cache entries
    whose instance contains an affected product, while a full reload
    (new lineage) invalidates everything.
    """

    corpus: Corpus
    version: str
    lineage: str = ""
    epochs: dict[str, int] = field(default_factory=dict)
    review_ids: frozenset[str] | None = None
    instances: dict[_InstanceKey, ComparisonInstance | None] = field(
        default_factory=dict
    )
    artifacts: dict[_ArtifactKey, InstanceArtifacts] = field(default_factory=dict)


def corpus_fingerprint(corpus: Corpus) -> str:
    """A short content hash of the corpus identity.

    Hashes product ids (with their also-bought lists) and review ids —
    the facts that determine instance construction — rather than full
    review texts, so fingerprinting a million-review corpus stays cheap.
    """
    digest = hashlib.sha256()
    digest.update(corpus.name.encode())
    for product in corpus.products:
        digest.update(product.product_id.encode())
        for other in product.also_bought:
            digest.update(other.encode())
        digest.update(b"|")
    for review in corpus.reviews:
        digest.update(review.review_id.encode())
    return digest.hexdigest()[:12]


def delta_fingerprint(previous_version: str, reviews: Sequence[Review]) -> str:
    """Lineage-chained fingerprint of a delta generation.

    Hashes the previous generation's *version string* plus the canonical
    identity of the delta batch (review and product ids, in batch order),
    so computing a successor fingerprint is O(delta) instead of the full
    :func:`corpus_fingerprint` rehash.  Deterministic by construction:
    replaying the same delta sequence from the same starting generation
    (WAL replay, replica convergence) reproduces the same chain of
    version strings.
    """
    digest = hashlib.sha256()
    digest.update(previous_version.encode())
    for review in reviews:
        digest.update(b"\x00")
        digest.update(review.review_id.encode())
        digest.update(b"\x1f")
        digest.update(review.product_id.encode())
    return digest.hexdigest()[:12]


def _patch_mismatch(
    patched: InstanceArtifacts, cold: InstanceArtifacts
) -> str | None:
    """Where ``patched`` diverges from ``cold`` byte-for-byte, or None.

    The comparison forces the lazy Gram blocks on both sides, so verify
    mode trades the patch's laziness for a full cross-check — that is the
    point of the mode.
    """
    if len(patched.solver) != len(cold.solver):
        return "item count"
    for index, (ours, theirs) in enumerate(zip(patched.solver, cold.solver)):
        if ours._opinion.tobytes() != theirs._opinion.tobytes():
            return f"solver[{index}].opinion"
        if ours._aspect.tobytes() != theirs._aspect.tobytes():
            return f"solver[{index}].aspect"
        where = _block_mismatch(ours.base_block(), theirs.base_block())
        if where is not None:
            return f"solver[{index}].base.{where}"
        with ours._lock:
            mus = sorted(ours._plus)
        for mu in mus:
            where = _block_mismatch(
                ours.plus_block(mu), theirs.plus_block(mu)
            )
            if where is not None:
                return f"solver[{index}].plus[{mu}].{where}"
    return None


def _block_mismatch(patched, cold) -> str | None:
    if patched.groups != cold.groups:
        return "groups"
    if not np.array_equal(patched.capacities, cold.capacities):
        return "capacities"
    if not np.array_equal(patched.column_group, cold.column_group):
        return "column_group"
    if patched._dedup_matrix.tobytes() != cold._dedup_matrix.tobytes():
        return "dedup_matrix"
    if patched.unique_opinion.tobytes() != cold.unique_opinion.tobytes():
        return "unique_opinion"
    if patched.unique_aspect.tobytes() != cold.unique_aspect.tobytes():
        return "unique_aspect"
    if patched.gram_op.tobytes() != cold.gram_op.tobytes():
        return "gram_op"
    if patched.gram_asp.tobytes() != cold.gram_asp.tobytes():
        return "gram_asp"
    return None


class ItemStore:
    """Versioned, thread-safe store of precomputed selection artifacts."""

    def __init__(self, corpus: Corpus) -> None:
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._loads = 0
        #: When True, every artifact patched by a delta is cross-checked
        #: byte-for-byte against a cold build of the new generation; a
        #: mismatch logs loudly and serves the cold build instead.
        self.patch_verify = False
        self._generation = self._ingest(corpus)

    @classmethod
    def from_path(cls, path: str | Path) -> "ItemStore":
        """Load a JSONL corpus file and ingest it."""
        return cls(load_corpus(path))

    def _ingest(self, corpus: Corpus) -> _Generation:
        self._loads += 1
        version = f"g{self._loads}-{corpus_fingerprint(corpus)}"
        return _Generation(corpus=corpus, version=version, lineage=version)

    @classmethod
    def restore(
        cls,
        corpus: Corpus,
        *,
        loads: int,
        lineage: str,
        epochs: Mapping[str, int] | None = None,
        expected_version: str | None = None,
    ) -> "ItemStore":
        """Rebuild a store at an exact prior generation (snapshot restore).

        Sets the generation counter so ``version`` comes out byte-identical
        to the generation that was persisted — the recovery invariant the
        chaos suite asserts.  ``expected_version`` makes the check explicit:
        a mismatch means the snapshot does not describe ``corpus`` and the
        restore must not be trusted.
        """
        if loads < 1:
            raise ValueError(f"loads must be >= 1; got {loads}")
        store = cls.__new__(cls)
        store._lock = threading.Lock()
        store._reload_lock = threading.Lock()
        store.patch_verify = False
        delta_epochs = {p: int(e) for p, e in (epochs or {}).items() if e}
        if delta_epochs:
            # Delta-descended generation: its fingerprint is a lineage
            # chain over the applied deltas (see :func:`delta_fingerprint`)
            # and cannot be recomputed from the corpus alone — trust the
            # (checksummed) snapshot manifest's version string.
            if expected_version is None:
                raise ValueError(
                    "expected_version is required to restore a "
                    "delta-descended generation"
                )
            store._loads = loads
            store._generation = _Generation(
                corpus=corpus,
                version=expected_version,
                lineage=lineage,
                epochs=delta_epochs,
            )
            return store
        store._loads = loads - 1
        generation = store._ingest(corpus)
        generation.lineage = lineage
        store._generation = generation
        if expected_version is not None and generation.version != expected_version:
            raise ValueError(
                f"restored version {generation.version!r} != expected "
                f"{expected_version!r}: snapshot does not match corpus"
            )
        return store

    # -- corpus access -------------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        with self._lock:
            return self._generation.corpus

    @property
    def version(self) -> str:
        """Generation counter + content fingerprint, e.g. ``"g1-ab12cd34ef56"``."""
        with self._lock:
            return self._generation.version

    def reload(self, corpus: Corpus) -> str:
        """Swap in a new corpus; invalidates every memoised artifact.

        Returns the new version.  Lookups that raced the reload finish
        against the old generation's (still immutable) artifacts; their
        version string marks them as stale for any versioned cache.
        """
        generation = self._ingest(corpus)
        with self._lock:
            self._generation = generation
        return generation.version

    def validate_corpus(
        self,
        corpus: Corpus,
        *,
        max_comparisons: int | None = 10,
        min_reviews: int = 3,
    ) -> str:
        """Check that ``corpus`` is actually servable; return its fingerprint.

        Validation is the cheap end-to-end path a first request would
        take: non-empty corpus, computable content fingerprint, at least
        one viable comparison instance under the default shaping
        parameters, and a solvable smoke selection (greedy, ``m=1``) on
        that instance.  Raises :class:`CorpusValidationError` with the
        specific failure; never touches the store's served generation.
        """
        from repro.core.selection import make_selector

        if not corpus.products:
            raise CorpusValidationError("corpus has no products")
        if not corpus.reviews:
            raise CorpusValidationError("corpus has no reviews")
        fingerprint = corpus_fingerprint(corpus)
        instance = None
        for product in corpus.products:
            instance = build_instance(
                corpus,
                product.product_id,
                max_comparisons=max_comparisons,
                min_reviews=min_reviews,
            )
            if instance is not None:
                break
        if instance is None:
            raise CorpusValidationError(
                "corpus has no viable comparison instance "
                f"(needs >= {min_reviews} reviews and a comparable item)"
            )
        smoke = SelectionConfig(
            max_reviews=1, lam=1.0, mu=0.1, scheme=OpinionScheme.BINARY
        )
        try:
            make_selector("CompaReSetS_Greedy").select(instance, smoke)
        except Exception as exc:
            raise CorpusValidationError(
                f"smoke selection failed on target "
                f"{instance.target.product_id!r}: {type(exc).__name__}: {exc}"
            ) from exc
        return fingerprint

    def safe_reload(self, corpus: Corpus) -> str:
        """Validate ``corpus``, then atomically swap it in; return the version.

        The old generation keeps serving (lock-free for readers already
        holding its artifacts) throughout validation — a corpus that
        fails raises :class:`CorpusValidationError` and leaves the store
        exactly as it was.  Only one validated reload may run at a time;
        a second concurrent call raises :class:`ReloadInProgress` rather
        than queueing behind a potentially slow validation.
        """
        if not self._reload_lock.acquire(blocking=False):
            raise ReloadInProgress("another corpus reload is still validating")
        try:
            self.validate_corpus(corpus)
            return self.reload(corpus)
        finally:
            self._reload_lock.release()

    # -- delta ingest --------------------------------------------------------

    def apply_delta(self, reviews: Sequence[Review]) -> DeltaOutcome:
        """Append ``reviews`` to the corpus as a new generation.

        Validates the whole batch first (all-or-nothing): every review
        must reference a known product and carry a review id not already
        in the corpus.  On success the generation counter bumps and the
        affected products' epochs advance; memoised instances/artifacts
        whose candidate set is untouched carry over, so a delta to one
        product does not cold-start every other target.

        Deterministic by construction: applying the same delta sequence
        to the same starting generation always yields the same version
        string and chain epochs — WAL replay depends on this.
        """
        with self._reload_lock:
            with self._lock:
                generation = self._generation
            corpus = generation.corpus
            known, batch_ids = self._check_delta(generation, reviews)

            delta = tuple(reviews)
            new_corpus = corpus.with_appended_reviews(delta)
            affected = tuple(sorted({r.product_id for r in delta}))
            delta_by_product: dict[str, list[Review]] = {}
            for review in delta:
                delta_by_product.setdefault(review.product_id, []).append(review)
            epochs = dict(generation.epochs)
            for pid in affected:
                epochs[pid] = epochs.get(pid, 0) + 1
            self._loads += 1
            version = f"g{self._loads}-{delta_fingerprint(generation.version, delta)}"
            successor = _Generation(
                corpus=new_corpus,
                version=version,
                lineage=generation.lineage,
                epochs=epochs,
                review_ids=known | batch_ids,
            )
            began = time.perf_counter()
            patched, rebuilt, failures = self._carry_over(
                generation, successor, set(affected), delta_by_product
            )
            patch_ms = (time.perf_counter() - began) * 1e3
            with self._lock:
                self._generation = successor
            return DeltaOutcome(
                version=version,
                affected=affected,
                added=len(delta),
                patched=patched,
                rebuilt=rebuilt,
                verify_failures=failures,
                patch_ms=patch_ms,
            )

    @staticmethod
    def _check_delta(
        generation: _Generation, reviews: Sequence[Review]
    ) -> tuple[frozenset[str], set[str]]:
        """:func:`check_delta` against ``generation``, without mutating.

        Returns ``(known_review_ids, batch_review_ids)`` for the caller
        to thread into the successor generation.
        """
        corpus = generation.corpus
        known = generation.review_ids
        if known is None:
            known = frozenset(r.review_id for r in corpus.reviews)
        return known, check_delta(reviews, corpus.has_product, known)

    def validate_delta(self, reviews: Sequence[Review]) -> tuple[str, ...]:
        """Check a delta batch against the live generation; no mutation.

        Returns the sorted affected product ids the batch would touch.
        The engine calls this *before* appending the batch to the WAL so
        an invalid delta is rejected without ever being logged — the WAL
        only carries records that will apply cleanly on replay.
        """
        with self._lock:
            generation = self._generation
        self._check_delta(generation, reviews)
        return tuple(sorted({r.product_id for r in reviews}))

    def _carry_over(
        self,
        old: _Generation,
        new: _Generation,
        affected: set[str],
        delta_by_product: Mapping[str, Sequence[Review]],
    ) -> tuple[int, int, int]:
        """Carry memoised instances/artifacts across a delta.

        An instance for target T depends on T plus T's in-corpus
        also-bought *candidates* — not just the products that made it
        into the instance, because a delta can push a previously
        under-reviewed candidate over ``min_reviews`` and change the
        comparative set.  Untouched entries carry over by reference
        (solve memos and all).  Touched artifacts take the patch path:
        if the comparative set and aspect vocabulary are unchanged, each
        touched item's solver artifacts are *extended* — incremental
        dedup and bordered-Gram updates, O(delta) per item — instead of
        dropped; otherwise they are dropped for a lazy cold rebuild.

        Returns ``(patched, rebuilt, verify_failures)``.
        """
        corpus = old.corpus
        # Readers still memoise into the old generation under the lock.
        with self._lock:
            old_instances = list(old.instances.items())
            old_artifacts = list(old.artifacts.items())
        safe_targets: dict[str, bool] = {}

        def target_safe(target_id: str) -> bool:
            cached = safe_targets.get(target_id)
            if cached is not None:
                return cached
            if target_id in affected:
                safe_targets[target_id] = False
                return False
            product = corpus.product(target_id)
            safe = not any(
                pid in affected
                for pid in product.also_bought
                if corpus.has_product(pid)
            )
            safe_targets[target_id] = safe
            return safe

        for key, instance in old_instances:
            if target_safe(key.target):
                new.instances[key] = instance

        patched = rebuilt = verify_failures = 0
        instances: dict[_InstanceKey, ComparisonInstance | None] = {}
        for art_key, artifacts in old_artifacts:
            key = art_key.instance_key
            if target_safe(key.target):
                new.artifacts[art_key] = dataclasses.replace(
                    artifacts, version=new.version
                )
                continue
            if key not in instances:
                # The rebuilt instance is correct for the new corpus
                # whether or not the patch goes through; cache it so a
                # later cold build does not redo the lookup work.
                instances[key] = build_instance(
                    new.corpus,
                    key.target,
                    max_comparisons=key.max_comparisons,
                    min_reviews=key.min_reviews,
                )
                new.instances[key] = instances[key]
            instance = instances[key]
            successor = self._patched_artifacts(
                new, artifacts, instance, delta_by_product
            )
            if successor is None:
                rebuilt += 1
                continue
            if self.patch_verify:
                cold = self._build_artifacts(new, art_key, instance)
                mismatch = _patch_mismatch(successor, cold)
                if mismatch is not None:
                    verify_failures += 1
                    rebuilt += 1
                    logger.error(
                        "patched artifacts for target %r (scheme=%s, lam=%g) "
                        "diverged from cold build at %s; serving the cold "
                        "build instead",
                        key.target,
                        art_key.scheme.value,
                        art_key.lam,
                        mismatch,
                    )
                    new.artifacts[art_key] = cold
                    continue
            new.artifacts[art_key] = successor
            patched += 1
        return patched, rebuilt, verify_failures

    def _patched_artifacts(
        self,
        new: _Generation,
        artifacts: InstanceArtifacts,
        instance: ComparisonInstance | None,
        delta_by_product: Mapping[str, Sequence[Review]],
    ) -> InstanceArtifacts | None:
        """Extend ``artifacts`` to cover ``instance`` on the new corpus.

        Returns None when the entry is not patchable — the comparative
        set changed, the delta introduces unseen aspects (the vector
        space would change dimensions), or the review sequences do not
        line up as pure appends — in which case the caller drops it for
        a lazy cold rebuild.
        """
        old_instance = artifacts.instance
        if instance is None:
            return None
        if tuple(p.product_id for p in instance.products) != tuple(
            p.product_id for p in old_instance.products
        ):
            return None
        space = artifacts.space
        for product in instance.products:
            for review in delta_by_product.get(product.product_id, ()):
                if not space.covers(review.aspects):
                    return None
        for index, product in enumerate(instance.products):
            old_reviews = old_instance.reviews[index]
            new_reviews = instance.reviews[index]
            delta = delta_by_product.get(product.product_id, ())
            if len(new_reviews) != len(old_reviews) + len(delta):
                return None
            if old_reviews and (
                new_reviews[0] is not old_reviews[0]
                or new_reviews[len(old_reviews) - 1] is not old_reviews[-1]
            ):
                return None
            if any(
                new_reviews[len(old_reviews) + offset] is not review
                for offset, review in enumerate(delta)
            ):
                return None
        solver: list[SolverArtifacts] = []
        for item, product in zip(artifacts.solver, instance.products):
            delta = delta_by_product.get(product.product_id, ())
            solver.append(item.extended(delta) if delta else item)
        return InstanceArtifacts(
            version=new.version,
            instance=instance,
            space=space,
            solver=tuple(solver),
            chain=self._chain_for(new, instance),
        )

    def _build_artifacts(
        self,
        generation: _Generation,
        art_key: _ArtifactKey,
        instance: ComparisonInstance,
    ) -> InstanceArtifacts:
        """Cold-build artifacts for ``instance`` (no cache interaction)."""
        space = VectorSpace(instance.aspect_vocabulary(), art_key.scheme)
        return InstanceArtifacts(
            version=generation.version,
            instance=instance,
            space=space,
            solver=tuple(
                SolverArtifacts(space, reviews, art_key.lam)
                for reviews in instance.reviews
            ),
            chain=self._chain_for(generation, instance),
        )

    def chain_state(self) -> tuple[int, str, dict[str, int]]:
        """``(loads, lineage, epochs)`` — what a snapshot must persist to
        reproduce this generation's version and chain keys exactly."""
        with self._lock:
            generation = self._generation
            return self._loads, generation.lineage, dict(generation.epochs)

    def export_artifacts(self) -> list[tuple[tuple, InstanceArtifacts]]:
        """Snapshot hook: every memoised artifact with its flattened key.

        Keys come out as ``(target, max_comparisons, min_reviews,
        scheme_value, lam)`` — plain JSON-able values the snapshot
        manifest can round-trip.
        """
        with self._lock:
            generation = self._generation
            return [
                (
                    (
                        key.instance_key.target,
                        key.instance_key.max_comparisons,
                        key.instance_key.min_reviews,
                        key.scheme.value,
                        key.lam,
                    ),
                    artifacts,
                )
                for key, artifacts in generation.artifacts.items()
            ]

    def restore_artifacts(
        self,
        target: str,
        max_comparisons: int | None,
        min_reviews: int,
        scheme: OpinionScheme,
        lam: float,
        *,
        incidence: Sequence[tuple[np.ndarray, np.ndarray]],
        base_grams: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> InstanceArtifacts | None:
        """Reinstall one memoised artifact from persisted arrays.

        The instance itself is rebuilt from the (restored) corpus — that
        is cheap id/lookup work — while the expensive derived arrays
        (incidence matrices and base Gram blocks) are injected from the
        snapshot instead of recomputed.  Returns None
        when the target is no longer viable under these parameters,
        which only happens if the snapshot does not match the corpus.
        """
        with self._lock:
            generation = self._generation
        instance_key = _InstanceKey(target, max_comparisons, min_reviews)
        artifact_key = _ArtifactKey(instance_key, scheme, lam)
        instance = self._instance_for(generation, instance_key)
        if instance is None:
            return None
        space = VectorSpace(instance.aspect_vocabulary(), scheme)
        solver = tuple(
            SolverArtifacts(
                space,
                reviews,
                lam,
                incidence=incidence[index],
                base_grams=base_grams[index],
            )
            for index, reviews in enumerate(instance.reviews)
        )
        built = InstanceArtifacts(
            version=generation.version,
            instance=instance,
            space=space,
            solver=solver,
            chain=self._chain_for(generation, instance),
        )
        with self._lock:
            generation.artifacts.setdefault(artifact_key, built)
            return generation.artifacts[artifact_key]

    def default_target(self, max_comparisons: int | None, min_reviews: int) -> str:
        """The first viable target product id (the CLI's default choice)."""
        with self._lock:
            generation = self._generation
        for product in generation.corpus.products:
            instance = self._instance_for(
                generation,
                _InstanceKey(product.product_id, max_comparisons, min_reviews),
            )
            if instance is not None:
                return product.product_id
        raise UnviableTargetError("no viable target item in the corpus")

    # -- artifact lookup -----------------------------------------------------

    def _instance_for(
        self, generation: _Generation, key: _InstanceKey
    ) -> ComparisonInstance | None:
        with self._lock:
            if key in generation.instances:
                return generation.instances[key]
        if not generation.corpus.has_product(key.target):
            raise UnknownTargetError(
                f"target {key.target!r} is not in the corpus"
            )
        instance = build_instance(
            generation.corpus,
            key.target,
            max_comparisons=key.max_comparisons,
            min_reviews=key.min_reviews,
        )
        with self._lock:
            generation.instances.setdefault(key, instance)
            return generation.instances[key]

    def artifacts(
        self,
        target: str,
        config: SelectionConfig,
        max_comparisons: int | None = 10,
        min_reviews: int = 3,
    ) -> InstanceArtifacts:
        """The precomputed artifacts for ``target`` under ``config``.

        Raises :class:`UnknownTargetError` / :class:`UnviableTargetError`
        for targets that cannot form an instance.  Only ``config.scheme``
        and ``config.lam`` shape the artifacts; ``m`` and ``mu`` vary per
        request without invalidating anything.
        """
        with self._lock:
            generation = self._generation
        instance_key = _InstanceKey(target, max_comparisons, min_reviews)
        artifact_key = _ArtifactKey(instance_key, config.scheme, config.lam)
        with self._lock:
            cached = generation.artifacts.get(artifact_key)
        if cached is not None:
            return cached

        instance = self._instance_for(generation, instance_key)
        if instance is None:
            raise UnviableTargetError(
                f"target {target!r} is not a viable instance "
                f"(needs >= {min_reviews} reviews and a comparable item)"
            )
        built = self._build_artifacts(generation, artifact_key, instance)
        with self._lock:
            # First build wins so every caller shares one artifact object
            # (and one memoised VectorSpace).
            generation.artifacts.setdefault(artifact_key, built)
            return generation.artifacts[artifact_key]

    @staticmethod
    def _chain_for(
        generation: _Generation, instance: ComparisonInstance
    ) -> tuple:
        return (
            generation.lineage,
            tuple(
                sorted(
                    (p.product_id, generation.epochs.get(p.product_id, 0))
                    for p in instance.products
                )
            ),
        )

    def stats(self) -> dict[str, int | str]:
        """Introspection for ``/metrics``: artifact/instance cache sizes."""
        with self._lock:
            generation = self._generation
            return {
                "version": generation.version,
                "lineage": generation.lineage,
                "products": len(generation.corpus.products),
                "reviews": len(generation.corpus.reviews),
                "cached_instances": len(generation.instances),
                "cached_artifacts": len(generation.artifacts),
                "loads": self._loads,
                "delta_epochs": sum(generation.epochs.values()),
            }
