"""Opinion and aspect distribution vectors pi(S) and phi(S).

Normalisation follows the paper's Working Example 1: both vectors are
per-review incidence *counts* divided by the maximum per-aspect frequency
in the set (denominator 6 for R_1 with aspect counts {6,4,4,0,0};
denominator 3 for S_1 = {r5, r6, r7}).  An empty or mention-free set maps
to the zero vector.

Three opinion schemes (§4.2.3):

* ``BINARY`` (default) — pi(S) in R_+^{2z}: per-aspect positive and
  negative incidence counts, normalised by the max aspect count.
* ``THREE_POLARITY`` — pi(S) in R_+^{3z}: adds a neutral channel.
* ``UNARY_SCALE`` — pi(S) in R_+^{z}: sigmoid of the summed signed
  sentiment per aspect (0 for unmentioned aspects).  Note the set-level
  sigmoid is *not* a linear function of the selected reviews, so the
  integer-regression proxy degrades here — exactly the regime where the
  paper reports CRS falling below Random (Table 4).
"""

from __future__ import annotations

import enum
from functools import cached_property
from collections.abc import Iterable, Sequence

import numpy as np

from repro.data.models import Review


class OpinionScheme(enum.Enum):
    """How per-aspect opinions are encoded in pi(S)."""

    BINARY = "binary"
    THREE_POLARITY = "3-polarity"
    UNARY_SCALE = "unary-scale"

    def opinion_dim(self, num_aspects: int) -> int:
        """Dimension of the opinion vector for ``num_aspects`` aspects."""
        if self is OpinionScheme.BINARY:
            return 2 * num_aspects
        if self is OpinionScheme.THREE_POLARITY:
            return 3 * num_aspects
        return num_aspects


def _sigmoid(value: float | np.ndarray) -> float | np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.asarray(value, dtype=float)))


class VectorSpace:
    """A fixed aspect ordering + opinion scheme for one problem instance.

    All vectors produced by one ``VectorSpace`` are mutually comparable.
    Reviews may mention aspects outside the space; those mentions are
    ignored (the paper's universal aspect set A is fixed per experiment).
    """

    def __init__(
        self,
        aspects: Sequence[str],
        scheme: OpinionScheme = OpinionScheme.BINARY,
    ) -> None:
        if len(set(aspects)) != len(aspects):
            raise ValueError("aspect list contains duplicates")
        self.aspects: tuple[str, ...] = tuple(aspects)
        self.scheme = scheme
        self._index: dict[str, int] = {a: i for i, a in enumerate(self.aspects)}
        # Reviews are frozen dataclasses and a VectorSpace lives per
        # instance, so per-review incidences are safe to memoise; the
        # candidate-scoring loops recompute them thousands of times.
        self._aspect_cache: dict[str, np.ndarray] = {}
        self._opinion_cache: dict[str, np.ndarray] = {}
        self._strength_cache: dict[str, np.ndarray] = {}
        # Set-level pi/phi of *tuples* of reviews (an item's full review
        # collection is a tuple; candidate selections are lists and skip
        # this).  tau_i / Gamma are per-item invariants recomputed on
        # every selector call otherwise — at hundreds of reviews per item
        # that walk dominates warm serving requests.
        self._set_cache: dict[tuple[str, ...], np.ndarray] = {}

    @property
    def num_aspects(self) -> int:
        """z — the size of the universal aspect set."""
        return len(self.aspects)

    def covers(self, aspects: Iterable[str]) -> bool:
        """Whether every aspect in ``aspects`` is in this vocabulary.

        The delta-patch path uses this to decide whether appended reviews
        would change an instance's aspect vocabulary (and hence every
        vector's dimensions) — if so, the artifacts must be rebuilt cold
        rather than extended.
        """
        return all(aspect in self._index for aspect in aspects)

    @cached_property
    def opinion_dim(self) -> int:
        """Dimension of pi vectors under the configured scheme."""
        return self.scheme.opinion_dim(self.num_aspects)

    # -- per-review incidence ------------------------------------------------

    def review_aspect_incidence(self, review: Review) -> np.ndarray:
        """Binary z-vector: 1 where ``review`` mentions the aspect.

        Cached per review id; callers must not mutate the returned array.
        """
        cached = self._aspect_cache.get(review.review_id)
        if cached is not None:
            return cached
        incidence = np.zeros(self.num_aspects)
        for mention in review.mentions:
            position = self._index.get(mention.aspect)
            if position is not None:
                incidence[position] = 1.0
        self._aspect_cache[review.review_id] = incidence
        return incidence

    def review_opinion_incidence(self, review: Review) -> np.ndarray:
        """Per-review opinion block used both for counting and as a W column.

        Binary: [pos_0, neg_0, pos_1, neg_1, ...] incidence (interleaved by
        aspect).  3-polarity adds a neutral slot per aspect.  Unary-scale
        uses sigmoid(signed strength) for mentioned aspects — a linear
        proxy for the non-linear set-level score.

        Cached per review id; callers must not mutate the returned array.
        """
        cached = self._opinion_cache.get(review.review_id)
        if cached is not None:
            return cached
        incidence = np.zeros(self.opinion_dim)
        if self.scheme is OpinionScheme.UNARY_SCALE:
            for aspect in {m.aspect for m in review.mentions}:
                position = self._index.get(aspect)
                if position is not None:
                    incidence[position] = float(
                        _sigmoid(review.signed_strength_for(aspect))
                    )
            self._opinion_cache[review.review_id] = incidence
            return incidence

        slots = 2 if self.scheme is OpinionScheme.BINARY else 3
        for aspect in {m.aspect for m in review.mentions}:
            position = self._index.get(aspect)
            if position is None:
                continue
            sign = review.sentiment_for(aspect)
            if sign > 0:
                incidence[slots * position] = 1.0
            elif sign < 0:
                incidence[slots * position + 1] = 1.0
            elif self.scheme is OpinionScheme.THREE_POLARITY:
                incidence[slots * position + 2] = 1.0
            # BINARY drops neutral mentions from pi; they still count in phi.
        self._opinion_cache[review.review_id] = incidence
        return incidence

    def review_signed_strengths(self, review: Review) -> np.ndarray:
        """Raw summed signed strength per aspect (z-vector, 0 if unmentioned).

        The unary-scale set-level pi applies the sigmoid to the *sum* of
        these per-review totals (see :meth:`opinion_vector`); the solver
        kernel accumulates the cached columns and applies the sigmoid at
        the end, reproducing that summation exactly.

        Cached per review id; callers must not mutate the returned array.
        """
        cached = self._strength_cache.get(review.review_id)
        if cached is not None:
            return cached
        totals = np.zeros(self.num_aspects)
        for aspect in {m.aspect for m in review.mentions}:
            position = self._index.get(aspect)
            if position is not None:
                totals[position] = review.signed_strength_for(aspect)
        self._strength_cache[review.review_id] = totals
        return totals

    # -- matrices -------------------------------------------------------------

    def aspect_matrix(self, reviews: Sequence[Review]) -> np.ndarray:
        """(z, N) matrix whose columns are per-review aspect incidences."""
        if not reviews:
            return np.zeros((self.num_aspects, 0))
        return np.column_stack([self.review_aspect_incidence(r) for r in reviews])

    def opinion_matrix(self, reviews: Sequence[Review]) -> np.ndarray:
        """(opinion_dim, N) matrix of per-review opinion blocks."""
        if not reviews:
            return np.zeros((self.opinion_dim, 0))
        return np.column_stack([self.review_opinion_incidence(r) for r in reviews])

    # -- set-level distributions ----------------------------------------------

    def _max_aspect_count(self, reviews: Sequence[Review]) -> float:
        counts = np.zeros(self.num_aspects)
        for review in reviews:
            counts += self.review_aspect_incidence(review)
        maximum = float(counts.max()) if counts.size else 0.0
        return maximum

    def _set_cache_key(
        self, kind: str, reviews: Iterable[Review]
    ) -> tuple[str, ...] | None:
        """A memo key for set-level vectors — tuples of reviews only.

        Review ids are unique within a corpus, so the id sequence fully
        determines the vector.  Callers must not mutate cached results
        (the same contract as the per-review incidence caches).
        """
        if isinstance(reviews, tuple) and reviews:
            return (kind, *[review.review_id for review in reviews])
        return None

    def aspect_vector(self, reviews: Iterable[Review]) -> np.ndarray:
        """phi(S): per-aspect incidence counts / max aspect count.

        Cached when ``reviews`` is a tuple (an item's full collection);
        callers must not mutate the returned array.
        """
        key = self._set_cache_key("phi", reviews)
        if key is not None:
            cached = self._set_cache.get(key)
            if cached is not None:
                return cached
        reviews = list(reviews)
        counts = np.zeros(self.num_aspects)
        for review in reviews:
            counts += self.review_aspect_incidence(review)
        maximum = float(counts.max()) if counts.size else 0.0
        result = counts if maximum == 0.0 else counts / maximum
        if key is not None:
            self._set_cache[key] = result
        return result

    def opinion_vector(self, reviews: Iterable[Review]) -> np.ndarray:
        """pi(S): opinion distribution of the review set.

        Binary / 3-polarity: opinion incidence counts normalised by the max
        *aspect* count (Working Example 1).  Unary-scale: sigmoid of the
        summed signed sentiment per mentioned aspect.

        Cached when ``reviews`` is a tuple (an item's full collection);
        callers must not mutate the returned array.
        """
        key = self._set_cache_key("pi", reviews)
        if key is not None:
            cached = self._set_cache.get(key)
            if cached is not None:
                return cached
        result = self._opinion_vector_uncached(reviews)
        if key is not None:
            self._set_cache[key] = result
        return result

    def _opinion_vector_uncached(self, reviews: Iterable[Review]) -> np.ndarray:
        reviews = list(reviews)
        if self.scheme is OpinionScheme.UNARY_SCALE:
            totals = np.zeros(self.num_aspects)
            mentioned = np.zeros(self.num_aspects, dtype=bool)
            for review in reviews:
                for aspect in {m.aspect for m in review.mentions}:
                    position = self._index.get(aspect)
                    if position is not None:
                        mentioned[position] = True
                        totals[position] += review.signed_strength_for(aspect)
            result = np.zeros(self.num_aspects)
            result[mentioned] = _sigmoid(totals[mentioned])
            return result

        counts = np.zeros(self.opinion_dim)
        for review in reviews:
            counts += self.review_opinion_incidence(review)
        maximum = self._max_aspect_count(reviews)
        if maximum == 0.0:
            return counts
        return counts / maximum

    def __repr__(self) -> str:
        return f"VectorSpace(z={self.num_aspects}, scheme={self.scheme.value!r})"


def regression_columns(
    space: VectorSpace,
    reviews: Sequence[Review],
    lam: float,
    mu: float = 0.0,
    sync_blocks: int = 0,
) -> np.ndarray:
    """Stacked per-review incidence columns for the Eq.-4 regression.

    Row layout: the opinion incidence block, the lambda-scaled aspect
    incidence block, then ``sync_blocks`` copies of the mu-scaled aspect
    block (one per other item in the Algorithm-1 target Upsilon).  With
    ``sync_blocks=0`` this is exactly the CompaReSetS matrix of Eq. 4.
    The nnls reference selectors (``use_kernel=False``) solve on it; the
    kernel's :class:`~repro.core.omp_kernel.SolverArtifacts` keeps the
    same incidence blocks unstacked.
    """
    if sync_blocks < 0:
        raise ValueError(f"sync_blocks must be >= 0, got {sync_blocks}")
    opinion = space.opinion_matrix(reviews)
    aspect = space.aspect_matrix(reviews)
    blocks = [opinion, lam * aspect]
    blocks.extend([mu * aspect] * sync_blocks)
    return np.vstack(blocks)
