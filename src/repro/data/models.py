"""Core data model: products, reviews, and aspect-opinion mentions.

A :class:`Review` carries the raw text (for ROUGE evaluation) plus its
aspect-opinion annotations (for the selection objectives).  Annotations may
come from the synthetic generator's ground truth or from the NLP pipeline
in :mod:`repro.text.sentiment` — the selection algorithms never look at the
text, matching the paper's "we consider them as given" stance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class AspectMention:
    """One aspect-opinion pair inside a review.

    ``sentiment`` is +1 (positive), -1 (negative), or 0 (neutral: the
    aspect is discussed without a polarity cue).  ``strength`` scales the
    signed sentiment for the unary-scale opinion scheme; binary and
    3-polarity schemes only use its sign.
    """

    aspect: str
    sentiment: int
    strength: float = 1.0

    def __post_init__(self) -> None:
        if self.sentiment not in (-1, 0, 1):
            raise ValueError(f"sentiment must be -1, 0, or +1; got {self.sentiment}")
        if not 0 <= self.strength < math.inf:  # NaN fails both comparisons
            raise ValueError(f"strength must be finite and >= 0; got {self.strength}")


@dataclass(frozen=True, slots=True)
class Review:
    """A single product review with its annotations."""

    review_id: str
    product_id: str
    reviewer_id: str
    rating: float
    text: str
    mentions: tuple[AspectMention, ...] = ()

    def __post_init__(self) -> None:
        if not (self.review_id and self.product_id):
            raise ValueError("review_id and product_id must be non-empty")
        if not (0.0 <= self.rating <= 5.0):
            raise ValueError(f"rating must be in [0, 5]; got {self.rating}")

    @property
    def aspects(self) -> frozenset[str]:
        """Distinct aspects mentioned in this review."""
        return frozenset(mention.aspect for mention in self.mentions)

    def sentiment_for(self, aspect: str) -> int:
        """Dominant sentiment sign for ``aspect`` in this review (0 if absent).

        When a review mentions an aspect several times with mixed polarity,
        the sign of the summed signed strength wins, matching how the
        sentiment extractor and the synthetic ground truth aggregate.
        """
        total = sum(
            mention.sentiment * mention.strength
            for mention in self.mentions
            if mention.aspect == aspect
        )
        if total > 0:
            return 1
        if total < 0:
            return -1
        return 0

    def signed_strength_for(self, aspect: str) -> float:
        """Summed signed sentiment strength for ``aspect`` (unary scheme)."""
        return sum(
            mention.sentiment * mention.strength
            for mention in self.mentions
            if mention.aspect == aspect
        )


@dataclass(frozen=True, slots=True)
class Product:
    """A product with its comparison candidates ("also bought")."""

    product_id: str
    title: str
    category: str
    also_bought: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.product_id:
            raise ValueError("product_id must be non-empty")
        if self.product_id in self.also_bought:
            raise ValueError("a product cannot be in its own also_bought list")
