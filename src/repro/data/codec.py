"""The JSON record of a review and of a product, and its one decoder.

Corpus files, ingest bodies, write-ahead-log deltas and checkpoint
journals all encode and decode reviews and products here;
``docs/DATA_FORMAT.md`` lists the fields, their defaults and what is
refused.  A record that does not decode raises :class:`CodecError`.
"""

from __future__ import annotations

from repro.data.models import AspectMention, Product, Review

_REQUIRED = object()


class CodecError(ValueError):
    """A review or product record that does not decode."""


def review_record(review: Review) -> dict:
    """The JSON-ready record of ``review``."""
    return {
        "review_id": review.review_id,
        "product_id": review.product_id,
        "reviewer_id": review.reviewer_id,
        "rating": review.rating,
        "text": review.text,
        "mentions": [
            {"aspect": m.aspect, "sentiment": m.sentiment, "strength": m.strength}
            for m in review.mentions
        ],
    }


def product_record(product: Product) -> dict:
    """The JSON-ready record of ``product``."""
    return {
        "product_id": product.product_id,
        "title": product.title,
        "category": product.category,
        "also_bought": list(product.also_bought),
    }


def review_from_record(record: object) -> Review:
    """The review a record holds; :class:`CodecError` if it holds none."""
    fields = _object(record, "review")
    try:
        return Review(
            review_id=_field(fields, "review_id", str),
            product_id=_field(fields, "product_id", str),
            reviewer_id=_field(fields, "reviewer_id", str, ""),
            rating=float(_field(fields, "rating", (int, float), 0.0)),
            text=_field(fields, "text", str, ""),
            mentions=tuple(
                _mention(mention) for mention in _field(fields, "mentions", list, [])
            ),
        )
    except (ValueError, OverflowError) as exc:  # float() of a huge int overflows
        raise CodecError(f"malformed review record: {exc}") from exc


def product_from_record(record: object) -> Product:
    """The product a record holds; :class:`CodecError` if it holds none."""
    fields = _object(record, "product")
    try:
        also_bought = _field(fields, "also_bought", list, [])
        if not all(isinstance(pid, str) for pid in also_bought):
            raise CodecError("field 'also_bought' must be a list of strings")
        return Product(
            product_id=_field(fields, "product_id", str),
            title=_field(fields, "title", str, ""),
            category=_field(fields, "category", str, ""),
            also_bought=tuple(also_bought),
        )
    except ValueError as exc:
        raise CodecError(f"malformed product record: {exc}") from exc


def _mention(record: object) -> AspectMention:
    fields = _object(record, "mention")
    return AspectMention(
        aspect=_field(fields, "aspect", str),
        sentiment=_field(fields, "sentiment", int, 0),
        strength=float(_field(fields, "strength", (int, float), 1.0)),
    )


def _object(record: object, kind: str) -> dict:
    if not isinstance(record, dict):
        raise CodecError(f"a {kind} must be an object, not {type(record).__name__}")
    return record


def _field(fields: dict, name: str, kind, default=_REQUIRED):
    value = fields.get(name, default)
    if value is _REQUIRED:
        raise CodecError(f"field {name!r} is required")
    # bool is an int subclass, but JSON's true is no number.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CodecError(f"field {name!r} may not be {type(value).__name__}")
    return value

