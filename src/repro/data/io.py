"""JSONL serialisation for corpora.

Format: one JSON object per line.  The first line is a header record
(``{"kind": "header", ...}``), followed by product records and review
records: :mod:`repro.data.codec`'s records, tagged with their ``kind``.
The format round-trips everything in the data model and is easy to
produce from the real Amazon dataset with a short conversion script.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.data.codec import CodecError, product_from_record, product_record
from repro.data.codec import review_from_record, review_record
from repro.data.corpus import Corpus

_FORMAT_VERSION = 1


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` to ``path`` as JSONL."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {"kind": "header", "version": _FORMAT_VERSION, "name": corpus.name}
        handle.write(json.dumps(header) + "\n")
        for product in corpus.products:
            record = {"kind": "product", **product_record(product)}
            handle.write(json.dumps(record) + "\n")
        for review in corpus.reviews:
            record = {"kind": "review", **review_record(review)}
            handle.write(json.dumps(record) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus previously written by :func:`save_corpus`.

    A line that does not decode raises :class:`CodecError` naming the
    path and line.
    """
    path = Path(path)
    name = path.stem
    products = []
    reviews = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise CodecError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
            kind = record.get("kind") if isinstance(record, dict) else None
            try:
                if kind == "header":
                    if record.get("version") != _FORMAT_VERSION:
                        raise CodecError(
                            "unsupported corpus format version "
                            f"{record.get('version')!r}"
                        )
                    name = record.get("name", name)
                elif kind == "product":
                    products.append(product_from_record(record))
                elif kind == "review":
                    reviews.append(review_from_record(record))
                else:
                    raise CodecError(f"unknown record kind {kind!r}")
            except CodecError as exc:
                raise CodecError(f"{path}:{line_number}: {exc}") from exc
    return Corpus(name=name, products=products, reviews=reviews)
