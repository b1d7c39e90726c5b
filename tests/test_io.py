"""Tests for JSONL corpus serialisation."""

import json
import re

import pytest

from repro.data.codec import CodecError
from repro.data.io import load_corpus, save_corpus
from repro.data.synthetic import generate_corpus


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        original = generate_corpus("Toy", scale=0.25, seed=3)
        path = tmp_path / "toy.jsonl"
        save_corpus(original, path)
        loaded = load_corpus(path)

        assert loaded.name == original.name
        assert len(loaded.products) == len(original.products)
        assert len(loaded.reviews) == len(original.reviews)
        for a, b in zip(original.products, loaded.products):
            assert a == b
        for a, b in zip(original.reviews, loaded.reviews):
            assert a == b

    def test_header_written_first(self, tmp_path):
        corpus = generate_corpus("Toy", scale=0.25, seed=3)
        path = tmp_path / "toy.jsonl"
        save_corpus(corpus, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["name"] == "Toy"


class TestErrors:
    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_corpus(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            load_corpus(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '{"kind": "header", "version": 1, "name": "X"}\n'
            "\n"
            '{"kind": "product", "product_id": "p1", "title": "T", "category": "C"}\n'
        )
        corpus = load_corpus(path)
        assert corpus.name == "X"
        assert len(corpus.products) == 1

    def test_name_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "fallback.jsonl"
        path.write_text(
            '{"kind": "product", "product_id": "p1", "title": "T", "category": "C"}\n'
        )
        assert load_corpus(path).name == "fallback"

    @pytest.mark.parametrize(
        "review",
        [
            '"mentions": [{"aspect": "a", "sentiment": 1, "strength": NaN}]',
            '"mentions": [{"aspect": "a", "sentiment": Infinity}]',
            '"rating": Infinity',
            '"reviewer_id": null',
        ],
    )
    def test_undecodable_record_names_path_and_line(self, tmp_path, review):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "header", "version": 1}\n'
            '{"kind": "product", "product_id": "p1"}\n'
            f'{{"kind": "review", "review_id": "r1", "product_id": "p1", {review}}}\n'
        )
        with pytest.raises(CodecError, match=re.escape(f"{path}:3: ")):
            load_corpus(path)

    def test_record_that_is_no_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "version": 1}\n[1, 2]\n')
        with pytest.raises(CodecError, match=re.escape(f"{path}:2: ")):
            load_corpus(path)
