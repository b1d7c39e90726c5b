"""The review/product record codec: its rules, round trips and a fuzz."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.codec import (
    CodecError,
    product_from_record,
    product_record,
    review_from_record,
    review_record,
)
from repro.data.corpus import Corpus
from repro.data.io import load_corpus, save_corpus
from repro.data.models import AspectMention, Product, Review


class TestReviewRecords:
    def test_round_trip(self):
        review = Review(
            review_id="r1",
            product_id="P1",
            reviewer_id="u9",
            rating=4.0,
            text="sharp lens",
            mentions=(AspectMention(aspect="lens", sentiment=1, strength=2.0),),
        )
        assert review_from_record(review_record(review)) == review

    @pytest.mark.parametrize(
        "record",
        [
            "not a dict",
            {},
            {"review_id": "r1"},  # no product_id
            {"review_id": "r1", "product_id": "P1", "rating": "not-a-number"},
            {"review_id": "r1", "product_id": "P1", "mentions": [{"bad": 1}]},
        ],
    )
    def test_malformed_records_raise_value_error(self, record):
        with pytest.raises(ValueError):
            review_from_record(record)

    def test_the_log_decodes_with_this_codec(self):
        from repro.serve import wal

        assert wal.review_record is review_record
        assert wal.review_from_record is review_from_record


def _review(**fields) -> dict:
    return {"review_id": "r1", "product_id": "P1", **fields}


def _mention(**fields) -> dict:
    return _review(mentions=[{"aspect": "lens", **fields}])


class TestRules:
    def test_defaults(self):
        assert review_from_record(_review()) == Review(
            review_id="r1", product_id="P1", reviewer_id="", rating=0.0, text=""
        )
        assert review_from_record(_mention()).mentions == (
            AspectMention(aspect="lens", sentiment=0, strength=1.0),
        )
        assert product_from_record({"product_id": "P1"}) == Product(
            product_id="P1", title="", category=""
        )

    def test_unknown_fields_are_ignored(self):
        assert review_from_record(_review(kind="review", extra=[1])) == (
            review_from_record(_review())
        )

    @pytest.mark.parametrize(
        "record",
        [
            _review(review_id=None),  # once stored as the id "None"
            _review(review_id=7),
            _review(review_id=""),
            _review(product_id=None),
            _review(product_id=""),
            _review(reviewer_id=None),
            _review(text=3.5),
            _review(rating=math.nan),
            _review(rating=math.inf),
            _review(rating=True),
            _review(rating="4"),
            _review(rating=10**400),
            _review(rating=6),
            _review(mentions=None),
            _review(mentions=[1]),
            _review(mentions={"aspect": "lens"}),
            _mention(strength=math.nan),
            _mention(strength=math.inf),
            _mention(strength=-1.0),
            _mention(strength=10**400),
            _mention(sentiment=math.inf),
            _mention(sentiment=1.0),
            _mention(sentiment=2),
            _mention(sentiment=10**400),
            _mention(sentiment=True),
            {"review_id": "r1", "product_id": "P1", "mentions": [{"sentiment": 1}]},
            _mention(aspect=None),
        ],
    )
    def test_refused_review_records(self, record):
        with pytest.raises(CodecError):
            review_from_record(record)

    @pytest.mark.parametrize(
        "record",
        [
            ["P1"],
            {},
            {"product_id": None},
            {"product_id": ""},
            {"product_id": "P1", "title": None},
            {"product_id": "P1", "category": 1},
            {"product_id": "P1", "also_bought": "P2"},
            {"product_id": "P1", "also_bought": ["P2", None]},
            {"product_id": "P1", "also_bought": ["P1"]},
        ],
    )
    def test_refused_product_records(self, record):
        with pytest.raises(CodecError):
            product_from_record(record)


# -- round trips ---------------------------------------------------------------

identifiers = st.text(min_size=1, max_size=8)
ratings = st.floats(min_value=0.0, max_value=5.0) | st.just(-0.0)
strengths = (
    st.floats(min_value=0.0, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
)
mentions = st.builds(
    AspectMention,
    aspect=st.text(max_size=6),
    sentiment=st.sampled_from([-1, 0, 1]),
    strength=strengths,
)


def _reviews(product_id: str):
    return st.builds(
        Review,
        review_id=identifiers,
        product_id=st.just(product_id),
        reviewer_id=st.text(max_size=6),
        rating=ratings,
        text=st.text(max_size=40),
        mentions=st.lists(mentions, max_size=3).map(tuple),
    )


@st.composite
def products(draw) -> Product:
    product_id = draw(identifiers)
    also_bought = draw(st.lists(identifiers, max_size=3))
    return Product(
        product_id=product_id,
        title=draw(st.text(max_size=10)),
        category=draw(st.text(max_size=6)),
        also_bought=tuple(pid for pid in also_bought if pid != product_id),
    )


def _through_json(record: dict) -> dict:
    return json.loads(json.dumps(record))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_records_round_trip(data):
    product = data.draw(products())
    review = data.draw(_reviews(product.product_id))
    decoded = review_from_record(_through_json(review_record(review)))
    assert decoded == review
    # Equal floats may still differ in sign: compare the encoded bytes.
    assert json.dumps(review_record(decoded)) == json.dumps(review_record(review))
    assert product_from_record(_through_json(product_record(product))) == product


@st.composite
def corpora(draw) -> Corpus:
    catalogue = draw(
        st.lists(products(), min_size=1, max_size=4, unique_by=lambda p: p.product_id)
    )
    reviews = []
    for product in catalogue:
        reviews += draw(st.lists(_reviews(product.product_id), max_size=3))
    unique = {review.review_id: review for review in reviews}
    return Corpus(
        name=draw(st.text(max_size=8)), products=catalogue, reviews=unique.values()
    )


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_corpus_files_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.name == corpus.name
    assert loaded.products == corpus.products
    assert loaded.reviews == corpus.reviews
    rewritten = path.with_name("again.jsonl")
    save_corpus(loaded, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()


# -- fuzz ----------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63])
    | st.floats()  # NaN and both infinities included
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
loose_mentions = st.fixed_dictionaries(
    {},
    optional={
        "aspect": st.text(max_size=4) | json_values,
        "sentiment": st.sampled_from([-1, 0, 1]) | json_values,
        "strength": st.floats(min_value=0.0) | json_values,
    },
)
loose_reviews = st.fixed_dictionaries(
    {},
    optional={
        "review_id": identifiers | json_values,
        "product_id": identifiers | json_values,
        "reviewer_id": st.text(max_size=4) | json_values,
        "rating": st.floats(min_value=0.0, max_value=5.0) | json_values,
        "text": st.text(max_size=8) | json_values,
        "mentions": st.lists(loose_mentions | json_values, max_size=3) | json_values,
    },
)
loose_products = st.fixed_dictionaries(
    {},
    optional={
        "product_id": identifiers | json_values,
        "title": st.text(max_size=4) | json_values,
        "category": st.text(max_size=4) | json_values,
        "also_bought": st.lists(identifiers | json_values, max_size=3) | json_values,
    },
)


@settings(max_examples=400, deadline=None)
@given(loose_reviews | json_values)
def test_review_decoder_returns_a_review_or_codec_error(record):
    try:
        review = review_from_record(record)
    except CodecError:
        return
    assert isinstance(review, Review)
    # Whatever decodes encodes again as strict JSON: no NaN, no Infinity.
    json.dumps(review_record(review), allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(loose_products | json_values)
def test_product_decoder_returns_a_product_or_codec_error(record):
    try:
        product = product_from_record(record)
    except CodecError:
        return
    assert isinstance(product, Product)
    json.dumps(product_record(product), allow_nan=False)
