"""Integration tests: the full pipeline across module boundaries."""

from dataclasses import replace

import numpy as np

from repro import (
    SelectionConfig,
    build_instances,
    build_item_graph,
    generate_corpus,
    load_corpus,
    make_selector,
    save_corpus,
    solve_greedy,
    solve_ilp,
)
from repro.data.corpus import Corpus
from repro.data.synthetic import default_profiles, surface_stem_aliases
from repro.eval.alignment import among_items_alignment, mean_alignment
from repro.text.aspects import mine_aspects
from repro.text.sentiment import agreement_with_ground_truth, annotate_corpus


class TestSelectThenNarrow:
    def test_full_flow(self, instance, config):
        result = make_selector("CompaReSetS+").select(instance, config)
        graph = build_item_graph(result, config)
        k = min(3, instance.num_items)
        greedy = solve_greedy(graph.weights, k)
        exact = solve_ilp(graph.weights, k, backend="bnb", time_limit=10)
        assert 0 in greedy.selected and 0 in exact.selected
        assert exact.weight >= greedy.weight - 1e-9

        kept = [0] + sorted(v for v in exact.selected if v != 0)
        narrowed = result.restricted_to_items(kept)
        assert narrowed.instance.num_items == k
        # The narrowed instance re-scores without error.
        scores = among_items_alignment(narrowed)
        assert scores.rouge_1 >= 0

    def test_serialisation_round_trip_preserves_selections(self, tmp_path, config):
        corpus = generate_corpus("Toy", scale=0.3, seed=2)
        path = tmp_path / "toy.jsonl"
        save_corpus(corpus, path)
        reloaded = load_corpus(path)

        original_instance = next(
            iter(build_instances(corpus, max_comparisons=5, min_reviews=3))
        )
        reloaded_instance = next(
            iter(build_instances(reloaded, max_comparisons=5, min_reviews=3))
        )
        selector = make_selector("CompaReSetS")
        assert (
            selector.select(original_instance, config).selections
            == selector.select(reloaded_instance, config).selections
        )


class TestTextPipelineIntoSelection:
    def test_raw_text_to_selection(self):
        """Strip annotations, re-derive them from text, and select."""
        truth = generate_corpus("Cellphone", scale=0.3, seed=4)
        stripped = Corpus(
            name=truth.name,
            products=truth.products,
            reviews=[replace(r, mentions=()) for r in truth.reviews],
        )
        aliases = surface_stem_aliases(default_profiles(0.3)["Cellphone"])
        vocabulary = mine_aspects(
            stripped.reviews,
            candidate_pool=200,
            keep=80,
            concept_filter=frozenset(aliases),
        )
        annotated = annotate_corpus(stripped, vocabulary)
        agreement = agreement_with_ground_truth(
            annotated.reviews, truth.reviews, aliases
        )
        assert agreement > 0.6  # concept-filtered extraction is accurate

        instance = next(
            iter(build_instances(annotated, max_comparisons=5, min_reviews=3))
        )
        config = SelectionConfig(max_reviews=3, mu=0.01)
        result = make_selector("CompaReSetS+").select(instance, config)
        assert any(result.selections)


class TestPaperShapeSmall:
    """The cheapest headline shape at test scale: CRS/CompaReSetS >> Random."""

    def test_informed_selectors_beat_random(self, instances):
        config = SelectionConfig(max_reviews=3, mu=0.01)
        scores = {}
        for name in ("Random", "CRS", "CompaReSetS"):
            selector = make_selector(name)
            rng = np.random.default_rng(0)
            results = [selector.select(inst, config, rng=rng) for inst in instances]
            scores[name] = mean_alignment(
                [among_items_alignment(r) for r in results]
            ).rouge_1
        assert scores["CRS"] > scores["Random"]
        assert scores["CompaReSetS"] > scores["Random"]
