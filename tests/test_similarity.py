"""Tests for the §3.1 item similarity graph."""

import numpy as np
import pytest

from repro.core.baselines import RandomSelector
from repro.core.compare_sets_plus import CompareSetsPlusSelector
from repro.core.objective import pairwise_item_distance
from repro.core.problem import SelectionConfig
from repro.core.selection import build_space
from repro.core.vectors import OpinionScheme
from repro.graph.similarity import (
    ItemGraph,
    _pairwise_aspect_distances,
    _pairwise_distances_reference,
    build_item_graph,
)
from repro.serve.store import ItemStore


@pytest.fixture()
def graph_and_result(instance, config, rng):
    result = RandomSelector().select(instance, config, rng=rng)
    return build_item_graph(result, config), result


class TestBuildItemGraph:
    def test_shapes_and_ids(self, graph_and_result, instance):
        graph, _ = graph_and_result
        n = instance.num_items
        assert graph.num_items == n
        assert graph.distances.shape == (n, n)
        assert graph.weights.shape == (n, n)
        assert graph.product_ids[0] == instance.target.product_id

    def test_symmetry_and_zero_diagonal(self, graph_and_result):
        graph, _ = graph_and_result
        np.testing.assert_allclose(graph.distances, graph.distances.T)
        np.testing.assert_allclose(graph.weights, graph.weights.T)
        assert not np.diagonal(graph.weights).any()
        assert not np.diagonal(graph.distances).any()

    def test_weights_non_negative_with_zero_minimum(self, graph_and_result):
        graph, _ = graph_and_result
        off = graph.weights[~np.eye(graph.num_items, dtype=bool)]
        assert (off >= -1e-12).all()
        # w_ij = max d - d_ij, so the farthest pair gets weight exactly 0.
        assert off.min() == pytest.approx(0.0, abs=1e-12)

    def test_distances_match_formula(self, graph_and_result, instance, config):
        graph, result = graph_and_result
        space = build_space(instance, config)
        gamma = space.aspect_vector(instance.reviews[0])
        taus = [space.opinion_vector(r) for r in instance.reviews]
        for i in range(instance.num_items - 1):
            for j in range(i + 1, instance.num_items):
                expected = pairwise_item_distance(
                    space,
                    result.selected_reviews(i),
                    result.selected_reviews(j),
                    taus[i],
                    taus[j],
                    gamma,
                    config,
                )
                assert graph.distances[i, j] == pytest.approx(expected)

    def test_vectorized_distances_match_reference_loop(self, rng):
        """The Gram-trick all-pairs matrix equals the per-pair loop."""
        for trial in range(10):
            n = int(rng.integers(2, 9))
            z = int(rng.integers(1, 12))
            phis = rng.random((n, z)) * rng.integers(1, 5)
            fit_terms = rng.random(n)
            mu = float(rng.random())
            reference = _pairwise_distances_reference(
                fit_terms, [phis[i] for i in range(n)], mu
            )
            vectorized = fit_terms[:, None] + fit_terms[None, :]
            vectorized += mu**2 * _pairwise_aspect_distances(phis)
            np.fill_diagonal(vectorized, 0.0)
            np.testing.assert_allclose(vectorized, reference, rtol=1e-12, atol=1e-12)
            assert (vectorized == vectorized.T).all()

    def test_graph_distances_match_reference_loop(self, instance, config, rng):
        """build_item_graph's matrix equals the pre-vectorisation pair loop."""
        from repro.core.distance import squared_l2
        from repro.core.selection import build_space as _build_space

        result = RandomSelector().select(instance, config, rng=rng)
        graph = build_item_graph(result, config)
        space = _build_space(instance, config)
        gamma = space.aspect_vector(instance.reviews[0])
        n = instance.num_items
        fit_terms = np.zeros(n)
        phis = []
        for i in range(n):
            selected = result.selected_reviews(i)
            tau = space.opinion_vector(instance.reviews[i])
            fit_terms[i] = squared_l2(tau, space.opinion_vector(selected))
            fit_terms[i] += config.lam**2 * squared_l2(
                gamma, space.aspect_vector(selected)
            )
            phis.append(space.aspect_vector(selected))
        reference = _pairwise_distances_reference(fit_terms, phis, config.mu)
        np.testing.assert_allclose(graph.distances, reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scheme", list(OpinionScheme))
    def test_shared_space_gives_the_fresh_space_bits(self, cellphone_corpus, scheme):
        """The serving path builds the graph from the store's memoised
        space; it must weigh exactly what a fresh space weighs."""
        store = ItemStore(cellphone_corpus)
        config = SelectionConfig(max_reviews=3, lam=0.7, mu=0.3, scheme=scheme)
        target = store.default_target(10, 3)
        artifacts = store.artifacts(target, config)
        result = CompareSetsPlusSelector().select(
            artifacts.instance, config, space=artifacts.space,
            solver_artifacts=artifacts.solver,
        )
        fresh = build_item_graph(result, config)
        for _ in range(2):  # cold, then warm memo
            shared = build_item_graph(result, config, space=artifacts.space)
            assert shared.weights.tobytes() == fresh.weights.tobytes()
            assert shared.distances.tobytes() == fresh.distances.tobytes()

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            ItemGraph(
                product_ids=("a", "b"),
                distances=np.zeros((3, 3)),
                weights=np.zeros((2, 2)),
            )


class TestToNetworkx:
    def test_complete_graph_export(self, graph_and_result):
        graph, _ = graph_and_result
        nx_graph = graph.to_networkx()
        n = graph.num_items
        assert nx_graph.number_of_nodes() == n
        assert nx_graph.number_of_edges() == n * (n - 1) // 2
        assert nx_graph.nodes[0]["target"] is True
        assert nx_graph.nodes[1]["target"] is False

    def test_edge_attributes(self, graph_and_result):
        graph, _ = graph_and_result
        nx_graph = graph.to_networkx()
        edge = nx_graph.edges[0, 1]
        assert edge["weight"] == pytest.approx(graph.weights[0, 1])
        assert edge["distance"] == pytest.approx(graph.distances[0, 1])
