"""Item similarity graph construction (§3.1).

After solving CompaReSetS+, the distance between items p_i and p_j is

    d_ij = Delta(tau_i, pi(S_i)) + Delta(tau_j, pi(S_j))
         + lambda^2 [Delta(Gamma, phi(S_i)) + Delta(Gamma, phi(S_j))]
         + mu^2 Delta(phi(S_i), phi(S_j))

and the similarity weight is w_ij = max_{i',j'} d_{i'j'} - d_ij, turning
the complete distance graph into a similarity graph on which TargetHkS
operates.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.distance import squared_l2
from repro.core.problem import SelectionConfig
from repro.core.selection import SelectionResult, build_space
from repro.core.vectors import VectorSpace


@dataclass(frozen=True, slots=True)
class ItemGraph:
    """Complete similarity graph over an instance's items.

    ``product_ids[0]`` is the target item; ``weights`` and ``distances``
    are symmetric with zero diagonal.
    """

    product_ids: tuple[str, ...]
    distances: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.product_ids)
        if self.distances.shape != (n, n) or self.weights.shape != (n, n):
            raise ValueError("matrix shapes must match the number of items")

    @property
    def num_items(self) -> int:
        return len(self.product_ids)

    def to_networkx(self) -> nx.Graph:
        """Export as a networkx graph with 'weight' and 'distance' edges."""
        graph = nx.Graph()
        for index, product_id in enumerate(self.product_ids):
            graph.add_node(index, product_id=product_id, target=(index == 0))
        n = self.num_items
        for i in range(n - 1):
            for j in range(i + 1, n):
                graph.add_edge(
                    i,
                    j,
                    weight=float(self.weights[i, j]),
                    distance=float(self.distances[i, j]),
                )
        return graph


def _pairwise_aspect_distances(phis: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 over stacked φ(S_i) rows via the Gram trick.

    ||a - b||² = ||a||² + ||b||² - 2⟨a, b⟩, computed for every pair from
    one Gram matrix.  Cancellation can leave tiny negatives on
    near-identical rows, so the result is clipped at zero; the upper
    triangle is mirrored so the matrix is exactly symmetric.
    """
    gram = phis @ phis.T
    norms = np.einsum("ij,ij->i", phis, phis)
    deltas = norms[:, None] + norms[None, :] - 2.0 * gram
    np.clip(deltas, 0.0, None, out=deltas)
    deltas = np.triu(deltas, k=1)
    return deltas + deltas.T


def _pairwise_distances_reference(
    fit_terms: np.ndarray, phis: list[np.ndarray], mu: float
) -> np.ndarray:
    """Per-pair loop over squared_l2 — the checkable reference for tests."""
    n = len(phis)
    distances = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = fit_terms[i] + fit_terms[j] + mu**2 * squared_l2(phis[i], phis[j])
            distances[i, j] = d
            distances[j, i] = d
    return distances


def build_item_graph(
    result: SelectionResult,
    config: SelectionConfig,
    space: VectorSpace | None = None,
) -> ItemGraph:
    """Construct the §3.1 graph from a selection result.

    The per-item fit terms are computed once and the pairwise aspect
    distances come from one Gram-matrix product over the stacked φ(S_i)
    rows, so the construction is O(n^2 z + n z N) with the n² part a
    single BLAS call instead of a Python pair loop.

    ``space`` optionally reuses the instance's precomputed
    :class:`~repro.core.vectors.VectorSpace` (the selectors' idiom), so
    tau_i and Gamma come from its memoised vectors; the weights are
    bitwise those of a fresh space.
    """
    instance = result.instance
    if space is None:
        space = build_space(instance, config)
    gamma = space.aspect_vector(instance.reviews[0])
    n = instance.num_items

    fit_terms = np.zeros(n)
    phis = np.zeros((n, gamma.shape[0]))
    for item_index in range(n):
        selected = result.selected_reviews(item_index)
        tau = space.opinion_vector(instance.reviews[item_index])
        pi = space.opinion_vector(selected)
        phi = space.aspect_vector(selected)
        fit_terms[item_index] = squared_l2(tau, pi) + config.lam**2 * squared_l2(gamma, phi)
        phis[item_index] = phi

    distances = fit_terms[:, None] + fit_terms[None, :]
    distances += config.mu**2 * _pairwise_aspect_distances(phis)
    np.fill_diagonal(distances, 0.0)

    if n >= 2:
        off_diagonal = distances[~np.eye(n, dtype=bool)]
        max_distance = float(off_diagonal.max())
    else:
        max_distance = 0.0
    weights = max_distance - distances
    np.fill_diagonal(weights, 0.0)

    return ItemGraph(
        product_ids=tuple(p.product_id for p in instance.products),
        distances=distances,
        weights=weights,
    )
