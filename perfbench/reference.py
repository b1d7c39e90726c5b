"""Reference answers for the correctness checks (never timed).

Each check re-derives an expected answer with the nnls reference
selectors (``make_selector(name, use_kernel=False)``) on an instance
built from the same corpus with the request's own parameters, and
compares bytes after canonical JSON.  Nothing is compared against
stored copies of earlier output.
"""

from __future__ import annotations

import itertools
import math

from perfbench.harness import canonical, check


def _config(body: dict):
    from repro.core.problem import SelectionConfig
    from repro.core.vectors import OpinionScheme

    return SelectionConfig(
        max_reviews=body["m"], lam=body["lam"], mu=body["mu"],
        scheme=OpinionScheme(body["scheme"]),
    )


def reference_result(corpus, body: dict):
    """The nnls reference selection for a select request body."""
    from repro.core.selection import make_selector
    from repro.data.instances import build_instance

    instance = build_instance(
        corpus, body["target"],
        max_comparisons=body["max_comparisons"], min_reviews=body["min_reviews"],
    )
    check(instance is not None, f"reference: {body['target']} is not viable")
    selector = make_selector(body["algorithm"], use_kernel=False)
    return selector.select(instance, _config(body))


def check_select(corpus, body: dict, result: dict) -> None:
    """A select reply's result block equals the reference, byte for byte."""
    from repro.serve.engine import selection_payload

    expected = canonical(selection_payload(reference_result(corpus, body)))
    check(canonical(result) == expected, f"select {body} differs from the nnls reference")


def check_narrow(corpus, body: dict, result: dict, proven_optimal: bool) -> None:
    """A narrow reply holds the target plus k-1 distinct comparatives.

    When the reply is proven optimal its weight must equal the best
    k-subset holding the target, found by enumeration over the item
    graph of the reference selection.
    """
    from repro.data.instances import build_instance
    from repro.graph.similarity import build_item_graph
    from repro.graph.target_hks import total_weight

    instance = build_instance(
        corpus, body["target"],
        max_comparisons=body["max_comparisons"], min_reviews=body["min_reviews"],
    )
    products = [p.product_id for p in instance.products]
    k = min(body["k"], len(products))
    core = result["core_product_ids"]
    check(len(core) == k, f"narrow {body}: {len(core)} items, expected {k}")
    check(core[0] == body["target"], f"narrow {body}: target is not first")
    check(len(set(core)) == k, f"narrow {body}: repeated items {core}")
    check(set(core[1:]) <= set(products[1:]), f"narrow {body}: unknown items {core}")
    if not proven_optimal:
        return
    weights = build_item_graph(reference_result(corpus, body), _config(body)).weights
    best = max(
        total_weight(weights, (0, *subset))
        for subset in itertools.combinations(range(1, len(products)), k - 1)
    )
    check(
        math.isclose(result["weight"], best, rel_tol=1e-9, abs_tol=1e-12),
        f"narrow {body}: weight {result['weight']} but the best k-subset weighs {best}",
    )
