"""Unit tests for experiment-module internals not covered structurally."""

from repro.eval.alignment import AlignmentScores
from repro.experiments.fig5 import SensitivityPoint, _best_value
from repro.experiments.table3 import Table3Cell


class TestFig5BestValue:
    def test_picks_highest_mean(self):
        points = [
            SensitivityPoint("A", "lambda", 0.1, 0.20),
            SensitivityPoint("B", "lambda", 0.1, 0.30),
            SensitivityPoint("A", "lambda", 1.0, 0.40),
            SensitivityPoint("B", "lambda", 1.0, 0.10),
        ]
        # means: 0.1 -> 0.25, 1.0 -> 0.25; tie resolves to first max found
        best = _best_value(points, (0.1, 1.0))
        assert best in (0.1, 1.0)

    def test_clear_winner(self):
        points = [
            SensitivityPoint("A", "mu", 0.1, 0.50),
            SensitivityPoint("A", "mu", 1.0, 0.20),
        ]
        assert _best_value(points, (0.1, 1.0)) == 0.1


class TestTable3Rendering:
    def _cell(self, algorithm, rouge_l=0.1, p=None):
        return Table3Cell(
            dataset="D",
            algorithm=algorithm,
            view="target",
            max_reviews=3,
            scores=AlignmentScores(0.2, 0.05, rouge_l, num_pairs=4),
            best_vs_second_p=p,
        )

    def test_significance_marker_rendered(self):
        from repro.experiments.table3 import render_table3

        cells = [self._cell("Best", p=0.01), self._cell("Other")]
        text = render_table3(cells, "target")
        assert "*" in text

    def test_no_marker_when_insignificant(self):
        from repro.experiments.table3 import render_table3

        cells = [self._cell("Best", p=0.50), self._cell("Other")]
        text = render_table3(cells, "target")
        assert "*" not in text


class TestSelectorRunEmpty:
    def test_mean_seconds_empty(self):
        from repro.eval.runner import SelectorRun

        run = SelectorRun(algorithm="x", results=(), seconds_per_instance=())
        assert run.mean_seconds == 0.0


class TestSingleItemGraph:
    def test_graph_of_one_item(self, paper_example_instance, config):
        from repro.core.selection import SelectionResult
        from repro.graph.similarity import build_item_graph

        result = SelectionResult(
            instance=paper_example_instance, selections=((0,),), algorithm="x"
        )
        graph = build_item_graph(result, config)
        assert graph.num_items == 1
        assert graph.weights.shape == (1, 1)
        assert graph.weights[0, 0] == 0.0
