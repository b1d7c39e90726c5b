"""Structure tests for the per-table/figure experiment modules.

These run every experiment at a deliberately tiny scale and assert the
*structure* of results (row counts, rendering) plus the cheapest of the
paper's shape claims (everything beats Random).  Full-scale shapes are
exercised by the benchmark harness.
"""

import pytest

from repro.eval.runner import EvaluationSettings
from repro.experiments import (
    case_study,
    fig5,
    fig6,
    fig7,
    fig11,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)


@pytest.fixture(scope="module")
def tiny_settings() -> EvaluationSettings:
    return EvaluationSettings(
        categories=("Cellphone",),
        scale=0.3,
        max_instances=5,
        max_comparisons=5,
        min_reviews=3,
        budgets=(3,),
    )


class TestTable2:
    def test_rows_and_rendering(self, tiny_settings):
        stats = table2.run_table2(tiny_settings)
        assert len(stats) == 1
        text = table2.render_table2(stats)
        assert "#Product" in text and "Cellphone" in text


class TestTable3:
    def test_cells_and_shape(self, tiny_settings):
        cells = table3.run_table3(tiny_settings)
        # 1 dataset x 1 budget x 2 views x 5 algorithms
        assert len(cells) == 10
        by_key = {(c.algorithm, c.view): c for c in cells}
        assert by_key[("CRS", "target")].scores.rouge_1 > by_key[
            ("Random", "target")
        ].scores.rouge_1
        text = table3.render_table3(cells, "target")
        assert "CompaReSetS+" in text


class TestTable4:
    def test_cells(self, tiny_settings):
        cells = table4.run_table4(tiny_settings)
        assert len(cells) == 15  # 5 algorithms x 3 schemes
        text = table4.render_table4(cells)
        assert "unary-scale" in text


class TestTable5:
    def test_rows(self, tiny_settings):
        rows = table5.run_table5(tiny_settings, time_limit=5.0)
        assert len(rows) == 1
        comparison = rows[0].comparison
        assert comparison.k == 3
        assert comparison.random_ratio <= comparison.greedy_ratio + 1e-9
        assert 0 <= comparison.optimal_percent <= 100
        text = table5.render_table5(rows)
        assert "Greedy ratio" in text


class TestTable6:
    def test_cells(self, tiny_settings):
        cells = table6.run_table6(tiny_settings, time_limit=5.0)
        # 1 dataset x 1 k x 4 strategies x 2 views
        assert len(cells) == 8
        text = table6.render_table6(cells, "among")
        assert "TargetHkS_Greedy" in text


class TestTable7:
    def test_outcomes(self, tiny_settings):
        outcomes = table7.run_table7(tiny_settings)
        assert {o.algorithm for o in outcomes} == {"Random", "CRS", "CompaReSetS+"}
        text = table7.render_table7(outcomes)
        assert "Krippendorff" in text


class TestFig5:
    def test_sweep(self, tiny_settings):
        grid = (0.1, 1.0)
        lam_points, best_lam, mu_points, best_mu = fig5.run_fig5(tiny_settings, grid=grid)
        assert len(lam_points) == 2 and len(mu_points) == 2
        assert best_lam in grid and best_mu in grid
        assert "lambda" in fig5.render_fig5(lam_points, "lambda")


class TestFig6:
    def test_gap_points(self, tiny_settings):
        points = fig6.run_fig6(tiny_settings, num_buckets=2)
        assert points
        views = {p.view for p in points}
        assert views == {"target", "among"}
        text = fig6.render_fig6(points, "target")
        assert "Random" in text


class TestFig7:
    def test_runtime_points(self, tiny_settings):
        points = fig7.run_fig7(
            tiny_settings, comparative_counts=(2, 3), algorithms=("CRS", "CompaReSetS+")
        )
        assert points
        assert all(p.mean_seconds >= 0 for p in points)
        text = fig7.render_fig7(points)
        assert "runtime" in text


class TestFig11:
    def test_curve(self, tiny_settings):
        points = fig11.run_fig11(tiny_settings, budgets=(2, 6))
        assert [p.max_reviews for p in points] == [2, 6]
        text = fig11.render_fig11(points)
        assert "Delta target" in text


class TestCaseStudy:
    def test_runs_and_renders(self, tiny_settings):
        study = case_study.run_case_study(tiny_settings)
        assert study.result.instance.num_items <= 3
        text = case_study.render_case_study(study)
        assert "This item" in text

    def test_unavailable_index_raises(self, tiny_settings):
        with pytest.raises(ValueError, match="case-study"):
            case_study.run_case_study(tiny_settings, instance_index=999)
