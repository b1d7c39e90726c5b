"""``paper_eval``: the paper's Table 3 run, offline, with no serving layer.

Whole rounds of :func:`~repro.experiments.table3.run_table3` (five
selectors, m = 3/5/10, both alignment views) over the paper's three
synthetic categories at their default settings, on a reduced sample of
one instance per category.  An operation is one selection scored in
both views.  The benchmark passes ``run_table3`` an
:class:`~repro.eval.alignment.AlignmentScorer` subclass that notes when
each scoring call starts and ends: that splits an operation's time into
selection and ROUGE scoring, and keeps a sample of results for the
checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from perfbench import harness
from perfbench.harness import check
from perfbench.tracing import Tracer, overhead_pct, per_layer, traced_setup

INSTANCES_PER_CATEGORY = 1
#: Tail over per-op times: 45 ops a round, 4-5 rounds in a 14 s run.
TAIL_PERCENTILE = 90.0
#: Results re-scored with the reference ROUGE path and re-selected with
#: the nnls reference selectors, per run.
SCORE_SAMPLE = 6
SELECT_SAMPLE = 6


@dataclass
class Round:
    seconds: float
    scoring: float
    cells: list
    results: list
    op_ms: list[float]
    select_ms: list[float]


def _scorer_class():
    from repro.eval.alignment import AlignmentScorer

    class TimedScorer(AlignmentScorer):
        """Notes each ``score_both`` call's start, end and result."""

        def __init__(self) -> None:
            super().__init__()
            self.calls: list[tuple[float, float]] = []
            self.scored: list = []

        def score_both(self, result):
            began = time.perf_counter()
            scores = super().score_both(result)
            self.calls.append((began, time.perf_counter()))
            self.scored.append((result, scores))
            return scores

    return TimedScorer


def split_ops(began: float, calls: list[tuple[float, float]], per_block: int):
    """Per-op times (ms) of one round, and each block's selection share.

    ``run_table3`` runs each (category, budget) block as all selections
    first, then one scoring call per result.  An op's time is its own
    scoring call plus an equal share of its block's selection phase,
    which starts when the previous block's last scoring call ends.
    """
    op_ms, select_ms = [], []
    for first in range(0, len(calls), per_block):
        block_start = began if first == 0 else calls[first - 1][1]
        share = (calls[first][0] - block_start) / per_block
        select_ms.append(share * 1e3)
        op_ms.extend((share + end - start) * 1e3 for start, end in calls[first:first + per_block])
    return op_ms, select_ms


class PaperEvalWorkload:
    def __init__(self, args, run_dir) -> None:
        self.args = args

    def settings(self):
        """The paper's defaults, a reduced sample, categories in seeded order."""
        from repro.eval.runner import EvaluationSettings

        base = EvaluationSettings(max_instances=INSTANCES_PER_CATEGORY)
        order = np.random.default_rng([self.args.seed, 6]).permutation(len(base.categories))
        return replace(base, categories=tuple(base.categories[i] for i in order.tolist()))

    def build(self, attempt: int = 0):
        """Generate the category corpora and build the instance sample."""
        from repro.eval.runner import cached_corpus, prepare_instances

        cached_corpus.cache_clear()
        settings = self.settings()
        for category in settings.categories:
            prepare_instances(settings, category)
        return settings

    def one_round(self, settings) -> Round:
        from repro.experiments.table3 import ALGORITHMS, run_table3

        scorer = _scorer_class()()
        began = time.perf_counter()
        cells = run_table3(settings, scorer=scorer)
        elapsed = time.perf_counter() - began
        per_block = len(ALGORITHMS) * INSTANCES_PER_CATEGORY
        op_ms, select_ms = split_ops(began, scorer.calls, per_block)
        scoring = sum(end - start for start, end in scorer.calls)
        return Round(elapsed, scoring, cells, scorer.scored, op_ms, select_ms)

    def rounds(self, settings, seconds: float, on_round=None) -> list[Round]:
        """Whole rounds until ``seconds`` have been spent."""
        done: list[Round] = []
        spent = 0.0
        while spent < seconds:
            if on_round is not None:
                on_round(len(done))
            done.append(self.one_round(settings))
            if on_round is not None:
                on_round(None)
            spent += done[-1].seconds
        return done

    def run(self) -> dict:
        if self.args.trace:
            return self._traced()
        settings, setup = harness.repeated_setup(
            self.build, lambda built: None, harness.setup_repeats(self.args)
        )
        rounds = self.rounds(settings, self.args.seconds)
        rss = harness.own_peak_rss_mb()
        self._check(settings, rounds)
        ops = [len(r.results) for r in rounds]
        per_op = [ms for r in rounds for ms in r.op_ms]
        selecting = [ms for r in rounds for ms in r.select_ms]
        total = sum(r.seconds for r in rounds)
        return {
            "attempted": sum(ops),
            "failed": 0,
            "metrics": harness.end_to_end(
                setup=setup,
                ops_per_s=sum(ops) / total,
                p50_ms=harness.median(per_op),
                tail_ms=harness.percentile(per_op, TAIL_PERCENTILE),
                read_mean_ms=float(np.mean(selecting)),
                rss_mb=rss,
            ),
            "detail": {
                "setup_s": setup,
                "rounds": len(rounds),
                "ops_per_round": ops[0],
                "round_s": [r.seconds for r in rounds],
                "scoring_share": sum(r.scoring for r in rounds) / total,
                "categories": list(settings.categories),
            },
        }

    def _traced(self) -> dict:
        tracer = Tracer()
        settings = traced_setup(tracer, self.build)
        half = self.args.seconds / 2
        base = self.rounds(settings, half)
        tracer.install()
        offset = len(base)

        def tag(index):
            tracer.op = None if index is None else offset + index

        try:
            traced = self.rounds(settings, half, on_round=tag)
        finally:
            tracer.op = None
            tracer.uninstall()
        self._check(settings, base + traced)
        ops = sum(len(r.results) for r in traced)
        metrics = per_layer(
            tracer.spans, range(offset, offset + len(traced)), operations=ops,
            extra={"trace.overhead_pct": overhead_pct(
                [r.seconds / len(r.results) for r in base],
                [r.seconds / len(r.results) for r in traced],
            )},
        )
        return {
            "attempted": sum(len(r.results) for r in base + traced),
            "failed": 0,
            "metrics": metrics,
            "detail": {
                "untraced_rounds": len(base),
                "traced_rounds": len(traced),
                "traced_ops": ops,
            },
        }

    # -- checks ------------------------------------------------------------

    def _check(self, settings, rounds: list[Round]) -> None:
        """Table 3's ordering, reference ROUGE, reference selections."""
        from repro.eval.alignment import AlignmentScorer

        for cell_round in rounds:
            means = {
                (c.dataset, c.max_reviews, c.view, c.algorithm): c.scores.rouge_1
                for c in cell_round.cells
            }
            for category in settings.categories:
                for budget in settings.budgets:
                    for view in ("target", "among"):
                        random = means[(category, budget, view, "Random")]
                        for name in ("CompaReSetS", "CompaReSetS+"):
                            check(
                                means[(category, budget, view, name)] > random,
                                f"{name} does not beat Random on ROUGE-1 ({category}, "
                                f"m={budget}, {view})",
                            )
        scored = rounds[-1].results
        step = max(1, len(scored) // SCORE_SAMPLE)
        reference_scorer = AlignmentScorer(use_kernel=False)
        for result, scores in scored[::step][:SCORE_SAMPLE]:
            check(reference_scorer.score_both(result) == scores,
                  f"kernel ROUGE differs from the reference for {result.algorithm}")
        self._check_selections(settings, scored)

    @staticmethod
    def _check_selections(settings, scored) -> None:
        """A sample of CompaReSetS/CompaReSetS+ selections equals the nnls
        reference.  run_table3 scores each (category, budget) block's
        results selector by selector, so a result's position gives its
        budget."""
        from repro.core.selection import make_selector

        per_block = len(scored) // (len(settings.categories) * len(settings.budgets))
        paper = [
            (position, result) for position, (result, _) in enumerate(scored)
            if result.algorithm in ("CompaReSetS", "CompaReSetS+")
        ]
        step = max(1, len(paper) // SELECT_SAMPLE)
        for position, result in paper[::step][:SELECT_SAMPLE]:
            budget = settings.budgets[(position // per_block) % len(settings.budgets)]
            config = settings.config.with_(max_reviews=budget)
            expected = make_selector(result.algorithm, use_kernel=False).select(
                result.instance, config
            )
            check(expected.selections == result.selections,
                  f"{result.algorithm} (m={budget}) differs from the nnls reference")
