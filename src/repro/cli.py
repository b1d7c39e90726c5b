"""Command-line interface for the CompaReSetS reproduction.

Subcommands
-----------
``generate``        write a synthetic category corpus to JSONL
``stats``           print Table-2 statistics for a corpus file
``select``          select comparative review sets for one target item
``narrow``          select, then narrow to the k-item core list (TargetHkS)
``serve``           run the online selection-serving HTTP API
``convert-amazon``  convert a McAuley-format reviews+metadata dump pair
``experiment``      regenerate one of the paper's tables/figures

Examples
--------
::

    repro-cli generate --category Toy --scale 0.5 --out toy.jsonl
    repro-cli stats toy.jsonl
    repro-cli narrow toy.jsonl --target TOY00003 --m 3 --k 3
    repro-cli serve --corpus toy.jsonl --port 8080
    repro-cli experiment table3 --scale 0.5 --instances 20

A missing or corrupt ``--corpus`` file exits with status 2 and a
one-line usage error instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.core.problem import SelectionConfig
from repro.core.selection import SELECTORS, make_selector
from repro.data.instances import build_instance
from repro.data.io import load_corpus, save_corpus
from repro.data.synthetic import generate_corpus
from repro.eval.runner import EvaluationSettings
from repro.graph.similarity import build_item_graph
from repro.graph.target_hks import solve_greedy, solve_ilp


def _add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=3, help="review budget per item")
    parser.add_argument("--lam", type=float, default=1.0, help="lambda (aspect weight)")
    parser.add_argument("--mu", type=float, default=0.01, help="mu (cross-item weight)")
    parser.add_argument(
        "--algorithm",
        default="CompaReSetS+",
        choices=sorted(SELECTORS),
        help="selection algorithm",
    )
    parser.add_argument(
        "--max-comparisons", type=int, default=10, help="cap on comparative items"
    )
    parser.add_argument(
        "--min-reviews", type=int, default=3, help="minimum reviews per item"
    )


def _config_from(args: argparse.Namespace) -> SelectionConfig:
    return SelectionConfig(max_reviews=args.m, lam=args.lam, mu=args.mu)


def _fail_usage(message: str) -> "SystemExit":
    """Print a one-line usage error and exit with status 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_corpus_checked(path: str):
    """Load a corpus, mapping missing/corrupt files to a usage error."""
    try:
        return load_corpus(path)
    except FileNotFoundError:
        raise _fail_usage(f"corpus file not found: {path}") from None
    except IsADirectoryError:
        raise _fail_usage(f"corpus path is a directory: {path}") from None
    except (ValueError, OSError) as exc:
        raise _fail_usage(f"corpus file {path} is corrupt: {exc}") from None


def _resolve_instance(args: argparse.Namespace):
    corpus = _load_corpus_checked(args.corpus)
    target = args.target
    if target is None:
        for product in corpus.products:
            candidate = build_instance(
                corpus,
                product.product_id,
                max_comparisons=args.max_comparisons,
                min_reviews=args.min_reviews,
            )
            if candidate is not None:
                return corpus, candidate
        raise SystemExit("no viable target item in the corpus")
    if not corpus.has_product(target):
        raise SystemExit(f"target {target!r} is not in the corpus")
    instance = build_instance(
        corpus,
        target,
        max_comparisons=args.max_comparisons,
        min_reviews=args.min_reviews,
    )
    if instance is None:
        raise SystemExit(f"target {target!r} is not a viable instance")
    return corpus, instance


def _print_result(result) -> None:
    for item_index, product in enumerate(result.instance.products):
        role = "TARGET " if item_index == 0 else "similar"
        print(f"[{role}] {product.title} ({product.product_id})")
        for review in result.selected_reviews(item_index):
            print(f"    {review.rating:.0f}* {review.text}")
        print()


def _command_generate(args: argparse.Namespace) -> int:
    corpus = generate_corpus(args.category, scale=args.scale, seed=args.seed)
    save_corpus(corpus, args.out)
    stats = corpus.stats()
    print(
        f"wrote {args.out}: {stats.num_products} products, "
        f"{stats.num_reviews} reviews"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table

    stats = _load_corpus_checked(args.corpus).stats(
        min_reviews_for_target=args.min_reviews
    )
    rows = stats.as_rows()
    print(format_table(["", stats.name], [[label, value] for label, value in rows]))
    return 0


def _command_select(args: argparse.Namespace) -> int:
    _, instance = _resolve_instance(args)
    result = make_selector(args.algorithm).select(instance, _config_from(args))
    _print_result(result)
    return 0


def _command_narrow(args: argparse.Namespace) -> int:
    _, instance = _resolve_instance(args)
    config = _config_from(args)
    result = make_selector(args.algorithm).select(instance, config)
    graph = build_item_graph(result, config)
    k = min(args.k, instance.num_items)
    provenance = None
    if args.backend == "fallback":
        from repro.resilience.fallback import FallbackChain

        outcome = FallbackChain(time_limit=args.time_limit).solve(graph.weights, k)
        solution = outcome.solution
        provenance = ", ".join(
            f"{a.backend}={a.status}" for a in outcome.attempts
        )
    elif args.exact or args.backend != "milp":
        solution = solve_ilp(
            graph.weights, k, time_limit=args.time_limit, backend=args.backend
        )
    else:
        solution = solve_greedy(graph.weights, k)
    kept = [0] + sorted(v for v in solution.selected if v != 0)
    print(
        f"core list of {k} items ({solution.algorithm}, "
        f"weight {solution.weight:.3f}):\n"
    )
    if provenance is not None:
        print(f"[fallback chain: {provenance}]\n")
    _print_result(result.restricted_to_items(kept))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.admission import AdmissionController
    from repro.serve.engine import SelectionEngine, build_durable_engine
    from repro.serve.http import run_server
    from repro.serve.snapshot import SnapshotError
    from repro.serve.store import ItemStore

    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}", flush=True)
        return 2
    if args.replicas < 1:
        print(f"--replicas must be >= 1, got {args.replicas}", flush=True)
        return 2
    if args.replicas > args.shards:
        print(
            f"--replicas {args.replicas} cannot exceed --shards "
            f"{args.shards} (each replica must land on a distinct shard)",
            flush=True,
        )
        return 2
    if args.hint_limit < 1:
        print(f"--hint-limit must be >= 1, got {args.hint_limit}", flush=True)
        return 2
    if args.shards > 1:
        # Cluster mode: supervised shard workers + asyncio gateway.  The
        # --shards 1 default falls through to the unchanged
        # single-process path below.
        if args.supervised:
            print("--supervised is implied by --shards > 1", flush=True)
            return 2
        return _serve_cluster(args)

    admission = AdmissionController(
        max_pending=args.max_pending,
        rate=args.rate_limit,
        burst=args.rate_burst,
    )
    engine_options = dict(
        cache_size=args.cache_size,
        ttl=args.ttl,
        workers=args.workers,
        batch_window=args.batch_window,
        admission=admission,
    )

    if args.supervised:
        if args.state_dir is None:
            print("--supervised requires --state-dir", flush=True)
            return 2
        return _serve_supervised(args)

    if args.state_dir is not None:
        # Durable serving: WAL-backed ingest, generation snapshots, and
        # snapshot+WAL recovery on restart.
        try:
            engine = build_durable_engine(
                args.state_dir,
                corpus_path=args.corpus,
                cache_tier=args.cache_tier,
                snapshot_every=args.snapshot_every,
                **engine_options,
            )
        except SnapshotError as exc:
            raise _fail_usage(str(exc)) from None
        recovery = engine.recovery.as_dict() if engine.recovery else {}
        print(
            f"recovered state ({recovery.get('mode', 'cold')}): "
            f"version {engine.store.version}, "
            f"{recovery.get('replayed_deltas', 0)} WAL deltas replayed",
            flush=True,
        )
    else:
        corpus = _load_corpus_checked(args.corpus)
        store = ItemStore(corpus)
        engine = SelectionEngine(store, **engine_options)
        print(
            f"loaded {corpus.name}: {len(corpus.products)} products, "
            f"{len(corpus.reviews)} reviews (version {store.version})",
            flush=True,
        )
    if args.verify_patches:
        engine.store.patch_verify = True
    # run_server installs SIGTERM/SIGINT handlers that drain in-flight
    # requests (up to --drain-timeout seconds) before the process exits.
    run_server(engine, args.host, args.port, drain_timeout=args.drain_timeout)
    return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """Boot a sharded cluster: N supervised workers + asyncio gateway.

    ``--state-dir`` lays out one ``shard-{i}/`` durable directory per
    worker (each with its own WAL and snapshots); without it the cluster
    uses a throwaway temp layout.  The gateway prints the same
    ``serving on http://...`` line as the single-process server so smoke
    harnesses drive both identically.
    """
    import signal as _signal
    import threading

    from repro.serve.cluster import ClusterConfig, ClusterError, ServingCluster

    if not Path(args.corpus).is_file():
        print(f"corpus file not found: {args.corpus}", flush=True)
        return 2
    config = ClusterConfig(
        corpus_path=args.corpus,
        shards=args.shards,
        replicas=args.replicas,
        hint_limit=args.hint_limit,
        host=args.host,
        gateway_port=(
            args.gateway_port if args.gateway_port is not None else args.port
        ),
        state_dir=args.state_dir,
        engine_options={
            "cache_size": args.cache_size,
            "ttl": args.ttl,
            "workers": args.workers,
            "batch_window": args.batch_window,
            "cache_tier": args.cache_tier,
            "snapshot_every": args.snapshot_every,
            # Per-shard admission backstop behind the gateway's global
            # controller (the worker builds its own controller).
            "max_pending": args.max_pending,
        },
        max_pending=args.max_pending,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
    )
    cluster = ServingCluster(config)
    try:
        cluster.start()
    except ClusterError as exc:
        print(f"cluster start failed: {exc}", flush=True)
        cluster.stop()
        return 1
    host, port = cluster.gateway_address
    assert cluster.plan is not None
    shard_sizes = ", ".join(
        f"shard {i}: {len(owned)} items" for i, owned in enumerate(cluster.plan.owned)
    )
    print(
        f"cluster of {args.shards} shards, replicas={args.replicas} "
        f"({shard_sizes})",
        flush=True,
    )
    print(f"serving on http://{host}:{port}", flush=True)

    stop = threading.Event()

    def _handle_signal(signum, frame) -> None:
        stop.set()

    installed: list[int] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                _signal.signal(signum, _handle_signal)
                installed.append(signum)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                break
    try:
        while not stop.is_set():
            stop.wait(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        print("stopping cluster...", flush=True)
        for signum in installed:
            _signal.signal(signum, _signal.SIG_DFL)
        cluster.stop()
        print("server stopped", flush=True)
    return 0


def _serve_supervised(args: argparse.Namespace) -> int:
    """Run the engine in a supervised child with crash auto-restart."""
    import time as _time

    from repro.serve.supervisor import Supervisor, SupervisorError

    supervisor = Supervisor(
        args.state_dir,
        corpus_path=args.corpus,
        host=args.host,
        port=args.port,
        engine_options={
            "cache_size": args.cache_size,
            "ttl": args.ttl,
            "workers": args.workers,
            "batch_window": args.batch_window,
            "cache_tier": args.cache_tier,
            "snapshot_every": args.snapshot_every,
        },
    )
    supervisor.start()
    try:
        ready = supervisor.wait_ready()
    except SupervisorError as exc:
        print(f"supervised start failed: {exc}", flush=True)
        supervisor.stop()
        return 1
    print(
        f"supervised serving on http://{args.host}:{ready['port']} "
        f"(version {ready['version']}, recovery "
        f"{(ready.get('recovery') or {}).get('mode', 'cold')})",
        flush=True,
    )
    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("stopping supervised server...", flush=True)
    finally:
        supervisor.stop()
    return 0


def _command_convert_amazon(args: argparse.Namespace) -> int:
    from repro.data.amazon import convert_amazon

    corpus = convert_amazon(
        args.reviews,
        args.metadata,
        category=args.category,
        annotate=not args.no_annotate,
        candidate_pool=args.candidate_pool,
        keep=args.keep,
    )
    save_corpus(corpus, args.out)
    print(
        f"wrote {args.out}: {len(corpus.products)} products, "
        f"{len(corpus.reviews)} reviews"
    )
    return 0


_EXPERIMENTS = {
    "table2", "table3", "table4", "table5", "table6", "table7",
    "fig5", "fig6", "fig7", "fig11", "case-study", "all",
}


def _command_experiment(args: argparse.Namespace) -> int:
    import contextlib

    from repro.experiments.persist import checkpointing
    from repro.resilience.deadline import DeadlineExceeded, deadline_scope
    from repro.serve.wal import WALError

    settings = EvaluationSettings(
        scale=args.scale,
        seed=args.seed,
        max_instances=args.instances,
        max_comparisons=args.max_comparisons,
        min_reviews=args.min_reviews,
        budgets=tuple(args.budgets),
    )
    name = args.name
    if name == "all":
        for each in sorted(_EXPERIMENTS - {"all"}):
            print(f"\n########## {each} ##########\n")
            sub_args = argparse.Namespace(**vars(args))
            sub_args.name = each
            _command_experiment(sub_args)
        return 0

    with contextlib.ExitStack() as stack:
        if args.checkpoint is not None:
            try:
                journal = stack.enter_context(checkpointing(args.checkpoint))
            except (WALError, OSError, ValueError) as exc:
                # Damaged, pre-framing, foreign or unreadable: the journal
                # is left as it was for the user to inspect or delete.
                raise _fail_usage(
                    f"checkpoint journal {args.checkpoint} is unusable: {exc}"
                ) from None
            if len(journal):
                print(
                    f"[resuming from checkpoint {args.checkpoint}: "
                    f"{len(journal)} instances journaled]\n"
                )
        if args.time_budget is not None:
            stack.enter_context(deadline_scope(args.time_budget))
        try:
            return _run_one_experiment(args, settings)
        except DeadlineExceeded as exc:
            print(f"\naborted: {exc}", file=sys.stderr)
            if args.checkpoint is not None:
                print(
                    f"completed instances are journaled in {args.checkpoint}; "
                    "rerun with the same --checkpoint to resume",
                    file=sys.stderr,
                )
            else:
                print(
                    "rerun with --checkpoint FILE to make interrupted runs "
                    "resumable",
                    file=sys.stderr,
                )
            return 2


def _run_one_experiment(args: argparse.Namespace, settings) -> int:
    from repro import experiments

    name = args.name

    results: object
    if name == "table2":
        results = experiments.table2.run_table2(settings)
        print(experiments.table2.render_table2(results))
    elif name == "table3":
        results = experiments.table3.run_table3(settings)
        print(experiments.table3.render_table3(results, "target"))
        print()
        print(experiments.table3.render_table3(results, "among"))
    elif name == "table4":
        results = experiments.table4.run_table4(settings)
        print(experiments.table4.render_table4(results))
    elif name == "table5":
        results = experiments.table5.run_table5(settings)
        print(experiments.table5.render_table5(results))
    elif name == "table6":
        results = experiments.table6.run_table6(settings)
        print(experiments.table6.render_table6(results, "target"))
        print()
        print(experiments.table6.render_table6(results, "among"))
    elif name == "table7":
        results = experiments.table7.run_table7(settings)
        print(experiments.table7.render_table7(results))
    elif name == "fig5":
        lam_points, best_lam, mu_points, best_mu = experiments.fig5.run_fig5(settings)
        results = {"lambda": lam_points, "best_lambda": best_lam,
                   "mu": mu_points, "best_mu": best_mu}
        print(experiments.fig5.render_fig5(lam_points, "lambda"))
        print(f"(best lambda = {best_lam})\n")
        print(experiments.fig5.render_fig5(mu_points, "mu"))
        print(f"(best mu = {best_mu})")
    elif name == "fig6":
        results = experiments.fig6.run_fig6(settings)
        print(experiments.fig6.render_fig6(results, "target"))
        print()
        print(experiments.fig6.render_fig6(results, "among"))
    elif name == "fig7":
        results = experiments.fig7.run_fig7(settings)
        print(experiments.fig7.render_fig7(results))
    elif name == "fig11":
        results = experiments.fig11.run_fig11(settings)
        print(experiments.fig11.render_fig11(results))
    else:  # case-study
        study = experiments.case_study.run_case_study(settings)
        results = {
            "category": study.category,
            "shared_aspects": study.shared_aspects,
            "product_ids": [p.product_id for p in study.result.instance.products],
        }
        print(experiments.case_study.render_case_study(study))

    if args.json is not None:
        from repro.experiments.persist import save_results

        directory = Path(args.json)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / f"{name.replace('-', '_')}.json"
        save_results(name, results, settings, target)
        print(f"\n[structured results written to {target}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="CompaReSetS (EDBT 2025) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("--category", default="Cellphone",
                          choices=["Cellphone", "Toy", "Clothing"])
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_command_generate)

    stats = subparsers.add_parser("stats", help="Table-2 statistics of a corpus")
    stats.add_argument("corpus")
    stats.add_argument("--min-reviews", type=int, default=1)
    stats.set_defaults(handler=_command_stats)

    select = subparsers.add_parser("select", help="select comparative review sets")
    select.add_argument("corpus")
    select.add_argument("--target", default=None, help="target product id")
    _add_selection_arguments(select)
    select.set_defaults(handler=_command_select)

    narrow = subparsers.add_parser("narrow", help="select and narrow to k items")
    narrow.add_argument("corpus")
    narrow.add_argument("--target", default=None)
    narrow.add_argument("--k", type=int, default=3)
    narrow.add_argument("--exact", action="store_true", help="use the exact ILP")
    narrow.add_argument(
        "--backend",
        default="milp",
        choices=["milp", "bnb", "fallback"],
        help="exact solver backend; 'fallback' runs the serving chain, bnb -> greedy",
    )
    narrow.add_argument("--time-limit", type=float, default=60.0)
    _add_selection_arguments(narrow)
    narrow.set_defaults(handler=_command_narrow)

    serve = subparsers.add_parser(
        "serve", help="run the online selection-serving HTTP API"
    )
    serve.add_argument("--corpus", required=True, help="JSONL corpus to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 binds an ephemeral port and prints it",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="result cache capacity"
    )
    serve.add_argument(
        "--ttl", type=float, default=None,
        help="result cache TTL in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="solver worker threads"
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="cross-request micro-batching window: concurrent select "
        "misses of one corpus generation are GEMM-stacked into one "
        "batched solve (0 disables)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission bound on requests in flight; excess load is shed "
             "with 429 (default: 64)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="UNITS_PER_S",
        help="token-bucket rate limit in request cost units per second "
             "(default: unlimited)",
    )
    serve.add_argument(
        "--rate-burst", type=float, default=None, metavar="UNITS",
        help="token-bucket burst size (default: one second of tokens)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait this long for in-flight requests "
             "before exiting (default: 30)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable state directory (WAL + snapshots); restarts recover "
             "from snapshot + WAL replay instead of re-ingesting the corpus",
    )
    serve.add_argument(
        "--supervised", action="store_true",
        help="run the engine in a supervised child process that is "
             "automatically restarted (with recovery) after a crash; "
             "requires --state-dir",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=32, metavar="N",
        help="write a generation snapshot (and compact the WAL) every N "
             "ingested deltas (default: 32; 0 disables auto-snapshots)",
    )
    serve.add_argument(
        "--cache-tier", choices=("file", "memory"), default=None,
        help="shared result-cache tier behind the local LRU: 'file' "
             "survives restarts under the state dir (default: none)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard the corpus across N supervised worker processes "
             "behind an asyncio gateway (consistent-hash routing by "
             "target item); 1 keeps the single-process server (default)",
    )
    serve.add_argument(
        "--gateway-port", type=int, default=None, metavar="P",
        help="TCP port for the cluster gateway (default: --port); only "
             "meaningful with --shards > 1",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="place every key on R shards (preference-list replication): "
             "reads fail over to replicas when a shard is down and "
             "ingest hints are queued for it; must be <= --shards "
             "(default: 1, no replication)",
    )
    serve.add_argument(
        "--hint-limit", type=int, default=512, metavar="H",
        help="max hinted-handoff deltas queued per dead shard before "
             "ingest for its keys answers 503 (default: 512)",
    )
    serve.add_argument(
        "--verify-patches", action="store_true",
        help="cross-check every delta-patched solver artifact against a "
             "cold rebuild byte-for-byte, serving the cold build on "
             "mismatch (diagnostic; trades ingest latency for certainty)",
    )
    serve.set_defaults(handler=_command_serve)

    convert = subparsers.add_parser(
        "convert-amazon", help="convert a McAuley Amazon dump pair"
    )
    convert.add_argument("--reviews", required=True)
    convert.add_argument("--metadata", required=True)
    convert.add_argument("--out", required=True)
    convert.add_argument("--category", default="Amazon")
    convert.add_argument("--no-annotate", action="store_true")
    convert.add_argument("--candidate-pool", type=int, default=2000)
    convert.add_argument("--keep", type=int, default=500)
    convert.set_defaults(handler=_command_convert_amazon)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=0.6)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--instances", type=int, default=20)
    experiment.add_argument("--max-comparisons", type=int, default=8)
    experiment.add_argument("--min-reviews", type=int, default=3)
    experiment.add_argument("--budgets", type=int, nargs="+", default=[3, 5, 10])
    experiment.add_argument(
        "--json",
        default=None,
        metavar="DIR",
        help="also write structured JSON results into this directory",
    )
    experiment.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="stream per-instance results to this journal; rerunning an "
        "interrupted experiment with the same journal resumes from the "
        "last checkpoint",
    )
    experiment.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall wall-clock budget; propagates down to per-solve "
        "limits and aborts (checkpointed) when exhausted",
    )
    experiment.set_defaults(handler=_command_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
