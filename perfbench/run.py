"""Run one benchmark workload and print its result as the last line.

::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  ``--short`` shrinks the run for the
benchmark's own tests: one set-up, every check still on.  Exits 1 when
a check on the program's outputs fails and 2 when the program is absent.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot_read", "cluster_read", "miss_solve", "ingest_mix", "paper_eval")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_environment() -> None:
    """Pin this process to one CPU and re-execute under the pinned
    environment unless already there.

    Every thread and process the run starts inherits the CPU.  With the
    load generator, the server and its shard workers on one CPU, no
    request waits on a wake-up across CPUs, whose cost depends on where
    the host's scheduler happens to place each process.
    """
    from perfbench import PINNED_ENV, bench_cpu

    os.sched_setaffinity(0, {bench_cpu()})
    if all(os.environ.get(name) == value for name, value in PINNED_ENV.items()):
        return
    env = dict(os.environ)
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def _workload(args: argparse.Namespace, run_dir: Path):
    if args.workload in ("hot_read", "cluster_read"):
        from perfbench.serving import ServingWorkload

        return ServingWorkload(args, run_dir, cluster=args.workload == "cluster_read")
    if args.workload == "miss_solve":
        from perfbench.miss_solve import MissSolveWorkload

        return MissSolveWorkload(args, run_dir)
    if args.workload == "ingest_mix":
        from perfbench.ingest_mix import IngestMixWorkload

        return IngestMixWorkload(args, run_dir)
    from perfbench.paper_eval import PaperEvalWorkload

    return PaperEvalWorkload(args, run_dir)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    _pin_environment()

    import signal
    import tempfile

    from perfbench import harness

    # A terminated run still stops its servers and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_dir = harness.WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)  # left by a killed run with this pid
    run_dir.mkdir(parents=True)
    (harness.WORK / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(harness.WORK / "tmp")
    tempfile.tempdir = None
    began = time.perf_counter()
    try:
        outcome = _workload(args, run_dir).run()
    except harness.CheckFailed as exc:
        print(f"check failed in {args.workload}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": harness.environment(),
              "wall_s": time.perf_counter() - began, **outcome["detail"]}
    harness.emit(
        correct=True,
        attempted=outcome["attempted"],
        failed=outcome["failed"],
        metrics=outcome["metrics"],
        detail=detail,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
